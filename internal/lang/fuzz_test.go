package lang_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"onoffchain/internal/hybrid"
	"onoffchain/internal/lang"
)

// parseDeadline bounds one Parse call: every seed parses in well under a
// millisecond, so an input that takes this long is a parser that loops.
const parseDeadline = 2 * time.Second

// nested wraps an initializer in n parentheses inside a one-function
// contract: the initializer sits on line 3.
func nested(n int) string {
	return "contract C {\n    function f() public {\n        uint x = " +
		strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";\n    }\n}\n"
}

// FuzzSoloParse: Parse returns on every input, without panicking, and each
// error it returns is a *lang.Error naming a line inside the input. Seeds
// are the contracts the repo compiles — hybrid's scenario sources here, the
// rollup registry and the quickstart example's contract under
// testdata/fuzz — and an expression nested just past the parser's bound.
func FuzzSoloParse(f *testing.F) {
	for _, src := range []string{
		hybrid.BettingSource,
		hybrid.AuctionSource,
		hybrid.MultiPartySource(3),
		hybrid.LotterySource(6),
		nested(1001),
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		done := make(chan error, 1)
		go func() {
			_, err := lang.Parse(src)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(parseDeadline):
			t.Fatalf("Parse did not return within %s", parseDeadline)
		}
		if err == nil {
			return
		}
		var le *lang.Error
		if !errors.As(err, &le) {
			t.Fatalf("Parse returned %T %v, want a *lang.Error", err, err)
		}
		if lines := strings.Count(src, "\n") + 1; le.Line < 1 || le.Line > lines {
			t.Fatalf("error %v names line %d of a %d-line input", err, le.Line, lines)
		}
	})
}

// TestParseNestingBound: a million nested parentheses, about 2 MB of
// source, are refused with a positioned error within milliseconds — the
// parser stops reading at the bound — instead of growing the stack toward
// Go's fatal limit, while nesting up to the bound still parses.
func TestParseNestingBound(t *testing.T) {
	src := nested(1_000_000)
	start := time.Now()
	_, err := lang.Parse(src)
	elapsed := time.Since(start)
	var le *lang.Error
	if !errors.As(err, &le) || le.Line != 3 || !strings.Contains(le.Msg, "nesting") {
		t.Fatalf("Parse of a million nested parentheses returned %v, want a nesting error on line 3", err)
	}
	if bound := 250 * time.Millisecond; elapsed > bound {
		t.Fatalf("the nesting error took %s, want under %s", elapsed, bound)
	}
	t.Logf("nesting error after %s", elapsed)
	// The statement and the initializer take two levels of the bound.
	if _, err := lang.Parse(nested(998)); err != nil {
		t.Fatalf("998 nested parentheses: %v", err)
	}
}

// FuzzSoloCompile: every source Parse accepts compiles or returns an
// error, without panicking. Seeds are hybrid's scenario sources and the
// on-chain and off-chain contracts the splitter generates from them.
func FuzzSoloCompile(f *testing.F) {
	for _, sc := range []struct {
		src, name string
		policy    hybrid.Policy
	}{
		{hybrid.BettingSource, "Betting", hybrid.BettingPolicy(600)},
		{hybrid.AuctionSource, "Auction", hybrid.AuctionPolicy(600)},
		{hybrid.MultiPartySource(3), "Pool", hybrid.MultiPartyPolicy(600)},
		{hybrid.LotterySource(6), "Lottery", hybrid.LotteryPolicy(600)},
	} {
		split, err := hybrid.Split(sc.src, sc.name, sc.policy)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sc.src)
		f.Add(split.OnChainSource)
		f.Add(split.OffChainSource)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := lang.Parse(src)
		if err != nil {
			return
		}
		lang.CompileFile(file)
	})
}
