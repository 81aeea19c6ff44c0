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

// FuzzSoloParse: Parse returns on every input, without panicking, and each
// error it returns is a *lang.Error naming a line inside the input. Seeds
// are the contracts the repo compiles: hybrid's scenario sources here, the
// rollup registry and the quickstart example's contract under
// testdata/fuzz.
func FuzzSoloParse(f *testing.F) {
	for _, src := range []string{
		hybrid.BettingSource,
		hybrid.AuctionSource,
		hybrid.MultiPartySource(3),
		hybrid.LotterySource(6),
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
