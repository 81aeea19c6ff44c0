package lang_test

import (
	"bytes"
	"strings"
	"testing"

	"onoffchain/internal/lang"
)

// Print → reparse → recompile must produce identical bytecode: the printer
// is a faithful source round trip (the splitter depends on this). The
// splitter prints only contracts and writes its interface declarations as
// text, so the test prints each contract and keeps the source's interface
// declarations as written.
func TestPrintRoundTrip(t *testing.T) {
	sources := []string{counterSrc, exprSrc, bankSrc, modifierSrc, internalSrc, loopSrc, arraySrc, cryptoSrc, factorySrc, payableSrc, castSrc}
	for i, src := range sources {
		orig, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("source %d: parse: %v", i, err)
		}
		var b strings.Builder
		if len(orig.Interfaces) > 0 {
			b.WriteString(src[:strings.Index(src, "\ncontract ")+1])
		}
		for _, c := range orig.Contracts {
			lang.PrintContract(&b, c)
		}
		printed := b.String()
		reparsed, err := lang.Parse(printed)
		if err != nil {
			t.Fatalf("source %d: reparse printed output: %v\n%s", i, err, printed)
		}
		c1, err := lang.CompileFile(orig)
		if err != nil {
			t.Fatalf("source %d: compile original: %v", i, err)
		}
		c2, err := lang.CompileFile(reparsed)
		if err != nil {
			t.Fatalf("source %d: compile printed: %v", i, err)
		}
		for name, cc1 := range c1.Contracts {
			cc2, ok := c2.Contracts[name]
			if !ok {
				t.Fatalf("source %d: contract %s lost in round trip", i, name)
			}
			if !bytes.Equal(cc1.Runtime, cc2.Runtime) {
				t.Errorf("source %d: contract %s runtime differs after round trip", i, name)
			}
			if !bytes.Equal(cc1.Deploy, cc2.Deploy) {
				t.Errorf("source %d: contract %s deploy differs after round trip", i, name)
			}
		}
	}
}
