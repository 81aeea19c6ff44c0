package onoffchain

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// telemetryHTTP is the one package under internal/ that may import the
// network stack; only the binaries under cmd/ and examples/ import it.
const telemetryHTTP = "onoffchain/internal/telemetry/telemetryhttp"

// networkImport reports whether path is a package that links the network
// stack, TLS, certificate parsing or the cgo user lookup into a binary.
func networkImport(path string) bool {
	for _, p := range []string{"net", "crypto/tls", "crypto/x509", "os/user"} {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// TestNoNetworkStackOutsideTelemetryHTTP reads the imports of every non-test
// file under internal/, benchmark/, cmd/ and examples/, and fails when a
// file under internal/ or benchmark/ outside telemetryhttp imports the
// network stack, or when anything but a binary under cmd/ or examples/
// imports telemetryhttp. A hub, tower or benchmark process then links no
// listener it never opens (DESIGN §10).
func TestNoNetworkStackOutsideTelemetryHTTP(t *testing.T) {
	fset := token.NewFileSet()
	httpDir := filepath.FromSlash(strings.TrimPrefix(telemetryHTTP, "onoffchain/"))
	for _, top := range []string{"internal", "benchmark", "cmd", "examples"} {
		err := filepath.WalkDir(top, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			binary := top == "cmd" || top == "examples"
			for _, spec := range f.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					return err
				}
				if networkImport(imp) && !binary && dir != httpDir {
					t.Errorf("%s imports %s: only %s may link the network stack", path, imp, telemetryHTTP)
				}
				if imp == telemetryHTTP && !binary {
					t.Errorf("%s imports %s: only the binaries under cmd/ and examples/ may", path, imp)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
