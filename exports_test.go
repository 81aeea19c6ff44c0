package onoffchain

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportSeams names each function or method under internal/ that no
// program calls, with the reason it stays: the test that needs it where no
// production call answers, or the interface it is called through outside
// this module. Anything else without a caller is deleted, not listed.
var exportSeams = map[string]string{
	// Seams: what a test observes that no production call reports.
	"(*chain.Chain).PendingCount":      "TestBlockWaitBudget and the other block-wait tests count what is pooled before they mine",
	"(*chain.Chain).StorageAt":         "TestCallDoesNotMutate and TestParallelStorageContention read a slot with no getter to call",
	"(*hub.Hub).LiveSessions":          "TestLifecycleProperties and the crash harness check that no session is left live",
	"(*hub.Hub).RollupHandles":         "TestSeriesHaveReaders and the rollup tests hand a Join tower the hub's registry and epochs",
	"(*hub.Ticket).Done":               "TestBlockWaitBudget and TestDisputeGateHoldsBarrier wait for a session with a deadline",
	"(*hub.Ticket).TraceCtx":           "TestDisputeTraceCrossTower finds the session's trace in the merged recordings",
	"(*tower.Watchtower).OpenWindows":  "TestLifecycleProperties and the crash harness check that no challenge window is left open",
	"(*store.Store).Dir":               "the recovery tests reopen a crashed store from its directory",
	"(*whisper.Network).SetLinkFilter": "TestFederationPartition and TestDropCounters cut links between nodes",
	"uint256.MustFromHex":              "the uint256 tests write 256-bit constants in hex",

	// Called through an interface, outside this module.
	"(*keccak.digest).BlockSize":           "hash.Hash",
	"(*keccak.digest).Reset":               "hash.Hash",
	"(*keccak.digest).Size":                "hash.Hash",
	"(telemetry.HealthStatus).MarshalJSON": "json.Marshaler: the /healthz body",
}

// TestExportsHaveCallers type-checks every non-test file of the module and
// of benchmark/, and fails on any function or method declared under
// internal/, exported or not, that no non-test code refers to. A method
// also counts as called when its type implements an interface whose method
// of that name is called — by this code, or by fmt (String, Error, Format).
// An unexported method counts as used when its type implements an
// interface declared in the module that has it: that is how a package
// closes an interface to its own types (lang's stmtNode and exprNode).
func TestExportsHaveCallers(t *testing.T) {
	l := loadModule(t)
	called := map[*types.Func]bool{}
	ifaces := map[string][]*types.Interface{} // called interface methods, by name
	for _, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		called[fn.Origin()] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if it, ok := recv.Type().Underlying().(*types.Interface); ok {
				ifaces[fn.Name()] = append(ifaces[fn.Name()], it)
			}
		}
	}
	fmtPkg, err := l.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	for name, typ := range map[string]types.Type{
		"String": fmtPkg.Scope().Lookup("Stringer").Type(),
		"Format": fmtPkg.Scope().Lookup("Formatter").Type(),
		"Error":  types.Universe.Lookup("error").Type(),
	} {
		ifaces[name] = append(ifaces[name], typ.Underlying().(*types.Interface))
	}
	throughInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(recv.Type(), it) {
				return true
			}
		}
		return false
	}

	var modIfaces []*types.Interface
	for _, pkg := range l.pkgs {
		if pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				modIfaces = append(modIfaces, it)
			}
		}
	}
	implementsModuleInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || fn.Exported() {
			return false
		}
		for _, it := range modIfaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Id() == fn.Id() && types.Implements(recv.Type(), it) {
					return true
				}
			}
		}
		return false
	}

	uncalled := map[string]bool{}
	var missing []string
	for fn := range l.declared {
		if called[fn] || throughInterface(fn) || implementsModuleInterface(fn) {
			continue
		}
		name := strings.ReplaceAll(fn.FullName(), "onoffchain/internal/", "")
		uncalled[name] = true
		if _, ok := exportSeams[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s has no caller outside tests: delete it, or name the test that needs it in exportSeams", name)
	}
	for name := range exportSeams {
		if !uncalled[name] {
			t.Errorf("exportSeams lists %s, which is gone or has a caller now: delete its entry", name)
		}
	}
}

// loader type-checks the module's packages from source, each before the
// packages that import it, and the standard library from its export data.
// It keeps each package's syntax and the types of its expressions for the
// audits that read them (fields_test.go).
type loader struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*types.Package
	files    map[string][]*ast.File // non-test syntax, by package path
	info     *types.Info
	declared map[*types.Func]bool // functions and methods under internal/
}

// loadModule type-checks every non-test file of the module and of
// benchmark/, once per test binary: the audits share one pass.
func loadModule(t *testing.T) *loader {
	t.Helper()
	l, err := moduleLoader()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var moduleLoader = sync.OnceValues(func() (*loader, error) {
	l := &loader{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		declared: map[*types.Func]bool{},
	}
	for _, top := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(top, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			_, err = l.load(dir)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return l, nil
})

func (l *loader) Import(path string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(path, "onoffchain/"); ok {
		return l.load(dir)
	}
	return l.std.Import(path)
}

// load type-checks the package in dir, once; a directory without non-test
// Go files yields nil.
func (l *loader) load(dir string) (*types.Package, error) {
	path := "onoffchain/" + filepath.ToSlash(dir)
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var pkg *types.Package
	if len(files) > 0 {
		conf := types.Config{Importer: l}
		if pkg, err = conf.Check(path, l.fset, files, l.info); err != nil {
			return nil, err
		}
	}
	l.pkgs[path] = pkg
	l.files[path] = files
	if !strings.HasPrefix(path, "onoffchain/internal/") {
		return pkg, nil
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" && fd.Name.Name != "_" {
				l.declared[l.info.Defs[fd.Name].(*types.Func)] = true
			}
		}
	}
	return pkg, nil
}
