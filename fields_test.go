package onoffchain

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fieldSeams names each struct field under internal/ that no program
// reads, with the reason it stays. Anything else that is only written is
// deleted, not listed. A key names one field (pkg.Type.Field) or every
// field of a type (pkg.Type).
var fieldSeams = map[string]string{
	// Copies of the registry's counters, until ROADMAP item 1(A) makes
	// benchmark/ read the registry by series name.
	"hub.Snapshot":        "benchmark/ reads the hub's and its tower's counters here; TestLifecycleProperties, the recovery and rollup tests read the rest",
	"federation.Snapshot": "benchmark/ reads a tower's federation counters here; the federation tests read Guards, GuardsExported and SigRejected",

	"hub.Report.Session": "the block-wait and pipeline tests reach a session's parties and settlement through it",

	"lang.BoolExpr.Line":   linePosition,
	"lang.Contract.Line":   linePosition,
	"lang.Event.Line":      linePosition,
	"lang.ExprStmt.Line":   linePosition,
	"lang.Interface.Line":  linePosition,
	"lang.Modifier.Line":   linePosition,
	"lang.NumberExpr.Line": linePosition,
	"lang.RevertStmt.Line": linePosition,

	"telemetry.ComponentHealth.Detail": "encoding/json reads it: the /healthz body",
}

const linePosition = "an AST position: no compile error cites this node kind's line yet, and the parser records one for every node"

// optionSeams names each option that no program sets, with the test or
// the DESIGN §8 verdict that keeps it.
var optionSeams = map[string]string{
	"federation.Config.Store":   "TestFederationStandaloneRecovery and TestRearmReplaysFromTheIndex journal a Join tower; ROADMAP item 2(c) gives it a program or removes it",
	"federation.Config.Rollup":  "TestFederationRollupFleet and TestSeriesHaveReaders hand a Join tower the hub's rollup handles (DESIGN \"Known limits\")",
	"store.Options.SegmentSize": "DESIGN §8: TestLifecycleProperties and TestDurableHappyPath set it from outside store to force WAL rotation",
	"whisper.PostOptions.TTL":   "DESIGN §8: TestTTLExpiry and TestDropCounters expire envelopes; without it the clock NewNetwork takes has no reader",
}

// TestFieldsHaveReaders fails on any struct field declared under
// internal/, exported or not, that no non-test code reads, benchmark/'s
// included.
// A read is any use of the field other than as an assignment's target, an
// x.f++ or x.f-- operand, or a composite literal's key. Comparing a struct
// with == or != and using it as a map key read all its fields; an embedded
// field counts as read.
func TestFieldsHaveReaders(t *testing.T) {
	l := loadModule(t)
	names := fieldNames(l)
	read := map[*types.Var]bool{}
	for _, files := range l.files {
		writes := writeTargets(files)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if v, ok := l.info.Uses[n].(*types.Var); ok && v.IsField() && !writes[n] {
						read[v.Origin()] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(l.info.TypeOf(n.X), read)
					}
				}
				return true
			})
		}
	}
	for _, tv := range l.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			readAll(m.Key(), read)
		}
	}

	unread := map[string]bool{}
	var missing []string
	for v, name := range names {
		if read[v] {
			continue
		}
		unread[name.typ], unread[name.full()] = true, true
		if _, ok := fieldSeams[name.typ]; ok {
			continue
		}
		if _, ok := fieldSeams[name.full()]; !ok {
			missing = append(missing, name.full())
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is never read outside tests: delete it, or name its reader in fieldSeams", name)
	}
	for name := range fieldSeams {
		if !unread[name] {
			t.Errorf("fieldSeams lists %s, which is gone or read now: delete its entry", name)
		}
	}
}

// fieldName names a struct field: the type that declares it and the path
// to it inside that type.
type fieldName struct{ typ, field string }

func (n fieldName) full() string { return n.typ + "." + n.field }

// fieldNames names every field declared under internal/, embedded ones
// aside: pkg.Type.Field, the path to it for a field of an anonymous struct
// inside a type (pkg.Type.Outer.Field), and the file and line of its struct
// for one declared elsewhere.
func fieldNames(l *loader) map[*types.Var]fieldName {
	names := map[*types.Var]fieldName{}
	var visit func(typ, prefix string, st *ast.StructType)
	visit = func(typ, prefix string, st *ast.StructType) {
		for _, field := range st.Fields.List {
			for _, id := range field.Names {
				names[l.info.Defs[id].(*types.Var)] = fieldName{typ, prefix + id.Name}
				ast.Inspect(field.Type, func(n ast.Node) bool {
					if inner, ok := n.(*ast.StructType); ok {
						visit(typ, prefix+id.Name+".", inner)
						return false
					}
					return true
				})
			}
		}
	}
	for path, files := range l.files {
		pkg, ok := strings.CutPrefix(path, "onoffchain/internal/")
		if !ok {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						visit(pkg+"."+n.Name.Name, "", st)
						return false
					}
				case *ast.StructType:
					pos := l.fset.Position(n.Pos())
					visit(fmt.Sprintf("%s.%s@%d", pkg, filepath.Base(pos.Filename), pos.Line), "", n)
					return false
				}
				return true
			})
		}
	}
	return names
}

// writeTargets returns the field identifiers that files only write: an
// assignment's target, an increment's operand, a composite literal's key.
func writeTargets(files []*ast.File) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					writes[id] = true
				}
			}
			return true
		})
	}
	return writes
}

// readAll marks every field that comparing or hashing a value of t reads.
func readAll(t types.Type, read map[*types.Var]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i).Origin(); !read[f] {
				read[f] = true
				readAll(f.Type(), read)
			}
		}
	case *types.Array:
		readAll(u.Elem(), read)
	}
}

// TestOptionsHaveSetters fails on any field of a type under internal/
// named …Config or …Options, or of hybrid.Policy, that no non-test code
// sets. A write counts as a program's setting unless the declaring package
// makes it inside an if whose condition reads the same field: that is the
// package filling in its own default for a zero value.
func TestOptionsHaveSetters(t *testing.T) {
	l := loadModule(t)
	options := map[*types.Var]string{}
	for path, pkg := range l.pkgs {
		short, ok := strings.CutPrefix(path, "onoffchain/internal/")
		if !ok || pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || short+"."+name == "hybrid.Policy") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					options[st.Field(i)] = short + "." + name + "." + st.Field(i).Name()
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	for path, files := range l.files {
		for _, f := range files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					targets = n.Lhs
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				case *ast.KeyValueExpr:
					targets = []ast.Expr{n.Key}
				}
				for _, e := range targets {
					id, ok := ast.Unparen(e).(*ast.Ident)
					if sel, isSel := ast.Unparen(e).(*ast.SelectorExpr); isSel {
						id, ok = sel.Sel, true
					}
					if !ok {
						continue
					}
					v, ok := l.info.Uses[id].(*types.Var)
					if !ok || !v.IsField() {
						continue
					}
					if v.Pkg() != nil && v.Pkg().Path() == path && l.fillsDefault(stack, v) {
						continue
					}
					set[v.Origin()] = true
				}
				return true
			})
		}
	}

	unset := map[string]bool{}
	var missing []string
	for v, name := range options {
		if set[v] {
			continue
		}
		unset[name] = true
		if _, ok := optionSeams[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is set by no program: delete it, or name the test or DESIGN §8 verdict that keeps it in optionSeams", name)
	}
	for name := range optionSeams {
		if !unset[name] {
			t.Errorf("optionSeams lists %s, which is gone or set by a program now: delete its entry", name)
		}
	}
}

// fillsDefault reports whether the innermost node of stack sits inside an
// if whose condition reads field v.
func (l *loader) fillsDefault(stack []ast.Node, v *types.Var) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && l.info.Uses[id] == v {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
