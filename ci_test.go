package onoffchain

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciRun matches a quoted -run pattern in the CI workflow.
var ciRun = regexp.MustCompile(`-run '([^']*)'`)

// alternatives splits a -run pattern into the names it stands for: at each
// top-level '|', and a parenthesised group such as TestSequencer(Recovers|Halts)
// into one alternative per member (TestSequencerRecovers, TestSequencerHalts),
// so a renamed member is missed even while its siblings exist. A top-level '/'
// ends the part that names top-level tests.
func alternatives(pattern string) []string {
	if i := topLevel(pattern, '/'); i >= 0 {
		pattern = pattern[:i]
	}
	var out []string
	for _, alt := range split(pattern) {
		out = append(out, expand(alt)...)
	}
	return out
}

// expand writes out alt's first top-level group once per member, and each
// result's remaining groups in turn.
func expand(alt string) []string {
	open := topLevel(alt, '(')
	if open < 0 {
		return []string{alt}
	}
	depth := 0
	for i := open; i < len(alt); i++ {
		switch alt[i] {
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				var out []string
				for _, m := range split(alt[open+1 : i]) {
					out = append(out, expand(alt[:open]+m+alt[i+1:])...)
				}
				return out
			}
		}
	}
	return []string{alt} // unbalanced: regexp.Compile reports it
}

// split cuts pattern at its top-level '|'.
func split(pattern string) []string {
	var out []string
	for {
		i := topLevel(pattern, '|')
		if i < 0 {
			return append(out, pattern)
		}
		out = append(out, pattern[:i])
		pattern = pattern[i+1:]
	}
}

// topLevel is the index of the first c outside any parentheses, or -1.
func topLevel(pattern string, c byte) int {
	depth := 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '(':
			if depth == 0 && c == '(' {
				return i
			}
			depth++
		case ')':
			depth--
		case c:
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// TestCIRunNamesExist fails when an alternative of a quoted -run pattern in
// .github/workflows/ci.yml matches no Test function in the repository: a
// renamed test would otherwise drop silently out of the by-name -race and
// -cpu lines.
func TestCIRunNamesExist(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var tests []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				tests = append(tests, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	patterns := ciRun.FindAllStringSubmatch(string(ci), -1)
	if len(patterns) == 0 {
		t.Fatal("found no -run pattern in ci.yml: the pattern no longer matches how the workflow names tests")
	}
	for _, m := range patterns {
		for _, alt := range alternatives(m[1]) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml -run alternative %q: %v", alt, err)
				continue
			}
			found := false
			for _, name := range tests {
				if re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml -run alternative %q matches no Test function", alt)
			}
		}
	}
}
