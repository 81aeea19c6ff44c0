package onoffchain

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// designRef matches a reference to a DESIGN.md section, with the quoted
// name of one of its subsections when there is one.
var designRef = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)(?: "([^"]+)")?`)

// TestDesignRefsResolve fails on any DESIGN.md section reference in a .go
// or .yml file that names no `## N.` heading, or whose quoted name matches
// no `###` heading inside that section.
func TestDesignRefsResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[int][]string{} // section number → its ### headings
	current := 0
	for _, line := range strings.Split(string(doc), "\n") {
		if rest, ok := strings.CutPrefix(line, "## "); ok {
			num, _, _ := strings.Cut(rest, ".")
			current, err = strconv.Atoi(num)
			if err != nil {
				current = 0 // an unnumbered section
				continue
			}
			sections[current] = []string{}
		} else if sub, ok := strings.CutPrefix(line, "### "); ok && current > 0 {
			sections[current] = append(sections[current], sub)
		}
	}

	refs := 0
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".yml" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range designRef.FindAllStringSubmatch(line, -1) {
				refs++
				n, _ := strconv.Atoi(m[1])
				subs, ok := sections[n]
				if !ok {
					t.Errorf("%s:%d: %q names no section %d in DESIGN.md", path, i+1, m[0], n)
					continue
				}
				named := func(h string) bool { return strings.HasPrefix(h, m[2]) }
				if m[2] != "" && !slices.ContainsFunc(subs, named) {
					t.Errorf("%s:%d: %q: DESIGN.md §%d has no ### heading %q", path, i+1, m[0], n, m[2])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("found no DESIGN.md references: the pattern no longer matches how the code cites it")
	}
}
