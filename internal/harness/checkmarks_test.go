package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// checkmarkName matches the test name that follows a checkmark: "✔
// `TestName`", a line break allowed after the checkmark.
var checkmarkName = regexp.MustCompile("^\\s+`(Test[A-Za-z0-9_]+)`")

// TestExperimentsCheckmarksNameTests: every ✔ in EXPERIMENTS.md is
// followed by the name of the test that asserts its statement, in
// backquotes, and that name is a test function of this repository.
func TestExperimentsCheckmarksNameTests(t *testing.T) {
	const root = "../.."
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	marks := strings.Count(text, "✔")
	if marks == 0 {
		t.Error("EXPERIMENTS.md has no checkmarks")
	}
	for off := 0; ; {
		i := strings.Index(text[off:], "✔")
		if i < 0 {
			break
		}
		off += i + len("✔")
		line := strings.Count(text[:off], "\n") + 1
		m := checkmarkName.FindStringSubmatch(text[off:])
		switch {
		case m == nil:
			t.Errorf("EXPERIMENTS.md:%d: a checkmark names no test", line)
		case !tests[m[1]]:
			t.Errorf("EXPERIMENTS.md:%d: a checkmark names %s, which is no test function", line, m[1])
		}
	}
}
