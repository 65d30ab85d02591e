package doconsider

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyExecutorSynchronizes reads the source: no non-test file under
// internal/ has a go statement except in the executor, whose worker set
// runs every parallel pass, and in the server and router, which run the
// network; and the packages that used to keep private copies of a pass
// (the simulator's calibration, the symbolic factorization, the planner's
// calibration) import neither sync nor sync/atomic.
func TestOnlyExecutorSynchronizes(t *testing.T) {
	forks := map[string]bool{"executor": true, "server": true, "router": true}
	noSync := map[string]bool{"machine": true, "ilu": true, "planner": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		pkg := strings.Split(filepath.ToSlash(path), "/")[1]
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, imp := range file.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); noSync[pkg] && (p == "sync" || p == "sync/atomic") {
				t.Errorf("%s: imports %s", fset.Position(imp.Pos()), p)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !forks[pkg] {
				t.Errorf("%s: go statement", fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
