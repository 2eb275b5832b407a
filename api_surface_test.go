package snoopmva

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt from the current exported surface")

// exportedRootSymbols lists the root package's exported top-level
// funcs, methods (as Type.Method), types and values, sorted, parsed from
// the non-test source files.
func exportedRootSymbols(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var syms []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					syms = append(syms, "func "+d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					syms = append(syms, "method "+id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							syms = append(syms, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, id := range s.Names {
							if id.IsExported() {
								syms = append(syms, kind+" "+id.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(syms)
	return syms
}

// TestExportedRootSurface pins the root package's exported API against
// testdata/api.txt, so any symbol added or removed shows up as a golden
// diff. Regenerate with: go test -run TestExportedRootSurface -update-api .
func TestExportedRootSurface(t *testing.T) {
	syms := exportedRootSymbols(t)
	got := strings.Join(syms, "\n") + "\n"
	golden := filepath.Join("testdata", "api.txt")
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotSet := map[string]bool{}
	for _, s := range syms {
		gotSet[s] = true
	}
	wantSet := map[string]bool{}
	for _, s := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantSet[s] = true
		if !gotSet[s] {
			t.Errorf("removed from the exported surface: %s", s)
		}
	}
	for _, s := range syms {
		if !wantSet[s] {
			t.Errorf("added to the exported surface: %s", s)
		}
	}
	t.Log("if the change is intended, regenerate with -update-api")
}
