package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestErrorCodesListsEveryWrittenCode scans this package's handlers for
// the codes they write — the code argument of every writeError call and
// the Code of every ErrorDetail literal — and requires ErrorCodes to list
// each of them, once, and nothing else.
func TestErrorCodesListsEveryWrittenCode(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	written := map[string]string{} // code → first position writing it
	literal := func(e ast.Expr, what string) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s: %s is not a string literal; keep codes literal so this test sees them", fset.Position(e.Pos()), what)
			return
		}
		code, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := written[code]; !ok {
			written[code] = fset.Position(lit.Pos()).String()
		}
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return n.Name.Name != "writeError" // it passes its caller's code on
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "writeError" && len(n.Args) == 4 {
					literal(n.Args[2], "the writeError code")
				}
			case *ast.CompositeLit:
				if id, ok := n.Type.(*ast.Ident); ok && id.Name == "ErrorDetail" {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Code" {
								literal(kv.Value, "the ErrorDetail Code")
							}
						}
					}
				}
			}
			return true
		})
	}
	if len(written) == 0 {
		t.Fatal("found no error codes; the scan is broken")
	}
	for code, pos := range written {
		if !slices.Contains(ErrorCodes, code) {
			t.Errorf("%s writes code %q, which ErrorCodes lacks", pos, code)
		}
	}
	for i, code := range ErrorCodes {
		if _, ok := written[code]; !ok {
			t.Errorf("ErrorCodes lists %q, which no handler writes", code)
		}
		if slices.Contains(ErrorCodes[:i], code) {
			t.Errorf("ErrorCodes lists %q twice", code)
		}
	}
}
