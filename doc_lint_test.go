package lifeguard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented is the doc lint for the public surface
// (this package): every exported type, function, method, constant,
// variable, struct field and interface method must carry a doc comment.
// CI runs it as a dedicated step, so a godoc regression fails the
// build — the AST-walk equivalent of `revive exported`, with no external
// dependency.
func TestExportedSymbolsDocumented(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			checkFileDocs(t, fset, file)
		}
	}
}

func checkFileDocs(t *testing.T, fset *token.FileSet, file *ast.File) {
	t.Helper()
	undocumented := func(name string, pos token.Pos) {
		t.Errorf("%s: exported %s has no doc comment", fset.Position(pos), name)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				undocumented("func "+d.Name.Name, d.Pos())
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if d.Doc == nil && s.Doc == nil {
						undocumented("type "+s.Name.Name, s.Pos())
					}
					checkCompositeDocs(t, fset, s)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						// A doc on the const/var block covers single
						// specs; grouped specs may document per line.
						if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							undocumented(name.Name, name.Pos())
						}
					}
				}
			}
		}
	}
}

// checkCompositeDocs enforces docs on exported struct fields and
// interface methods of an exported type.
func checkCompositeDocs(t *testing.T, fset *token.FileSet, s *ast.TypeSpec) {
	t.Helper()
	var fields *ast.FieldList
	kind := ""
	switch typ := s.Type.(type) {
	case *ast.StructType:
		fields, kind = typ.Fields, "field"
	case *ast.InterfaceType:
		fields, kind = typ.Methods, "method"
	default:
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				t.Errorf("%s: exported %s %s.%s has no doc comment",
					fset.Position(name.Pos()), kind, s.Name.Name, name.Name)
			}
		}
	}
}
