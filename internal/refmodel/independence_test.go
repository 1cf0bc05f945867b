package refmodel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The golden model may name these declarations of the simulator's
// packages and no others: types to exchange values in, the word size,
// and the validation of its configuration. Anything else there —
// Params.CTL, DefaultShuffle, Spec.Decompose — is address math the model
// must derive on its own.
var allowedImports = map[string]map[string]bool{
	"gsdram/internal/addrmap": {"Addr": true, "Spec": true},
	"gsdram/internal/gsdram":  {"Params": true, "Pattern": true, "WordBytes": true},
	"gsdram/internal/cache":   {"Line": true}, // CacheLines' snapshot type
}

// guardedTypes are the configuration types the model receives, whose
// fields and methods it may use only as listed.
var guardedTypes = []struct {
	dir, name string
	allowed   []string
}{
	{"../gsdram", "Params", []string{"Chips", "ShuffleStages", "PatternBits", "Validate"}},
	{"../addrmap", "Spec", []string{"Channels", "Ranks", "Banks", "Rows", "Cols", "LineBytes", "Validate", "Capacity"}},
}

// parseDir parses a package's non-test files.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

// typeMembers returns the exported fields and methods of a named type
// declared in dir.
func typeMembers(t *testing.T, dir, typ string) (fields, methods map[string]bool) {
	t.Helper()
	fields, methods = map[string]bool{}, map[string]bool{}
	for _, f := range parseDir(t, token.NewFileSet(), dir) {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || !d.Name.IsExported() {
					continue
				}
				rt := d.Recv.List[0].Type
				if star, ok := rt.(*ast.StarExpr); ok {
					rt = star.X
				}
				if id, ok := rt.(*ast.Ident); ok && id.Name == typ {
					methods[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || ts.Name.Name != typ {
						continue
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, n := range fl.Names {
								if n.IsExported() {
									fields[n.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return fields, methods
}

// TestNoSharedAddressMath parses the model's source and fails on any use
// of the simulator's packages outside the allowed set above: a
// package-qualified name not listed, or a field or method of a guarded
// type not listed. Members are matched by name (the test has no type
// information), using call syntax to tell a method from a field, so a
// model method that happens to share a forbidden name fails too and must
// be renamed.
func TestNoSharedAddressMath(t *testing.T) {
	// forbidden{Fields,Methods} map a member name to the member it names.
	forbiddenFields, forbiddenMethods := map[string]string{}, map[string]string{}
	allowedField := map[string]bool{}
	for _, g := range guardedTypes {
		allowed := map[string]bool{}
		for _, n := range g.allowed {
			allowed[n] = true
		}
		fields, methods := typeMembers(t, g.dir, g.name)
		if len(fields) == 0 || len(methods) == 0 {
			t.Fatalf("found no fields or no methods of %s in %s", g.name, g.dir)
		}
		for n := range fields {
			if allowed[n] {
				allowedField[n] = true
			} else {
				forbiddenFields[n] = g.name + "." + n
			}
		}
		for n := range methods {
			if !allowed[n] {
				forbiddenMethods[n] = g.name + "." + n
			}
		}
	}

	fset := token.NewFileSet()
	for _, f := range parseDir(t, fset, ".") {
		pkgs := map[string]map[string]bool{} // local import name -> allowed names
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, "gsdram/") {
				continue
			}
			allowed, ok := allowedImports[path]
			if !ok || imp.Name != nil {
				t.Errorf("%s: imports %s", fset.Position(imp.Pos()), imp.Path.Value)
				continue
			}
			pkgs[filepath.Base(path)] = allowed
		}
		called := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
					called[sel] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name, pos := sel.Sel.Name, fset.Position(sel.Pos())
			if id, ok := sel.X.(*ast.Ident); ok {
				if allowed, isPkg := pkgs[id.Name]; isPkg {
					if !allowed[name] {
						t.Errorf("%s: uses %s.%s", pos, id.Name, name)
					}
					return true
				}
			}
			// Without a call, an allowed field of one type (Spec.LineBytes)
			// outranks a forbidden member of the same name on the other
			// (the method Params.LineBytes).
			switch {
			case called[sel] && forbiddenMethods[name] != "":
				t.Errorf("%s: calls %s", pos, forbiddenMethods[name])
			case !called[sel] && !allowedField[name] && forbiddenFields[name] != "":
				t.Errorf("%s: uses %s", pos, forbiddenFields[name])
			case !called[sel] && !allowedField[name] && forbiddenMethods[name] != "":
				t.Errorf("%s: takes the method value %s", pos, forbiddenMethods[name])
			}
			return true
		})
	}
}
