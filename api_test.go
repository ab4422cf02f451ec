package dynamo

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.txt from the current surface")

// TestPublicAPISurface locks the package's exported surface: every
// exported function, method, type, const and var, with signatures, must
// match testdata/api.txt. An intentional API change regenerates the
// golden file with `go test -run TestPublicAPISurface -update .` and the
// diff then documents the change in review.
func TestPublicAPISurface(t *testing.T) {
	got := strings.Join(apiSurface(t), "\n") + "\n"
	const golden = "testdata/api.txt"
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("exported API surface changed (run with -update if intentional):\n%s",
			surfaceDiff(string(want), got))
	}
}

// apiSurface parses the package's non-test files and renders one line per
// exported declaration, sorted.
func apiSurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["dynamo"]
	if !ok {
		t.Fatalf("package dynamo not found (have %v)", pkgs)
	}

	render := func(node any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}

	var lines []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				recv := ""
				if d.Recv != nil {
					rt := render(d.Recv.List[0].Type)
					if !ast.IsExported(strings.TrimPrefix(rt, "*")) {
						continue
					}
					recv = "(" + rt + ") "
				}
				sig := strings.TrimPrefix(render(d.Type), "func")
				lines = append(lines, "func "+recv+d.Name.Name+sig)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						if sp.Assign != token.NoPos {
							lines = append(lines, "type "+sp.Name.Name+" = "+render(sp.Type))
							continue
						}
						switch st := sp.Type.(type) {
						case *ast.StructType:
							lines = append(lines, "type "+sp.Name.Name+" struct")
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									if n.IsExported() {
										lines = append(lines, fmt.Sprintf("  %s.%s %s",
											sp.Name.Name, n.Name, render(fld.Type)))
									}
								}
							}
						case *ast.InterfaceType:
							lines = append(lines, "type "+sp.Name.Name+" interface")
						default:
							lines = append(lines, "type "+sp.Name.Name+" "+render(sp.Type))
						}
					case *ast.ValueSpec:
						kw := "var"
						if d.Tok == token.CONST {
							kw = "const"
						}
						for _, n := range sp.Names {
							if n.IsExported() {
								lines = append(lines, kw+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// TestNoNewDeprecatedSymbols freezes the deprecation set: the symbols
// below may stay deprecated, but no release may deprecate anything else
// without updating this list (and writing the migration note that
// justifies it). The list is empty: the package carries no deprecated
// symbols.
func TestNoNewDeprecatedSymbols(t *testing.T) {
	allowed := map[string]bool{}
	got := deprecatedSymbols(t)
	for _, name := range got {
		if !allowed[name] {
			t.Errorf("new deprecated symbol %q: either undeprecate it or extend the freeze list deliberately", name)
		}
	}
	seen := map[string]bool{}
	for _, name := range got {
		seen[name] = true
	}
	for name := range allowed {
		if !seen[name] {
			t.Errorf("symbol %q no longer deprecated (or gone): shrink the freeze list", name)
		}
	}
}

// deprecatedSymbols lists every exported package-level symbol whose doc
// comment carries a "Deprecated:" marker.
func deprecatedSymbols(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["dynamo"]
	if !ok {
		t.Fatal("package dynamo not found")
	}
	deprecated := func(cg *ast.CommentGroup) bool {
		return cg != nil && strings.Contains(cg.Text(), "Deprecated:")
	}
	var names []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() && deprecated(d.Doc) {
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					doc := d.Doc
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Doc != nil {
							doc = sp.Doc
						}
						if sp.Name.IsExported() && deprecated(doc) {
							names = append(names, sp.Name.Name)
						}
					case *ast.ValueSpec:
						if sp.Doc != nil {
							doc = sp.Doc
						}
						for _, n := range sp.Names {
							if n.IsExported() && deprecated(doc) {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// surfaceDiff renders the line-level difference between two surfaces.
func surfaceDiff(want, got string) string {
	wantSet := map[string]bool{}
	for _, l := range strings.Split(want, "\n") {
		wantSet[l] = true
	}
	gotSet := map[string]bool{}
	for _, l := range strings.Split(got, "\n") {
		gotSet[l] = true
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if l != "" && !gotSet[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if l != "" && !wantSet[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
