package beyond_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestDocIdentifiersResolve is `make doclint`: every back-quoted
// Go-style identifier in DESIGN.md and README.md — mixed case, five
// characters or more, optionally package- or type-qualified and
// followed by () — must name a declaration in the tree, or sit on a
// line that marks it as gone (deleted, removed, renamed or replaced).
// A declaration is a package-level name, a method, a struct field or
// interface method, or a struct field's JSON name. A qualified name
// resolves part by part: after a package name, the next part must be
// declared in that package.
func TestDocIdentifiersResolve(t *testing.T) {
	decls := goDeclarations(t)
	fence := regexp.MustCompile("(?ms)^```.*?^```")
	span := regexp.MustCompile("`([^`\n]+)`")
	ident := regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)
	gone := regexp.MustCompile(`(?i)\b(deleted|removed|renamed|replaced)\b`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fence.ReplaceAllStringFunc(string(b), func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n"))
		})
		for i, line := range strings.Split(text, "\n") {
			if gone.MatchString(line) {
				continue
			}
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				name := m[1]
				if !ident.MatchString(name) || len(name) < 5 ||
					strings.ToLower(name) == name || strings.ToUpper(name) == name {
					continue
				}
				if !decls.resolve(strings.TrimSuffix(name, "()")) {
					t.Errorf("%s:%d: `%s` names no declaration in the tree", doc, i+1, name)
				}
			}
		}
	}
}

// declSet holds the tree's declared names: by package name, and over
// every package.
type declSet struct {
	pkg map[string]map[string]bool
	all map[string]bool
}

// stdPaths maps the standard packages the documents name by a last
// element other than their path.
var stdPaths = map[string]string{"atomic": "sync/atomic", "json": "encoding/json", "binary": "encoding/binary"}

func (d declSet) resolve(name string) bool {
	parts := strings.Split(name, ".")
	if len(parts) > 1 {
		in, ok := d.pkg[parts[0]]
		if !ok {
			in = stdDeclarations(parts[0])
		}
		if in != nil {
			return in[parts[1]] && d.resolve(strings.Join(parts[2:], "."))
		}
	}
	for _, p := range parts {
		if p != "" && !d.all[p] {
			return false
		}
	}
	return true
}

// stdDeclarations parses standard package name's sources for its
// declarations; nil when the standard library has no such package.
func stdDeclarations(name string) map[string]bool {
	path, ok := stdPaths[name]
	if !ok {
		path = name
	}
	dir := filepath.Join(runtime.GOROOT(), "src", filepath.FromSlash(path))
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	if len(files) == 0 {
		return nil
	}
	d := declSet{pkg: map[string]map[string]bool{}, all: map[string]bool{}}
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			_ = d.parse(token.NewFileSet(), f)
		}
	}
	return d.all
}

// goDeclarations parses every Go file of the tree, tests included.
func goDeclarations(t *testing.T) declSet {
	t.Helper()
	d := declSet{pkg: map[string]map[string]bool{}, all: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && path != "." && strings.HasPrefix(e.Name(), "."):
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		return d.parse(fset, path)
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// parse adds the declarations of one Go file.
func (d declSet) parse(fset *token.FileSet, path string) error {
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if d.pkg[pkg] == nil {
		d.pkg[pkg] = map[string]bool{}
	}
	add := func(id *ast.Ident) {
		d.pkg[pkg][id.Name] = true
		d.all[id.Name] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			add(x.Name)
		case *ast.TypeSpec:
			add(x.Name)
		case *ast.ValueSpec:
			for _, id := range x.Names {
				add(id)
			}
		case *ast.Field:
			for _, id := range x.Names {
				add(id)
			}
			if x.Tag != nil {
				tag := reflect.StructTag(strings.Trim(x.Tag.Value, "`"))
				if j, _, _ := strings.Cut(tag.Get("json"), ","); j != "" && j != "-" {
					d.all[j] = true
				}
			}
		}
		return true
	})
	return nil
}
