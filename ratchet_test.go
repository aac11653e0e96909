package domino_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The seams as ratchets: rules about the code's shape that the build
// enforces, so a change that breaks one fails here instead of waiting for
// someone to notice. Each rule reads the imports of every non-test Go file
// in the repository.

// sourceImports maps every non-test Go file under the repository root
// (slash-separated, relative) to its import paths. testdata and hidden
// directories are skipped.
func sourceImports(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		var imports []string
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			imports = append(imports, p)
		}
		out[filepath.ToSlash(path)] = imports
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no Go files found")
	}
	return out
}

// TestRatchets checks, for every non-test file:
//   - it does not import unsafe;
//   - under internal/store, it imports nothing from internal/ but nsf and vfs;
//   - under internal/nsf, it imports nothing from internal/.
func TestRatchets(t *testing.T) {
	const internal = "repro/internal/"
	inPackage := func(file, dir string) bool { return filepath.ToSlash(filepath.Dir(file)) == dir }
	allowed := map[string][]string{
		"internal/store": {internal + "nsf", internal + "vfs"},
		"internal/nsf":   nil,
	}
	files := sourceImports(t)
	for file, imports := range files {
		for _, imp := range imports {
			if imp == "unsafe" {
				t.Errorf("%s imports unsafe", file)
			}
			for dir, ok := range allowed {
				if inPackage(file, dir) && strings.HasPrefix(imp, internal) && !slices.Contains(ok, imp) {
					t.Errorf("%s imports %s; %s may import only %v from internal/", file, imp, dir, ok)
				}
			}
		}
	}
	t.Logf("%d non-test files checked", len(files))
}
