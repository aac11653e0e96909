package domino_test

import (
	"go/ast"
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
// someone to notice. Each rule reads the imports, or the calls, of every
// non-test Go file it covers.

// sourceFiles parses every non-test Go file under root (slash-separated
// paths relative to the repository root) with the given mode, or, with
// tests set, every test file. testdata and hidden directories are skipped.
func sourceFiles(t *testing.T, root string, mode parser.Mode, tests bool) map[string]*ast.File {
	t.Helper()
	out := map[string]*ast.File{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(path)] = f
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

// sourceImports maps every non-test Go file in the repository to its
// import paths.
func sourceImports(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for path, f := range sourceFiles(t, ".", parser.ImportsOnly, false) {
		var imports []string
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			imports = append(imports, p)
		}
		out[path] = imports
	}
	return out
}

// TestRatchets checks, for every non-test file:
//   - it does not import unsafe;
//   - under internal/store, it imports nothing from internal/ but nsf and vfs;
//   - under internal/nsf, it imports nothing from internal/;
//   - under internal/ft, it imports nothing from internal/ but nsf and acl;
//   - outside internal/core and the root facade, it does not import
//     internal/changefeed: a consumer outside core hears of commits through
//     core's OnChange or Notify.
func TestRatchets(t *testing.T) {
	const internal = "repro/internal/"
	inPackage := func(file, dir string) bool { return filepath.ToSlash(filepath.Dir(file)) == dir }
	allowed := map[string][]string{
		"internal/store": {internal + "nsf", internal + "vfs"},
		"internal/nsf":   nil,
		"internal/ft":    {internal + "nsf", internal + "acl"},
	}
	files := sourceImports(t)
	for file, imports := range files {
		for _, imp := range imports {
			if imp == "unsafe" {
				t.Errorf("%s imports unsafe", file)
			}
			if imp == internal+"changefeed" && !inPackage(file, "internal/core") && !inPackage(file, ".") {
				t.Errorf("%s imports %s; only internal/core and the root package may", file, imp)
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

// sleepAllowed lists the non-test files under internal/ that may call
// time.Sleep, each for a reason of its own: injected latency, the group
// commit window, the wire client's retry backoff, and the checker's
// polling waits. Everything else waits on an event, a timer it can stop,
// or a condition.
var sleepAllowed = []string{
	"internal/faultnet/faultnet.go",
	"internal/store/groupcommit.go",
	"internal/wire/client.go",
	"internal/check/model.go",
	"internal/check/check.go",
}

// sleepCalls counts the time.Sleep calls in f.
func sleepCalls(f *ast.File) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if sel, ok := node.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" {
				n++
			}
		}
		return true
	})
	return n
}

// TestNoStraySleep checks that no non-test file under internal/ outside
// sleepAllowed calls time.Sleep.
func TestNoStraySleep(t *testing.T) {
	files := sourceFiles(t, "internal", parser.SkipObjectResolution, false)
	for path, f := range files {
		if !slices.Contains(sleepAllowed, path) && sleepCalls(f) > 0 {
			t.Errorf("%s calls time.Sleep; only %v may", path, sleepAllowed)
		}
	}
	t.Logf("%d non-test files under internal/ checked", len(files))
}

// testSleepCeiling is how many time.Sleep calls the test files outside
// bench/ make. A test that waits on an event instead of a sleep lowers it;
// nothing raises it.
const testSleepCeiling = 31

// TestTestSleepCeiling holds the test files' time.Sleep calls at
// testSleepCeiling, and asks for the ceiling to be lowered when they fall.
func TestTestSleepCeiling(t *testing.T) {
	n := 0
	for path, f := range sourceFiles(t, ".", parser.SkipObjectResolution, true) {
		if !strings.HasPrefix(path, "bench/") {
			n += sleepCalls(f)
		}
	}
	switch {
	case n > testSleepCeiling:
		t.Errorf("test files call time.Sleep %d times, over the ceiling of %d: wait on an event instead", n, testSleepCeiling)
	case n < testSleepCeiling:
		t.Errorf("test files call time.Sleep %d times: lower testSleepCeiling to %d", n, n)
	}
}
