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
//   - it imports internal/faultfs or internal/faultnet only under cmd/, and
//     internal/check only under cmd/ or internal/mesh;
//   - under internal/store, no exported Store method returns a *nsf.Note or
//     takes a callback with a *nsf.Note parameter: the store serves
//     records, and decoding them is its callers' business.
func TestRatchets(t *testing.T) {
	const internal = "repro/internal/"
	inPackage := func(file, dir string) bool { return filepath.ToSlash(filepath.Dir(file)) == dir }
	allowed := map[string][]string{
		"internal/store": {internal + "nsf", internal + "vfs"},
		"internal/nsf":   nil,
		"internal/ft":    {internal + "nsf", internal + "acl"},
	}
	importedOnlyUnder := map[string][]string{
		internal + "faultfs":  {"cmd/"},
		internal + "faultnet": {"cmd/"},
		internal + "check":    {"cmd/", "internal/mesh/"},
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
			if dirs, ok := importedOnlyUnder[imp]; ok && !slices.ContainsFunc(dirs, func(d string) bool { return strings.HasPrefix(file, d) }) {
				t.Errorf("%s imports %s; only files under %v may", file, imp, dirs)
			}
		}
	}
	t.Logf("%d non-test files checked", len(files))

	for file, f := range sourceFiles(t, "internal/store", parser.SkipObjectResolution, false) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Name.IsExported() && isStoreMethod(fn) && lendsNote(fn.Type) {
				t.Errorf("%s: Store.%s hands out a *nsf.Note; the store serves records", file, fn.Name.Name)
			}
		}
	}
}

// isStoreMethod reports whether fn is a method of store.Store.
func isStoreMethod(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.Name == "Store"
}

// lendsNote reports whether a function of type ft returns a *nsf.Note or
// takes a callback with a *nsf.Note parameter.
func lendsNote(ft *ast.FuncType) bool {
	isNote := func(e ast.Expr) bool {
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "nsf" && sel.Sel.Name == "Note"
	}
	if ft.Results != nil && slices.ContainsFunc(ft.Results.List, func(r *ast.Field) bool { return isNote(r.Type) }) {
		return true
	}
	return slices.ContainsFunc(ft.Params.List, func(p *ast.Field) bool {
		cb, ok := p.Type.(*ast.FuncType)
		return ok && slices.ContainsFunc(cb.Params.List, func(q *ast.Field) bool { return isNote(q.Type) })
	})
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

// calls counts the references to pkg.name (time.Sleep, log.Printf) in f.
func calls(f *ast.File, pkg, name string) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if sel, ok := node.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
				n++
			}
		}
		return true
	})
	return n
}

// sleepCalls counts the time.Sleep calls in f.
func sleepCalls(f *ast.File) int { return calls(f, "time", "Sleep") }

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
const testSleepCeiling = 28

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

// logPrintfCeiling is how many log.Printf calls the non-test files outside
// bench/ make. A problem reported where a caller or an operator can see it
// (an error, a counter, an event in log.nsf) lowers it; nothing raises it.
const logPrintfCeiling = 22

// TestLogPrintfCeiling holds the non-test files' log.Printf calls at
// logPrintfCeiling, and asks for the ceiling to be lowered when they fall.
func TestLogPrintfCeiling(t *testing.T) {
	n := 0
	for path, f := range sourceFiles(t, ".", parser.SkipObjectResolution, false) {
		if !strings.HasPrefix(path, "bench/") {
			n += calls(f, "log", "Printf")
		}
	}
	switch {
	case n > logPrintfCeiling:
		t.Errorf("non-test files call log.Printf %d times, over the ceiling of %d: return or count the problem instead", n, logPrintfCeiling)
	case n < logPrintfCeiling:
		t.Errorf("non-test files call log.Printf %d times: lower logPrintfCeiling to %d", n, n)
	}
}

// statsTypeCeiling is how many struct types named …Stats or …Health the
// non-test files outside bench/ declare.
const statsTypeCeiling = 12

// TestStatsTypeCeiling holds the non-test files' …Stats and …Health struct
// declarations at statsTypeCeiling, and asks for the ceiling to be lowered
// when they fall.
func TestStatsTypeCeiling(t *testing.T) {
	n := 0
	for path, f := range sourceFiles(t, ".", parser.SkipObjectResolution, false) {
		if strings.HasPrefix(path, "bench/") {
			continue
		}
		ast.Inspect(f, func(node ast.Node) bool {
			spec, ok := node.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if _, isStruct := spec.Type.(*ast.StructType); isStruct &&
				(strings.HasSuffix(spec.Name.Name, "Stats") || strings.HasSuffix(spec.Name.Name, "Health")) {
				n++
			}
			return false
		})
	}
	switch {
	case n > statsTypeCeiling:
		t.Errorf("non-test files declare %d …Stats/…Health struct types, over the ceiling of %d: extend one instead", n, statsTypeCeiling)
	case n < statsTypeCeiling:
		t.Errorf("non-test files declare %d …Stats/…Health struct types: lower statsTypeCeiling to %d", n, n)
	}
}
