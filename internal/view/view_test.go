package view

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/formula"
	"repro/internal/nsf"
)

func doc(items map[string]any) *nsf.Note {
	n := nsf.NewNote(nsf.ClassDocument)
	for k, v := range items {
		switch v := v.(type) {
		case string:
			n.SetText(k, v)
		case float64:
			n.SetNumber(k, v)
		case int:
			n.SetNumber(k, float64(v))
		case nsf.Timestamp:
			n.SetTime(k, v)
		default:
			panic(fmt.Sprintf("bad item type %T", v))
		}
	}
	return n
}

func mustDef(t *testing.T, name, sel string, cols ...Column) *Definition {
	t.Helper()
	def, err := NewDefinition(name, sel, cols...)
	if err != nil {
		t.Fatalf("NewDefinition: %v", err)
	}
	return def
}

func subjects(ix *Index, col int) []string {
	var out []string
	for _, e := range ix.Entries() {
		out = append(out, e.ColumnText(col))
	}
	return out
}

func TestIndexSortsByTextColumn(t *testing.T) {
	def := mustDef(t, "bysubj", "SELECT @All",
		Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	ix := NewIndex(def)
	for _, s := range []string{"pear", "Apple", "banana", "apple 2"} {
		if _, err := ix.Update(doc(map[string]any{"Subject": s}), nil); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	got := subjects(ix, 0)
	want := []string{"Apple", "apple 2", "banana", "pear"} // case-insensitive
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestIndexSortsNumbersNumerically(t *testing.T) {
	def := mustDef(t, "bynum", "SELECT @All",
		Column{Title: "N", ItemName: "N", Sorted: true})
	ix := NewIndex(def)
	for _, n := range []float64{10, 2, -5, 0, 3.5, -0.1} {
		ix.Update(doc(map[string]any{"N": n}), nil)
	}
	got := subjects(ix, 0)
	want := []string{"-5", "-0.1", "0", "2", "3.5", "10"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestIndexDescendingAndMultiColumn(t *testing.T) {
	def := mustDef(t, "multi", "SELECT @All",
		Column{Title: "Cat", ItemName: "Cat", Sorted: true},
		Column{Title: "N", ItemName: "N", Sorted: true, Descending: true})
	ix := NewIndex(def)
	for _, d := range []struct {
		cat string
		n   float64
	}{{"b", 1}, {"a", 2}, {"a", 9}, {"b", 5}, {"a", 4}} {
		ix.Update(doc(map[string]any{"Cat": d.cat, "N": d.n}), nil)
	}
	var got []string
	for _, e := range ix.Entries() {
		got = append(got, e.ColumnText(0)+e.ColumnText(1))
	}
	want := []string{"a9", "a4", "a2", "b5", "b1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestSelectionFiltersAndStubsLeave(t *testing.T) {
	def := mustDef(t, "memos", `SELECT Form = "Memo"`,
		Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	ix := NewIndex(def)
	memo := doc(map[string]any{"Form": "Memo", "Subject": "in"})
	other := doc(map[string]any{"Form": "Task", "Subject": "out"})
	ix.Update(memo, nil)
	ix.Update(other, nil)
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	// The memo becomes a stub: it must leave the view.
	memo.Flags |= nsf.FlagDeleted
	changed, err := ix.Update(memo, nil)
	if err != nil || !changed {
		t.Fatalf("stub update: %v %v", changed, err)
	}
	if ix.Len() != 0 {
		t.Errorf("stub still in view")
	}
	// Reclassifying a doc out of the selection removes it too.
	ix.Update(other, nil)
	if ix.Len() != 0 {
		t.Errorf("unselected doc entered view")
	}
}

func TestIncrementalRepositioning(t *testing.T) {
	def := mustDef(t, "bysubj", "SELECT @All",
		Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	ix := NewIndex(def)
	n := doc(map[string]any{"Subject": "mmm"})
	ix.Update(n, nil)
	ix.Update(doc(map[string]any{"Subject": "aaa"}), nil)
	ix.Update(doc(map[string]any{"Subject": "zzz"}), nil)
	n.SetText("Subject", "zzzz")
	ix.Update(n, nil)
	got := subjects(ix, 0)
	want := []string{"aaa", "zzz", "zzzz"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after reposition: %v", got)
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d after update of existing doc", ix.Len())
	}
}

func TestFormulaColumns(t *testing.T) {
	def := mustDef(t, "computed", "SELECT @All",
		Column{Title: "Upper", Formula: formula.MustCompile(`@UpperCase(Subject)`), Sorted: true},
		Column{Title: "Len", Formula: formula.MustCompile(`@Length(Subject)`)})
	ix := NewIndex(def)
	ix.Update(doc(map[string]any{"Subject": "hello"}), nil)
	e := ix.Entries()[0]
	if e.ColumnText(0) != "HELLO" || e.ColumnText(1) != "5" {
		t.Errorf("computed columns = %q, %q", e.ColumnText(0), e.ColumnText(1))
	}
}

func TestRebuildMatchesIncremental(t *testing.T) {
	def := mustDef(t, "both", `SELECT Priority > 2`,
		Column{Title: "Cat", ItemName: "Cat", Sorted: true},
		Column{Title: "Subject", ItemName: "Subject", Sorted: true},
		Column{Title: "Share", Formula: formula.MustCompile("Priority / Parts")})
	inc := NewIndex(def)
	full := NewIndex(def)
	rng := rand.New(rand.NewSource(5))
	var notes []*nsf.Note
	for i := 0; i < 500; i++ {
		n := doc(map[string]any{
			"Cat":      fmt.Sprintf("cat%d", rng.Intn(5)),
			"Subject":  fmt.Sprintf("subject %04d", rng.Intn(1000)),
			"Priority": float64(rng.Intn(6)),
			"Parts":    1.0,
		})
		notes = append(notes, n)
		if _, err := inc.Update(n, nil); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	// A note the Share column fails on (division by zero) leaves the
	// view it was in, and a rebuild leaves it out.
	bad := notes[rng.Intn(len(notes))]
	bad.SetNumber("Priority", 5)
	if _, err := inc.Update(bad, nil); err != nil {
		t.Fatalf("Update: %v", err)
	}
	bad.SetNumber("Parts", 0)
	if _, err := inc.Update(bad, nil); err == nil {
		t.Fatal("Update of a note the Share column fails on returned no error")
	}
	err := full.Rebuild(nil, func(fn func(*nsf.Note) bool) error {
		for _, n := range notes {
			if !fn(n) {
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	a, b := inc.Entries(), full.Entries()
	if len(a) != len(b) {
		t.Fatalf("incremental %d entries, rebuild %d", len(a), len(b))
	}
	for i := range a {
		if a[i].UNID != b[i].UNID {
			t.Fatalf("entry %d differs: %v vs %v", i, a[i].UNID, b[i].UNID)
		}
	}
}

func TestCategorizedRows(t *testing.T) {
	def := mustDef(t, "cats", "SELECT @All",
		Column{Title: "Cat", ItemName: "Cat", Categorized: true},
		Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	ix := NewIndex(def)
	for _, d := range []struct{ cat, subj string }{
		{"fruit", "apple"}, {"fruit", "pear"}, {"veg", "carrot"},
	} {
		ix.Update(doc(map[string]any{"Cat": d.cat, "Subject": d.subj}), nil)
	}
	rows := ix.Rows(nil)
	var render []string
	for _, r := range rows {
		if r.Entry == nil {
			render = append(render, "["+r.Category+"]")
		} else {
			render = append(render, r.Entry.ColumnText(1))
		}
	}
	want := []string{"[fruit]", "apple", "pear", "[veg]", "carrot"}
	if !reflect.DeepEqual(render, want) {
		t.Errorf("rows = %v, want %v", render, want)
	}
}

func TestRowsFilterSuppressesEmptyCategories(t *testing.T) {
	def := mustDef(t, "cats", "SELECT @All",
		Column{Title: "Cat", ItemName: "Cat", Categorized: true},
		Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	ix := NewIndex(def)
	ix.Update(doc(map[string]any{"Cat": "secret", "Subject": "hidden"}), nil)
	ix.Update(doc(map[string]any{"Cat": "open", "Subject": "visible"}), nil)
	rows := ix.Rows(func(e *Entry) bool { return e.ColumnText(1) != "hidden" })
	for _, r := range rows {
		if r.Category == "secret" {
			t.Error("empty category emitted")
		}
		if r.Entry != nil && r.Entry.ColumnText(1) == "hidden" {
			t.Error("filtered entry emitted")
		}
	}
}

func TestReadersCarriedOnEntries(t *testing.T) {
	def := mustDef(t, "v", "SELECT @All",
		Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	ix := NewIndex(def)
	n := doc(map[string]any{"Subject": "restricted"})
	n.SetWithFlags("DocReaders", nsf.TextValue("alice"), nsf.FlagReaders)
	ix.Update(n, nil)
	e := ix.Entries()[0]
	if !reflect.DeepEqual(e.Access, []string{"alice"}) {
		t.Errorf("Access = %v", e.Access)
	}
}

func TestMixedTypeCollation(t *testing.T) {
	def := mustDef(t, "mixed", "SELECT @All",
		Column{Title: "V", ItemName: "V", Sorted: true})
	ix := NewIndex(def)
	ix.Update(doc(map[string]any{"V": "text"}), nil)
	ix.Update(doc(map[string]any{"V": 42}), nil)
	n := nsf.NewNote(nsf.ClassDocument) // missing V entirely
	ix.Update(n, nil)
	got := subjects(ix, 0)
	// empty < numbers < text
	if got[0] != "" || got[1] != "42" || got[2] != "text" {
		t.Errorf("mixed collation = %q", got)
	}
}

func TestLargeViewOrderIsTotal(t *testing.T) {
	def := mustDef(t, "big", "SELECT @All",
		Column{Title: "K", ItemName: "K", Sorted: true})
	ix := NewIndex(def)
	rng := rand.New(rand.NewSource(11))
	var want []string
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%06d", rng.Intn(100000))
		want = append(want, k)
		ix.Update(doc(map[string]any{"K": k}), nil)
	}
	sort.Strings(want)
	got := subjects(ix, 0)
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("first divergence at %d: %q vs %q", i, got[i], want[i])
			}
		}
		t.Fatalf("length mismatch %d vs %d", len(got), len(want))
	}
}

func TestUpdateRemoveRoundTrip(t *testing.T) {
	def := mustDef(t, "v", "SELECT @All",
		Column{Title: "S", ItemName: "S", Sorted: true})
	ix := NewIndex(def)
	n := doc(map[string]any{"S": strings.Repeat("x", 10)})
	ix.Update(n, nil)
	if !ix.Remove(n.OID.UNID) {
		t.Fatal("Remove returned false")
	}
	if ix.Remove(n.OID.UNID) {
		t.Fatal("double Remove returned true")
	}
	if ix.Len() != 0 {
		t.Fatal("index not empty")
	}
}
