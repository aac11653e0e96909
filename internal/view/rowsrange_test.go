package view

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/nsf"
)

// TestRowsRange pins the pagination primitive the wire view op serves
// from: stable [start, start+limit) slices over the full rendering with
// the grand-total row excluded, so row indices do not shift between pages.
func TestRowsRange(t *testing.T) {
	def := mustDef(t, "bycat", "SELECT @All",
		Column{Title: "Cat", ItemName: "Cat", Categorized: true},
		Column{Title: "N", ItemName: "N", Totals: true})
	ix := NewIndex(def)
	for i := 0; i < 17; i++ {
		d := doc(map[string]any{"Cat": fmt.Sprintf("c%d", i%3), "N": i})
		if _, err := ix.Update(d, nil); err != nil {
			t.Fatal(err)
		}
	}

	full := ix.Rows(nil)
	if n := len(full); n == 0 || !full[n-1].GrandTotal {
		t.Fatal("totals view did not render a grand-total row")
	}
	want := full[:len(full)-1] // 17 docs + 3 category headers

	all, total := ix.RowsRange(nil, 0, 0)
	if total != len(want) || len(all) != len(want) {
		t.Fatalf("RowsRange(0,0) = %d rows, total %d; want %d", len(all), total, len(want))
	}
	for _, r := range all {
		if r.GrandTotal {
			t.Error("grand-total row leaked into a page")
		}
	}

	// Concatenated fixed-size pages reproduce the full rendering.
	var paged []Row
	for start := 0; start < total; {
		rows, tot := ix.RowsRange(nil, start, 5)
		if tot != total {
			t.Errorf("total drifted: %d then %d", total, tot)
		}
		if len(rows) == 0 {
			t.Fatal("empty page before end")
		}
		paged = append(paged, rows...)
		start += len(rows)
	}
	if len(paged) != total {
		t.Fatalf("paged %d rows, want %d", len(paged), total)
	}
	for i := range paged {
		if rowID(paged[i]) != rowID(want[i]) {
			t.Errorf("row %d: paged %q, full %q", i, rowID(paged[i]), rowID(want[i]))
		}
	}

	// Out-of-range and clamped starts.
	if rows, tot := ix.RowsRange(nil, total+10, 5); len(rows) != 0 || tot != total {
		t.Errorf("past-end range = %d rows, total %d", len(rows), tot)
	}
	if rows, _ := ix.RowsRange(nil, -4, 3); len(rows) != 3 {
		t.Errorf("negative start = %d rows, want 3", len(rows))
	}

	// The allow filter shrinks both the rows and the reported total.
	deny := func(e *Entry) bool { return e.ColumnText(1) != "0" }
	filtered, ftot := ix.RowsRange(deny, 0, 0)
	if ftot >= total || len(filtered) != ftot {
		t.Errorf("filtered range = %d rows, total %d (unfiltered %d)", len(filtered), ftot, total)
	}
}

func rowID(r Row) string {
	if r.Entry == nil {
		return "cat:" + r.Category
	}
	return "doc:" + r.Entry.UNID.String()
}

// TestRowsRangeEqualsRowsWindow holds the windowed render to the licence
// the view-update papers give it: every page equals the same window of the
// full rendering, with the same total, for a flat view, a flat view with
// restricted entries under an allow filter, a categorized view with totals,
// and a response hierarchy — after random Update/Remove traffic and again
// after a Rebuild.
func TestRowsRangeEqualsRowsWindow(t *testing.T) {
	subject := Column{Title: "Subject", ItemName: "Subject", Sorted: true}
	threads := mustDef(t, "threads", "SELECT @All", subject)
	threads.ShowResponses = true
	cases := []struct {
		name  string
		def   *Definition
		allow func(*Entry) bool
	}{
		{"flat", mustDef(t, "flat", "SELECT @All", subject), nil},
		{"flat restricted", mustDef(t, "flat", "SELECT @All", subject), readableBy("alice")},
		{"categorized totals", mustDef(t, "cat", "SELECT @All",
			Column{Title: "Cat", ItemName: "Cat", Categorized: true},
			Column{Title: "Sub", ItemName: "Sub", Categorized: true},
			subject,
			Column{Title: "N", ItemName: "N", Totals: true}), readableBy("alice")},
		{"responses", threads, readableBy("alice")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			ix := NewIndex(tc.def)
			var notes []*nsf.Note
			for op := 0; op < 400; op++ {
				switch r := rng.Intn(10); {
				case r < 6 || len(notes) == 0:
					n := randomDoc(rng, notes, tc.name != "flat")
					notes = append(notes, n)
					mustUpdate(t, ix, n)
				case r < 8: // move, or edit in place, restricting or releasing
					n := notes[rng.Intn(len(notes))]
					if rng.Intn(2) == 0 {
						n.SetText("Subject", fmt.Sprintf("s%03d", rng.Intn(300)))
					}
					n.SetNumber("N", float64(rng.Intn(9)))
					if tc.name != "flat" && !n.Remove("DocReaders") {
						n.SetWithFlags("DocReaders", nsf.TextValue("bob"), nsf.FlagReaders)
					}
					mustUpdate(t, ix, n)
				default:
					i := rng.Intn(len(notes))
					ix.Remove(notes[i].OID.UNID)
					notes = append(notes[:i], notes[i+1:]...)
				}
			}
			checkWindows(t, "incremental", ix, tc.allow)
			err := ix.Rebuild(nil, func(fn func(*nsf.Note) bool) error {
				for _, n := range notes {
					if !fn(n) {
						break
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			checkWindows(t, "rebuilt", ix, tc.allow)
		})
	}
}

// readableBy is the access filter core applies: an entry without an access
// list is visible, a restricted one only to a name on it.
func readableBy(user string) func(*Entry) bool {
	return func(e *Entry) bool { return len(e.Access) == 0 || slices.Contains(e.Access, user) }
}

func mustUpdate(t *testing.T, ix *Index, n *nsf.Note) {
	t.Helper()
	if _, err := ix.Update(n, nil); err != nil {
		t.Fatal(err)
	}
}

// randomDoc builds a document with random categories, subject and total;
// with restrict, some are restricted to alice or bob and some are
// responses to an earlier document.
func randomDoc(rng *rand.Rand, earlier []*nsf.Note, restrict bool) *nsf.Note {
	n := doc(map[string]any{
		"Cat":     fmt.Sprintf("c%d", rng.Intn(4)),
		"Sub":     fmt.Sprintf("k%d", rng.Intn(3)),
		"Subject": fmt.Sprintf("s%03d", rng.Intn(300)),
		"N":       rng.Intn(9),
	})
	if restrict && rng.Intn(4) == 0 {
		n.SetWithFlags("DocReaders", nsf.TextValue([]string{"alice", "bob"}[rng.Intn(2)]), nsf.FlagReaders)
	}
	if restrict && len(earlier) > 0 && rng.Intn(3) == 0 {
		n.SetText("$Ref", earlier[rng.Intn(len(earlier))].OID.UNID.String())
	}
	return n
}

// checkWindows compares RowsRange over a grid of windows with the same
// window of Rows minus its grand-total row.
func checkWindows(t *testing.T, phase string, ix *Index, allow func(*Entry) bool) {
	t.Helper()
	restricted := 0
	for _, e := range ix.Entries() {
		restricted += e.restrictedCount()
	}
	if ix.restricted != restricted {
		t.Fatalf("%s: the index counts %d restricted entries, it holds %d", phase, ix.restricted, restricted)
	}
	full := ix.Rows(allow)
	if n := len(full); n > 0 && full[n-1].GrandTotal {
		full = full[:n-1]
	}
	n := len(full)
	for _, start := range []int{-5, 0, 1, 7, n / 2, n - 3, n - 1, n, n + 10} {
		for _, limit := range []int{0, 1, 5, 100, n + 50} {
			rows, total := ix.RowsRange(allow, start, limit)
			lo := min(max(start, 0), n)
			hi := n
			if limit > 0 {
				hi = min(lo+limit, n)
			}
			if total != n {
				t.Fatalf("%s: RowsRange(%d, %d) total %d, want %d", phase, start, limit, total, n)
			}
			if len(rows) != hi-lo {
				t.Fatalf("%s: RowsRange(%d, %d) = %d rows, want %d", phase, start, limit, len(rows), hi-lo)
			}
			for i := range rows {
				if !reflect.DeepEqual(rows[i], full[lo+i]) {
					t.Fatalf("%s: RowsRange(%d, %d) row %d = %+v, want %+v", phase, start, limit, i, rows[i], full[lo+i])
				}
			}
		}
	}
}

// TestViewPageAllocsIndependentOfViewSize: a 100-row page of a flat,
// unrestricted view allocates the same whether the view holds 1k or 40k
// entries.
func TestViewPageAllocsIndependentOfViewSize(t *testing.T) {
	def := mustDef(t, "flat", "SELECT @All", Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	allocs := func(size int) float64 {
		ix := NewIndex(def)
		for i := 0; i < size; i++ {
			mustUpdate(t, ix, doc(map[string]any{"Subject": fmt.Sprintf("s%06d", i)}))
		}
		allow := readableBy("alice")
		return testing.AllocsPerRun(20, func() { ix.RowsRange(allow, size/2, 100) })
	}
	if small, large := allocs(1000), allocs(40000); small != large {
		t.Errorf("a 100-row page allocates %v times over 1k entries and %v over 40k", small, large)
	}
}
