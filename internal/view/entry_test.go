package view

import (
	"fmt"
	"testing"

	"repro/internal/acl"
	"repro/internal/nsf"
)

// TestUpdateAllocsPerEntry counts what Update allocates for an
// unrestricted entry of text columns: the Entry, its values array and one
// string for its key and text, whatever the column count. Moving one
// note's entry costs the same in an index of 1,000 entries as in one of
// 10,000, while a Rebuild allocates at least once per entry: upkeep tracks
// the change, a rebuild the view.
func TestUpdateAllocsPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects, so pooling allocates")
	}
	for _, cols := range []int{2, 6} {
		var columns []Column
		n := nsf.NewNote(nsf.ClassDocument)
		for i := 0; i < cols; i++ {
			name := fmt.Sprintf("Col%d", i)
			columns = append(columns, Column{Title: name, ItemName: name, Sorted: i%2 == 0, Descending: i == 2})
			n.SetText(name, fmt.Sprintf("Value %d of MIXED case", i))
		}
		ix := NewIndex(mustDef(t, "v", "SELECT @All", columns...))
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ix.Update(n, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d columns: %.1f allocations per entry", cols, allocs)
		if allocs > 3 {
			t.Errorf("an entry of %d text columns made %.1f allocations, want at most 3", cols, allocs)
		}
	}
	var perUpdate []float64
	for _, size := range []int{1000, 10000} {
		notes := make([]*nsf.Note, size)
		for i := range notes {
			notes[i] = nsf.NewNote(nsf.ClassDocument)
			notes[i].SetText("Subject", fmt.Sprintf("subject %05d", i))
		}
		scan := func(fn func(*nsf.Note) bool) error {
			for _, n := range notes {
				if !fn(n) {
					break
				}
			}
			return nil
		}
		ix := NewIndex(mustDef(t, "v", "SELECT @All", Column{Title: "S", ItemName: "Subject", Sorted: true}))
		rebuild := testing.AllocsPerRun(1, func() {
			if err := ix.Rebuild(nil, scan); err != nil {
				t.Fatal(err)
			}
		})
		// The edited note moves between the two ends of the index.
		n, subjects, i := notes[size/2], [2]string{"a first", "z last"}, 0
		allocs := testing.AllocsPerRun(100, func() {
			i++
			n.SetText("Subject", subjects[i%2])
			if _, err := ix.Update(n, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d entries: %.1f allocations per update, %.0f per rebuild", size, allocs, rebuild)
		if ix.Len() != size || rebuild < float64(size) {
			t.Errorf("%d entries: the index holds %d, and a rebuild made %.0f allocations, want at least one per entry", size, ix.Len(), rebuild)
		}
		perUpdate = append(perUpdate, allocs)
	}
	if perUpdate[0] != perUpdate[1] {
		t.Errorf("moving one entry allocates %v at 1,000 and 10,000 entries, want the same", perUpdate)
	}
}

// TestEntryKeepsNothingOfTheNote builds entries, restricted and not, then
// overwrites every array of the notes they came from: the entries, their
// order and their access lists must not change.
func TestEntryKeepsNothingOfTheNote(t *testing.T) {
	ix := NewIndex(mustDef(t, "v", "SELECT @All",
		Column{Title: "S", ItemName: "Subject", Sorted: true},
		Column{Title: "T", ItemName: "Tags"},
		Column{Title: "N", ItemName: "N", Totals: true},
		Column{Title: "D", ItemName: "D"}))
	var notes []*nsf.Note
	want := map[nsf.UNID][]string{}
	for i := 0; i < 12; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("Subject %02d", i))
		n.SetText("Tags", "a", fmt.Sprintf("tag %d", i), "")
		n.SetNumber("N", float64(i), 1)
		n.SetTime("D", nsf.Timestamp(i))
		if i%3 == 0 {
			n.SetWithFlags("Readers", nsf.TextValue(fmt.Sprintf("reader %d", i)), nsf.FlagReaders)
			n.SetWithFlags("Authors", nsf.TextValue("author"), nsf.FlagAuthors)
		}
		if _, err := ix.Update(n, nil); err != nil {
			t.Fatal(err)
		}
		notes = append(notes, n)
		want[n.OID.UNID] = append(rendered(ix, n.OID.UNID), acl.ReadAccess(n)...)
	}
	for _, n := range notes {
		for i := range n.Items {
			v := &n.Items[i].Value
			for j := range v.Text {
				v.Text[j] = "scribbled"
			}
			for j := range v.Numbers {
				v.Numbers[j] = -1
			}
			for j := range v.Times {
				v.Times[j] = -1
			}
		}
	}
	for i, e := range ix.Entries() {
		if got := e.ColumnText(0); got != fmt.Sprintf("Subject %02d", i) {
			t.Errorf("entry %d shows %q", i, got)
		}
		if got := append(rendered(ix, e.UNID), e.Access...); fmt.Sprint(got) != fmt.Sprint(want[e.UNID]) {
			t.Errorf("entry %d is now %q, want %q", i, got, want[e.UNID])
		}
	}
}

// rendered returns the column texts of unid's entry.
func rendered(ix *Index, unid nsf.UNID) []string {
	for _, e := range ix.Entries() {
		if e.UNID == unid {
			var out []string
			for i := range e.Values {
				out = append(out, e.ColumnText(i))
			}
			return out
		}
	}
	return nil
}
