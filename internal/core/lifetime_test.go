package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/nsf"
	"repro/internal/view"
)

// stopMaintainer ends db's maintainer goroutine after its last pass, so a
// test can run passes itself; Close still works afterwards.
func stopMaintainer(db *Database) {
	db.maint.stopOnce.Do(func() { close(db.maint.stop) })
	<-db.maint.done
}

// addTwoColumnView defines a view over the documents sel selects showing
// Subject, sorted, and From.
func addTwoColumnView(t *testing.T, db *Database, name, sel string) {
	t.Helper()
	def, err := view.NewDefinition(name, sel,
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true},
		view.Column{Title: "From", ItemName: "From"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddView(nil, def); err != nil {
		t.Fatal(err)
	}
}

func heapInUse() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle empties the sync.Pools the first left
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIndexesDoNotPinRecords writes documents carrying a large item no
// index keeps, and a Readers item, through the maintainer into a view and
// full text, then drops everything but the two indexes: the heap they keep
// must be far below the large items' total. A view value or an access name
// that is a substring of the decoded record keeps the whole record alive.
func TestIndexesDoNotPinRecords(t *testing.T) {
	const docs, large = 200, 32 << 10
	before := heapInUse()
	db, err := Open(t.TempDir()+"/pin.nsf", Options{})
	if err != nil {
		t.Fatal(err)
	}
	addTwoColumnView(t, db, "memos", "SELECT @All")
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	s := db.Session("alice")
	for i := 0; i < docs; i++ {
		n := memo(fmt.Sprintf("subject %d", i))
		n.SetText("From", fmt.Sprintf("sender %d", i))
		n.SetWithFlags("Readers", nsf.TextValue("alice", fmt.Sprintf("reader %d", i)), nsf.FlagReaders|nsf.FlagSummary)
		n.Set("Payload", nsf.RawValue(bytes.Repeat([]byte{byte(i)}, large)))
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	db.Refresh()
	ix, _ := db.ViewStale("memos")
	fti := db.FullText()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = nil
	grown := int64(heapInUse()) - int64(before)
	if ix.Len() != docs || fti.DocCount() != docs {
		t.Fatalf("view holds %d entries and full text %d documents, want %d", ix.Len(), fti.DocCount(), docs)
	}
	runtime.KeepAlive(ix)
	runtime.KeepAlive(fti)
	t.Logf("heap kept by the indexes: %d bytes; the large items total %d", grown, docs*large)
	if grown > docs*large/8 {
		t.Errorf("the indexes keep %d bytes of heap, want far below the %d bytes of large items they never index", grown, docs*large)
	}
}

// TestMaintainerPassAllocs counts what a maintainer pass allocates per
// note, with two views open and no callback: one string copy of the
// record, and for each view an Entry, its values array and its strings.
// A selection comparing text costs what @All costs: the comparison folds
// case rune by rune instead of lower-casing copies.
func TestMaintainerPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects, so pooling allocates")
	}
	for _, sel := range []string{"SELECT @All", `SELECT Form = "Memo"`} {
		t.Run(sel, func(t *testing.T) {
			db := openDB(t, Options{})
			addTwoColumnView(t, db, "subjects", sel)
			addTwoColumnView(t, db, "memos", sel)
			stopMaintainer(db)
			start := db.maint.cursor
			const notes = 100
			s := db.Session("alice")
			for i := 0; i < notes; i++ {
				n := memo(fmt.Sprintf("Subject %d", i))
				n.SetText("From", fmt.Sprintf("Sender %d", i))
				n.SetText("Body", "a body the views do not show")
				if err := s.Create(n); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				db.maint.cursor = start
				if err := db.pass(); err != nil {
					t.Fatal(err)
				}
			})
			for _, name := range []string{"subjects", "memos"} {
				if ix, _ := db.ViewStale(name); ix.Len() != notes {
					t.Fatalf("view %s holds %d entries, want %d", name, ix.Len(), notes)
				}
			}
			perNote := allocs / notes
			t.Logf("maintainer pass: %.2f allocations per note", perNote)
			if perNote > 7.5 {
				t.Errorf("a pass made %.2f allocations per note, want at most 7.5 (1 record copy, 3 per view entry)", perNote)
			}
		})
	}
}

// TestOnChangeOwnsItsNote has a callback keep every note it gets: each must
// still equal its stored version after 1,000 more commits, which the
// maintainer decodes into the note and arena it reuses.
func TestOnChangeOwnsItsNote(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	var kept []*nsf.Note
	db.OnChange(func(n *nsf.Note) { kept = append(kept, n) })
	s := db.Session("alice")
	var created []nsf.UNID
	for i := 0; i < 1020; i++ {
		n := memo(fmt.Sprintf("subject %d", i))
		n.SetText("Body", fmt.Sprintf("body %d", i), "second entry")
		n.SetNumber("Count", float64(i), float64(-i))
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
		created = append(created, n.OID.UNID)
	}
	db.Refresh()
	if len(kept) != len(created) {
		t.Fatalf("callback got %d notes, want %d", len(kept), len(created))
	}
	for i, n := range kept {
		rec, err := db.RawRecord(nil, created[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := nsf.EncodeNote(n); !bytes.Equal(got, rec) {
			stored, _ := nsf.DecodeNote(rec)
			t.Fatalf("note %d the callback kept is now %+v, stored %+v", i, n, stored)
		}
	}
}
