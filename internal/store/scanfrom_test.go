package store

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/nsf"
	"repro/internal/workload"
)

// TestScanFromCursorSemantics pins the resumable-scan primitive the wire
// bulk-read op pages with: ScanFromCtx(after) visits exactly the notes with
// ID > after, in ID order.
func TestScanFromCursorSemantics(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "scanfrom"})
	c := clock.New()
	var ids []nsf.NoteID
	for i := 0; i < 20; i++ {
		n := makeNote(c, fmt.Sprintf("doc %02d", i))
		if err := s.Put(n); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, n.ID)
	}

	collect := func(after nsf.NoteID) []nsf.NoteID {
		var got []nsf.NoteID
		if err := s.ScanFromCtx(context.Background(), after, nil, func(n *nsf.Note) bool {
			got = append(got, n.ID)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	if got := collect(0); len(got) != 20 {
		t.Errorf("ScanFrom(0) visited %d notes, want 20", len(got))
	}
	mid := ids[9]
	got := collect(mid)
	if len(got) != 10 {
		t.Fatalf("ScanFrom(mid) visited %d notes, want 10", len(got))
	}
	for i, id := range got {
		if id <= mid {
			t.Errorf("note %d: id %d not after cursor %d", i, id, mid)
		}
		if i > 0 && id <= got[i-1] {
			t.Errorf("ids out of order: %d after %d", id, got[i-1])
		}
	}
	if got := collect(^nsf.NoteID(0)); len(got) != 0 {
		t.Errorf("ScanFrom(max) visited %d notes, want 0", len(got))
	}

	// Page through with the last-delivered ID as cursor: every note
	// exactly once, the way the wire scan handler drives it.
	seen := map[nsf.NoteID]bool{}
	cursor := nsf.NoteID(0)
	for {
		n := 0
		if err := s.ScanFromCtx(context.Background(), cursor, nil, func(note *nsf.Note) bool {
			if seen[note.ID] {
				t.Fatalf("note %d delivered twice", note.ID)
			}
			seen[note.ID] = true
			cursor = note.ID
			n++
			return n < 7 // 7-note pages
		}); err != nil {
			t.Fatal(err)
		}
		if n < 7 {
			break
		}
	}
	if len(seen) != 20 {
		t.Errorf("paged scan visited %d notes, want 20", len(seen))
	}
}

// TestScanSkipsNotesCreatedDuringScan pins the bound of the NoteID walk:
// a callback that creates a note for every note it is handed never sees
// one of them, and the scan still ends. A note updated ahead of the
// cursor is delivered exactly once, in its new version.
func TestScanSkipsNotesCreatedDuringScan(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "scanbound"})
	c := clock.New()
	const seeded = 3*scanBatch + 10 // the walk crosses several latch holds
	var last *nsf.Note
	for i := 0; i < seeded; i++ {
		last = makeNote(c, fmt.Sprintf("doc %04d", i))
		if err := s.Put(last); err != nil {
			t.Fatal(err)
		}
	}
	created := map[nsf.NoteID]bool{}
	seen := map[nsf.NoteID]int{}
	err := s.ScanAll(func(n *nsf.Note) bool {
		if created[n.ID] {
			t.Fatalf("scan visited note %d, created during the scan", n.ID)
		}
		seen[n.ID]++
		if len(seen) > 2*seeded {
			t.Fatal("scan does not end")
		}
		if len(seen) == 1 {
			upd := last.Clone()
			upd.OID.Seq++
			upd.SetText("Subject", "updated ahead of the cursor")
			if err := s.Put(upd); err != nil {
				t.Fatal(err)
			}
		}
		fresh := makeNote(c, "created mid-scan")
		if err := s.Put(fresh); err != nil {
			t.Fatal(err)
		}
		created[fresh.ID] = true
		if n.ID == last.ID && n.Text("Subject") != "updated ahead of the cursor" {
			t.Errorf("note %d delivered in its old version", n.ID)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != seeded {
		t.Errorf("scan visited %d notes, want the %d that existed when it began", len(seen), seeded)
	}
	for id, k := range seen {
		if k != 1 {
			t.Errorf("note %d delivered %d times", id, k)
		}
	}
	if seen[last.ID] != 1 {
		t.Errorf("updated note %d delivered %d times, want once", last.ID, seen[last.ID])
	}
}

// maxScanAllocsPerNote is the ceiling on allocations per examined note of
// a projected scan over the benchmark corpus's documents: the note and its
// item slice, a name and a value slice per kept item (Subject, From and
// Priority) and a string per kept text entry — 2 + 3×2 + 2. The skipped
// items (Form, Category, the 1 KiB Body) and the heap record cost nothing.
// scanAllocSlack allows for the per-scan allocations (batch, cursor key).
const (
	maxScanAllocsPerNote = 10
	scanAllocSlack       = 16
)

// TestProjectedScanAllocs pins maxScanAllocsPerNote, and that the
// projection really drops the skipped items.
func TestProjectedScanAllocs(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "scanallocs"})
	g := workload.New(3)
	const notes = 2 * scanBatch
	for i := 0; i < notes; i++ {
		if err := s.Put(g.Document(1024)); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"Subject", "From", "Priority"}
	keep := nsf.KeepItems(names, nsf.FlagReaders|nsf.FlagAuthors)
	visited := 0
	scan := func() {
		visited = 0
		if err := s.ScanFromCtx(context.Background(), 0, keep, func(n *nsf.Note) bool {
			if n.Has("Body") || !n.Has("Subject") || len(n.Items) != len(names) {
				t.Fatalf("note %d projected to %v", n.ID, n.ItemNames())
			}
			visited++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, scan)
	if visited != notes {
		t.Fatalf("scan visited %d notes, want %d", visited, notes)
	}
	if allocs > maxScanAllocsPerNote*notes+scanAllocSlack {
		t.Errorf("projected scan of %d notes: %.0f allocs, ceiling %d per note + %d",
			notes, allocs, maxScanAllocsPerNote, scanAllocSlack)
	}
}
