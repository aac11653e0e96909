package store

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/nsf"
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
		if err := s.ScanFromCtx(context.Background(), after, func(n *nsf.Note) bool {
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
		if err := s.ScanFromCtx(context.Background(), cursor, func(note *nsf.Note) bool {
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
