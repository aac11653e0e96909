package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
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

// TestScanSkipsNotesCreatedDuringScan pins the bound of both walks: a
// callback that creates a note for every note it is handed never sees one
// of them, and the scan still ends. A note updated ahead of the walk is
// delivered exactly once, in its new version: by the NoteID walk itself,
// and by the USN walk's follow-up scan from the cursor it returned, because
// the update moved the note past that cursor.
func TestScanSkipsNotesCreatedDuringScan(t *testing.T) {
	for _, byUSN := range []bool{false, true} {
		t.Run(map[bool]string{false: "NoteID", true: "USN"}[byUSN], func(t *testing.T) {
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
			scan := func(since Cursor, fn func(*nsf.Note) bool) (Cursor, error) {
				if byUSN {
					return s.ScanSince(context.Background(), since, nil, fn)
				}
				return Cursor{}, s.ScanAll(fn)
			}
			const newSubject = "updated ahead of the walk"
			created := map[nsf.NoteID]bool{}
			seen := map[nsf.NoteID]int{}
			updates := 0 // deliveries of last in its new version
			next, err := scan(Cursor{s.Incarnation(), 0}, func(n *nsf.Note) bool {
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
					upd.SetText("Subject", newSubject)
					if err := s.Put(upd); err != nil {
						t.Fatal(err)
					}
				}
				fresh := makeNote(c, "created mid-scan")
				if err := s.Put(fresh); err != nil {
					t.Fatal(err)
				}
				created[fresh.ID] = true
				if n.ID == last.ID {
					if n.Text("Subject") != newSubject {
						t.Errorf("note %d delivered in its old version", n.ID)
					}
					updates++
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			want := seeded
			if byUSN {
				want-- // last moved past the cursor
			}
			if len(seen) != want {
				t.Errorf("scan visited %d notes, want %d of the %d that existed when it began", len(seen), want, seeded)
			}
			for id, k := range seen {
				if k != 1 {
					t.Errorf("note %d delivered %d times", id, k)
				}
			}
			if byUSN {
				// The follow-up scan delivers what the walk left behind
				// its cursor: the created notes and the updated one.
				again := map[nsf.NoteID]int{}
				if _, err := scan(next, func(n *nsf.Note) bool {
					again[n.ID]++
					if n.ID == last.ID && n.Text("Subject") == newSubject {
						updates++
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(again) != len(created)+1 {
					t.Errorf("follow-up scan visited %d notes, want the %d created mid-scan and the updated one", len(again), len(created))
				}
				for id, k := range again {
					if k != 1 || !created[id] && id != last.ID {
						t.Errorf("follow-up scan delivered note %d %d times", id, k)
					}
				}
			}
			if updates != 1 {
				t.Errorf("updated note %d delivered %d times in its new version, want once", last.ID, updates)
			}
		})
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

// recordWalkAllocSlack bounds what a whole record walk may allocate: the
// arena and chain buffers growing to a batch, the per-walk closures and
// one start key per latch hold. Nothing is allowed per note.
const recordWalkAllocSlack = 48

// TestRecordWalkAllocatesNothingPerNote: ScanRecords copies each visited
// record, projected, into one arena every latch hold reuses, chained
// records included, so a walk over eight batches allocates what a walk
// over one does, give or take a key per hold.
func TestRecordWalkAllocatesNothingPerNote(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "walkallocs"})
	g := workload.New(5)
	const notes = 8 * scanBatch
	for i := 0; i < notes; i++ {
		body := 512
		if i%64 == 0 {
			body = 3 * PageSize // spans pages: a chained record
		}
		if err := s.Put(g.Document(body)); err != nil {
			t.Fatal(err)
		}
	}
	keep := nsf.KeepItems([]string{"Subject", "From", "Priority"}, nsf.FlagReaders|nsf.FlagAuthors)
	for _, tc := range []struct {
		name string
		keep func([]byte, nsf.ItemFlags) bool
	}{{"projected", keep}, {"whole", nil}} {
		walk := func(limit int) int {
			visited := 0
			if err := s.ScanRecords(context.Background(), 0, tc.keep, func(rec []byte) bool {
				visited++
				return visited < limit
			}); err != nil {
				t.Fatal(err)
			}
			return visited
		}
		one := testing.AllocsPerRun(5, func() { walk(scanBatch) })
		all := testing.AllocsPerRun(5, func() { walk(notes) })
		if got := walk(notes); got != notes {
			t.Fatalf("%s: walk visited %d notes, want %d", tc.name, got, notes)
		}
		t.Logf("%s: %.0f allocs for %d notes, %.0f for %d", tc.name, all, notes, one, scanBatch)
		if all > recordWalkAllocSlack || all-one > 16 {
			t.Errorf("%s: walk of %d notes made %.0f allocs (%.0f for one batch), want none per note and at most %d in all",
				tc.name, notes, all, one, recordWalkAllocSlack)
		}
	}
	// Every record decodes to the note the adapter hands out.
	if err := s.ScanRecords(context.Background(), 0, keep, func(rec []byte) bool {
		n, err := nsf.DecodeNote(rec)
		if err != nil || n.Has("Body") || !n.Has("Subject") {
			t.Fatalf("record %x: note %v, %v", rec[:8], n, err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestScanRecordsRacingWriters walks the notes while two writers update
// and delete them: every record handed out must be one whole version of
// its note (its Subject names its Version, and a rewrite may move it
// between one heap segment and a chain), NoteIDs must rise, and every
// note no writer deletes must be visited exactly once per walk. So must
// every point read (AppendRecord) after each walk find a whole version.
func TestScanRecordsRacingWriters(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "scanrace"})
	c := clock.New()
	const seeded = 4 * scanBatch
	notes := make([]*nsf.Note, seeded)
	version := func(n *nsf.Note, v int) {
		n.SetText("Subject", fmt.Sprintf("v%d", v))
		n.SetNumber("Version", float64(v))
		size := 64
		if v%5 == 4 {
			size = 2 * PageSize // a chained record
		}
		n.SetText("Body", strings.Repeat("b", size))
	}
	for i := range notes {
		notes[i] = makeNote(c, "")
		version(notes[i], 0)
		if err := s.Put(notes[i]); err != nil {
			t.Fatal(err)
		}
	}
	unids := make([]nsf.UNID, seeded) // read while the writers replace notes[i]
	for i, n := range notes {
		unids[i] = n.OID.UNID
	}
	doomed := func(i int) bool { return i%7 == 0 } // the only notes deleted
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for v := 1; ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(seeded)
				if doomed(i) && rng.Intn(4) == 0 {
					if err := s.Delete(notes[i].OID.UNID); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
						return
					}
					continue
				}
				if i%2 != w || doomed(i) {
					continue // each surviving note has one writer
				}
				n := notes[i].Clone()
				n.OID.Seq++
				version(n, v)
				if err := s.Put(n); err != nil {
					t.Error(err)
					return
				}
				notes[i] = n
			}
		}(w)
	}
	keep := nsf.KeepItems([]string{"Subject", "Version"}, 0)
	for pass := 0; pass < 6; pass++ {
		var prev nsf.NoteID
		seen := map[nsf.NoteID]bool{}
		err := s.ScanRecords(context.Background(), 0, map[bool]func([]byte, nsf.ItemFlags) bool{true: keep}[pass%2 == 0], func(rec []byte) bool {
			n, err := nsf.DecodeNote(rec)
			if err != nil {
				t.Fatalf("pass %d: record does not decode: %v", pass, err)
			}
			if n.ID <= prev {
				t.Fatalf("pass %d: note %d after note %d", pass, n.ID, prev)
			}
			prev = n.ID
			seen[n.ID] = true
			if want := fmt.Sprintf("v%g", n.Number("Version")); n.Text("Subject") != want {
				t.Fatalf("pass %d: note %d is torn: Subject %q, Version %g", pass, n.ID, n.Text("Subject"), n.Number("Version"))
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range notes {
			if !doomed(i) && !seen[nsf.NoteID(i+1)] {
				t.Errorf("pass %d: note %d, never deleted, was not visited", pass, i+1)
			}
		}
		// Point reads into one reused buffer see whole versions too.
		var rec []byte
		for i, u := range unids {
			rec, err = s.AppendRecord(rec[:0], u)
			if errors.Is(err, ErrNotFound) && doomed(i) {
				continue
			}
			if err != nil {
				t.Fatalf("pass %d: AppendRecord of note %d: %v", pass, i+1, err)
			}
			n, err := nsf.DecodeNote(rec)
			if err != nil || n.OID.UNID != u {
				t.Fatalf("pass %d: point read of note %d decodes to %v (%v)", pass, i+1, n, err)
			}
			if want := fmt.Sprintf("v%g", n.Number("Version")); n.Text("Subject") != want {
				t.Fatalf("pass %d: point read of note %d is torn: Subject %q, Version %g", pass, i+1, n.Text("Subject"), n.Number("Version"))
			}
		}
	}
	close(stop)
	wg.Wait()
}
