package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/faultfs"
	"repro/internal/nsf"
)

// getByID reads a note through the NoteID index under the read latch.
func getByID(s *Store, id nsf.NoteID) (*nsf.Note, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getByIDLocked(id)
}

func openTestStore(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.nsf")
	s, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func makeNote(c *clock.Clock, subject string) *nsf.Note {
	n := nsf.NewNote(nsf.ClassDocument)
	now := c.Now()
	n.OID.Seq = 1
	n.OID.SeqTime = now
	n.Created = now
	n.Modified = now
	n.SetText("Subject", subject)
	return n
}

func TestStoreCRUD(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "crud"})
	c := clock.New()
	n := makeNote(c, "hello")
	if err := s.Put(n); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if n.ID == 0 {
		t.Fatal("Put did not assign a NoteID")
	}
	got, err := s.GetByUNID(n.OID.UNID)
	if err != nil {
		t.Fatalf("GetByUNID: %v", err)
	}
	if got.Text("Subject") != "hello" || got.ID != n.ID {
		t.Fatalf("got %+v", got)
	}
	byID, err := getByID(s, n.ID)
	if err != nil || byID.OID.UNID != n.OID.UNID {
		t.Fatalf("GetByID: %v", err)
	}
	// Update.
	n.SetText("Subject", "updated")
	n.Modified = c.Now()
	if err := s.Put(n); err != nil {
		t.Fatalf("Put update: %v", err)
	}
	if s.Count() != 1 {
		t.Fatalf("Count after update = %d", s.Count())
	}
	got, _ = s.GetByUNID(n.OID.UNID)
	if got.Text("Subject") != "updated" {
		t.Fatalf("update lost: %q", got.Text("Subject"))
	}
	// Delete.
	if err := s.Delete(n.OID.UNID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.GetByUNID(n.OID.UNID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	if err := s.Delete(n.OID.UNID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestStoreRejectsZeroUNID(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	n := &nsf.Note{Class: nsf.ClassDocument}
	if err := s.Put(n); err == nil {
		t.Fatal("Put accepted zero UNID")
	}
}

func TestStoreLargeNotes(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	c := clock.New()
	n := makeNote(c, "big")
	n.SetText("Body", strings.Repeat("lorem ipsum ", 4000)) // ~48 KiB
	if err := s.Put(n); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.GetByUNID(n.OID.UNID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Text("Body") != n.Text("Body") {
		t.Fatal("large body corrupted")
	}
}

func TestStoreScanSince(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	c := clock.New()
	for i := 0; i < 20; i++ {
		if err := s.Put(makeNote(c, fmt.Sprintf("doc %d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	inc := s.Incarnation()
	var seen []string
	next, err := s.ScanSince(context.Background(), Cursor{inc, 10}, nil, func(n *nsf.Note) bool {
		seen = append(seen, n.Text("Subject"))
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(seen) != 10 || seen[0] != "doc 10" {
		t.Fatalf("ScanSince = %v", seen)
	}
	// The cursor is the store's USN, and stays put when the scan from it
	// finds nothing.
	if want := (Cursor{inc, 20}); next != want {
		t.Fatalf("cursor = %v, want %v", next, want)
	}
	if again, _ := s.ScanSince(context.Background(), next, nil, func(*nsf.Note) bool { return true }); again != next {
		t.Fatalf("empty scan moved the cursor %v -> %v", next, again)
	}
	// A fresh update moves a note to the end of the scan order.
	n0, _ := getByID(s, 1)
	n0.Modified = c.Now()
	if err := s.Put(n0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	seen = nil
	s.ScanSince(context.Background(), next, nil, func(n *nsf.Note) bool {
		seen = append(seen, n.Text("Subject"))
		return true
	})
	if len(seen) != 1 || seen[0] != "doc 0" {
		t.Fatalf("after touch, scan = %v", seen)
	}
	// A cursor another incarnation issued starts over from USN 0.
	count := 0
	if _, err := s.ScanSince(context.Background(), Cursor{inc + 1, 21}, nil, func(*nsf.Note) bool { count++; return true }); err != nil || count != 20 {
		t.Fatalf("foreign cursor scanned %d notes (%v), want all 20", count, err)
	}
	// Notes carry only the items keep accepts.
	count = 0
	if _, err := s.ScanSince(context.Background(), Cursor{inc, 0}, nsf.KeepItems([]string{"Subject"}, 0), func(n *nsf.Note) bool {
		if count++; len(n.Items) != 1 || n.Text("Subject") == "" {
			t.Errorf("note %d projected to %v, want Subject alone", n.ID, n.ItemNames())
		}
		return true
	}); err != nil || count != 20 {
		t.Fatalf("projected scan: %d notes (%v), want 20", count, err)
	}
	// A done ctx stops the walk before it delivers anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	count = 0
	if _, err := s.ScanSince(ctx, Cursor{inc, 0}, nil, func(*nsf.Note) bool { count++; return true }); !errors.Is(err, context.Canceled) || count != 0 {
		t.Fatalf("cancelled scan: %d notes, err %v; want none and context.Canceled", count, err)
	}
}

// TestOpenRefusesFormatVersion1 pins the upgrade rule: a file written
// before the USN change index is refused with an error naming the version,
// not misread.
func TestOpenRefusesFormatVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.nsf")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte{1, 0, 0, 0}, hdrOffVersion)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("Open of a version 1 file: %v, want a format version error", err)
	}
}

func TestStoreScanAll(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	c := clock.New()
	for i := 0; i < 10; i++ {
		if err := s.Put(makeNote(c, fmt.Sprint(i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	count := 0
	s.ScanAll(func(n *nsf.Note) bool { count++; return true })
	if count != 10 {
		t.Fatalf("ScanAll visited %d", count)
	}
	count = 0
	s.ScanAll(func(n *nsf.Note) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestStorePersistenceAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nsf")
	c := clock.New()
	s, err := Open(path, Options{Title: "persist"})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := makeNote(c, "survivor")
	if err := s.Put(n); err != nil {
		t.Fatalf("Put: %v", err)
	}
	replica := s.ReplicaID()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.ReplicaID() != replica {
		t.Error("replica ID changed across reopen")
	}
	if s2.Title() != "persist" {
		t.Errorf("title = %q", s2.Title())
	}
	got, err := s2.GetByUNID(n.OID.UNID)
	if err != nil || got.Text("Subject") != "survivor" {
		t.Fatalf("after reopen: %v, %v", got, err)
	}
}

// TestStoreCrashRecovery kills the process before any checkpoint:
// everything must come back from the WAL.
func TestStoreCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nsf")
	c := clock.New()
	fs := faultfs.New(1)
	s, err := Open(path, Options{CheckpointEvery: -1, FS: fs}) // never checkpoint
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var unids []nsf.UNID
	for i := 0; i < 100; i++ {
		n := makeNote(c, fmt.Sprintf("doc %d", i))
		if err := s.Put(n); err != nil {
			t.Fatalf("Put: %v", err)
		}
		unids = append(unids, n.OID.UNID)
	}
	// Delete some, update some.
	for i := 0; i < 10; i++ {
		if err := s.Delete(unids[i]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	for i := 10; i < 20; i++ {
		n, _ := s.GetByUNID(unids[i])
		n.SetText("Subject", "updated")
		n.Modified = c.Now()
		if err := s.Put(n); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Kill: the page file was never flushed.
	fs.Kill()
	s.Close()
	s2, err := Open(path, Options{FS: fs})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	if got := s2.Count(); got != 90 {
		t.Fatalf("Count after recovery = %d, want 90", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := s2.GetByUNID(unids[i]); !errors.Is(err, ErrNotFound) {
			t.Errorf("deleted doc %d resurrected: %v", i, err)
		}
	}
	for i := 10; i < 20; i++ {
		n, err := s2.GetByUNID(unids[i])
		if err != nil || n.Text("Subject") != "updated" {
			t.Errorf("updated doc %d lost: %v", i, err)
		}
	}
	for i := 20; i < 100; i++ {
		if _, err := s2.GetByUNID(unids[i]); err != nil {
			t.Errorf("doc %d lost: %v", i, err)
		}
	}
}

// TestStoreCrashMidstreamCheckpoints covers a crash after some checkpoints:
// recovery replays only the tail.
func TestStoreCrashAfterCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nsf")
	c := clock.New()
	fs := faultfs.New(1)
	s, err := Open(path, Options{CheckpointEvery: -1, FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n1 := makeNote(c, "before checkpoint")
	if err := s.Put(n1); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	n2 := makeNote(c, "after checkpoint")
	if err := s.Put(n2); err != nil {
		t.Fatalf("Put: %v", err)
	}
	fs.Kill()
	s.Close()
	s2, err := Open(path, Options{FS: fs})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	for _, n := range []*nsf.Note{n1, n2} {
		if _, err := s2.GetByUNID(n.OID.UNID); err != nil {
			t.Errorf("note %q lost: %v", n.Text("Subject"), err)
		}
	}
	// NoteID allocation must not collide with recovered notes.
	n3 := makeNote(c, "post recovery")
	if err := s2.Put(n3); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if n3.ID == n1.ID || n3.ID == n2.ID {
		t.Errorf("NoteID %d reused after recovery", n3.ID)
	}
}

// TestStoreTornWALTail cuts the WAL's last bytes after a kill and verifies
// recovery ignores the torn tail and keeps the intact prefix.
func TestStoreTornWALTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nsf")
	c := clock.New()
	fs := faultfs.New(1)
	s, err := Open(path, Options{CheckpointEvery: -1, FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := makeNote(c, "intact")
	if err := s.Put(n); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Simulate a torn write: truncate the last few bytes of the WAL after a
	// second put.
	n2 := makeNote(c, "torn")
	if err := s.Put(n2); err != nil {
		t.Fatalf("Put: %v", err)
	}
	size := s.wal.size.Load()
	fs.Kill()
	s.Close()
	if err := os.Truncate(path+".wal", size-3); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	if _, err := s2.GetByUNID(n.OID.UNID); err != nil {
		t.Errorf("intact note lost: %v", err)
	}
	if _, err := s2.GetByUNID(n2.OID.UNID); !errors.Is(err, ErrNotFound) {
		t.Errorf("torn note should be gone, got %v", err)
	}
}

func TestStoreAutoCheckpoint(t *testing.T) {
	s, _ := openTestStore(t, Options{CheckpointEvery: 10})
	c := clock.New()
	for i := 0; i < 25; i++ {
		if err := s.Put(makeNote(c, fmt.Sprint(i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	st := s.Stats()
	// 25 ops with checkpoint every 10: last checkpoint at op 20, so the WAL
	// holds at most 5 records.
	if st.WALBytes == 0 {
		t.Log("WAL empty right at checkpoint boundary; acceptable")
	}
	if st.DirtyPages > 50 {
		t.Errorf("dirty pages = %d after auto checkpoints", st.DirtyPages)
	}
	if st.Notes != 25 {
		t.Errorf("Notes = %d", st.Notes)
	}
}

// TestCopyOfClosedFileTakesNewIncarnation: a cleanly closed file reopened
// where it was closed keeps its incarnation, so replication cursors survive
// a restart; a copy of it opened at another path takes a new one, so a
// cursor the original issued is not honoured by the copy, whose notes at
// the same USNs differ.
func TestCopyOfClosedFileTakesNewIncarnation(t *testing.T) {
	dir := t.TempDir()
	orig, copied := filepath.Join(dir, "a.nsf"), filepath.Join(dir, "b.nsf")
	s, err := Open(orig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(newTestNote(1, 1)); err != nil {
		t.Fatal(err)
	}
	inc := s.Incarnation()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"", ".wal"} {
		b, err := os.ReadFile(orig + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(copied+suffix, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		path string
		same bool
	}{{orig, true}, {copied, false}} {
		s, err := Open(tc.path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Incarnation(); (got == inc) != tc.same {
			t.Errorf("%s: incarnation %x, source's %x; want same=%v", filepath.Base(tc.path), got, inc, tc.same)
		}
		if got := s.LastUSN(); got != 1 {
			t.Errorf("%s: LastUSN %d, want 1", filepath.Base(tc.path), got)
		}
		s.Close()
	}
}
