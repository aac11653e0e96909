package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/nsf"
)

func TestCompactReclaimsSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nsf")
	s, err := Open(path, Options{Title: "compact me"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := clock.New()
	// Create a lot of bulk, then delete most of it.
	var unids []nsf.UNID
	for i := 0; i < 400; i++ {
		n := makeNote(c, fmt.Sprintf("doc %d", i))
		n.SetText("Body", strings.Repeat("x", 2000))
		if err := s.Put(n); err != nil {
			t.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	for i := 0; i < 360; i++ {
		if err := s.Delete(unids[i]); err != nil {
			t.Fatal(err)
		}
	}
	replica := s.ReplicaID()
	survivors := unids[360:]
	freed, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if freed <= 0 {
		t.Errorf("Compact freed %d pages", freed)
	}
	// Identity and content intact.
	if s.ReplicaID() != replica || s.Title() != "compact me" {
		t.Error("identity lost in compaction")
	}
	if s.Count() != 40 {
		t.Errorf("Count = %d", s.Count())
	}
	for i, u := range survivors {
		n, err := s.GetByUNID(u)
		if err != nil {
			t.Fatalf("survivor %d lost: %v", i, err)
		}
		if len(n.Text("Body")) != 2000 {
			t.Fatalf("survivor %d corrupted", i)
		}
	}
	// The store stays fully usable: writes, reads, reopen.
	post := makeNote(c, "after compact")
	if err := s.Put(post); err != nil {
		t.Fatalf("Put after compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer s2.Close()
	if _, err := s2.GetByUNID(post.OID.UNID); err != nil {
		t.Errorf("post-compact write lost: %v", err)
	}
	if s2.Count() != 41 {
		t.Errorf("Count after reopen = %d", s2.Count())
	}
}

func TestCompactPreservesNoteIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nsf")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := clock.New()
	n1 := makeNote(c, "one")
	n2 := makeNote(c, "two")
	s.Put(n1)
	s.Put(n2)
	s.Delete(n1.OID.UNID)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := getByID(s, n2.ID)
	if err != nil || got.OID.UNID != n2.OID.UNID {
		t.Errorf("NoteID %d not preserved: %v", n2.ID, err)
	}
	// New notes must not reuse n1's NoteID.
	n3 := makeNote(c, "three")
	if err := s.Put(n3); err != nil {
		t.Fatal(err)
	}
	if n3.ID == n1.ID || n3.ID == n2.ID {
		t.Errorf("NoteID %d reused after compact", n3.ID)
	}
}

func TestCompactUSNIndexIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nsf")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := clock.New()
	for i := 0; i < 20; i++ {
		s.Put(makeNote(c, fmt.Sprint(i)))
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	var seen int
	s.ScanSince(Cursor{s.Incarnation(), 10}, func(*nsf.Note) bool { seen++; return true })
	if seen != 10 {
		t.Errorf("ScanSince after compact saw %d, want 10", seen)
	}
}

// gateWriter parks its first Write (after closing entered) until open is
// closed, then buffers everything.
type gateWriter struct {
	entered, open chan struct{}
	once          sync.Once
	buf           bytes.Buffer
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.entered); <-g.open })
	return g.buf.Write(p)
}

// TestCompactWaitsForHotBackup pauses a hot backup's page copy, starts a
// compaction and commits one more note, then opens the two copied streams
// as a store. They must recover to the mark's USN holding every note. A
// compaction that rewrites and swaps the page file under the copy yields a
// store whose USN matches the mark but whose notes do not.
func TestCompactWaitsForHotBackup(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "src.nsf"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const notes = 200
	for i := 1; i <= notes; i++ {
		if err := s.Put(newTestNote(i, nsf.Timestamp(i))); err != nil {
			t.Fatal(err)
		}
	}
	pageW := &gateWriter{entered: make(chan struct{}), open: make(chan struct{})}
	var walW bytes.Buffer
	var mark BackupMark
	backupErr := make(chan error, 1)
	go func() {
		var err error
		mark, err = s.HotBackup(pageW, &walW)
		backupErr <- err
	}()
	<-pageW.entered
	compacted := make(chan error, 1)
	go func() {
		_, err := s.Compact()
		compacted <- err
	}()
	// Being parked on the hold raises no event to wait on; a Compact that
	// ignores the hold finishes well inside this window.
	select {
	case err := <-compacted:
		t.Fatalf("Compact returned (err %v) while a hot backup was copying the page file", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Commits proceed while Compact waits.
	if err := s.Put(newTestNote(notes+1, notes+1)); err != nil {
		t.Fatal(err)
	}
	close(pageW.open)
	if err := <-backupErr; err != nil {
		t.Fatal(err)
	}
	if err := <-compacted; err != nil {
		t.Fatalf("Compact after the backup: %v", err)
	}
	if mark.LastUSN != notes+1 {
		t.Fatalf("mark.LastUSN = %d, want %d", mark.LastUSN, notes+1)
	}
	restored := filepath.Join(dir, "restored.nsf")
	if err := os.WriteFile(restored, pageW.buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(restored+".wal", walW.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Open(restored, Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if got := rs.LastUSN(); got != mark.LastUSN {
		t.Fatalf("copied streams recover to USN %d, mark says %d", got, mark.LastUSN)
	}
	if got := rs.Count(); got != notes+1 {
		t.Fatalf("copied streams hold %d notes at USN %d, want %d", got, mark.LastUSN, notes+1)
	}
}

// TestCompactSealsWALIntoArchive: compaction swaps the live WAL out, so the
// records logged since the last checkpoint must reach the archive first;
// otherwise point-in-time recovery across the compaction finds a gap.
func TestCompactSealsWALIntoArchive(t *testing.T) {
	s, arc := archivedStore(t)
	defer s.Close()
	for i := 1; i <= 10; i++ {
		if err := s.Put(newTestNote(i, nsf.Timestamp(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(newTestNote(11, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	last, err := ScanArchive(arc, 0, 0, func(walRecord) error { return nil })
	if err != nil || last != 11 {
		t.Fatalf("archive replays to USN %d (err %v), want 11", last, err)
	}
}
