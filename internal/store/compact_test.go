package store

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

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

func TestCompactModifiedIndexIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.nsf")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := clock.New()
	var stamps []nsf.Timestamp
	for i := 0; i < 20; i++ {
		n := makeNote(c, fmt.Sprint(i))
		stamps = append(stamps, n.Modified)
		s.Put(n)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	var seen int
	s.ScanModifiedSince(stamps[9], func(*nsf.Note) bool { seen++; return true })
	if seen != 10 {
		t.Errorf("ScanModifiedSince after compact saw %d, want 10", seen)
	}
}
