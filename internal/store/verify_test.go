package store

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/clock"
)

func TestVerifyHealthyStore(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	c := clock.New()
	for i := 0; i < 200; i++ {
		if err := s.Put(makeNote(c, fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Mix in updates and deletes.
	n := makeNote(c, "churn")
	s.Put(n)
	n.SetText("Subject", "updated")
	n.Modified = c.Now()
	s.Put(n)
	s.Delete(n.OID.UNID)
	if problems := s.Verify(); len(problems) != 0 {
		t.Fatalf("healthy store reported problems: %v", problems)
	}
	// Still healthy after a crash-recovery cycle and a compaction.
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if problems := s.Verify(); len(problems) != 0 {
		t.Fatalf("post-compact problems: %v", problems)
	}
}

func TestVerifyDetectsDanglingUNID(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	c := clock.New()
	n := makeNote(c, "victim")
	if err := s.Put(n); err != nil {
		t.Fatal(err)
	}
	// Corrupt: point the UNID index at a nonexistent NoteID.
	s.mu.Lock()
	var bogus [4]byte
	binary.BigEndian.PutUint32(bogus[:], 9999)
	if err := s.byUNID.Put(n.OID.UNID[:], bogus[:]); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.mu.Unlock()
	problems := s.Verify()
	if len(problems) == 0 {
		t.Fatal("dangling UNID mapping not detected")
	}
}

func TestVerifyDetectsMissingUSNEntry(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	c := clock.New()
	n := makeNote(c, "victim")
	if err := s.Put(n); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	k := usnKey(s.usn)
	if _, err := s.byUSN.Delete(k[:]); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.mu.Unlock()
	problems := s.Verify()
	if len(problems) == 0 {
		t.Fatal("missing byUSN entry not detected")
	}
}
