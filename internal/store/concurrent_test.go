package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/nsf"
)

// TestSnapshotScanSeesConsistentPrefix runs a full scan while a writer
// keeps appending and deleting: the scan must deliver every note that
// existed when it started (minus any it saw deleted), never error, and
// never deliver a note twice.
func TestSnapshotScanSeesConsistentPrefix(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "snap"})
	c := clock.New()
	const seeded = 500
	want := make(map[nsf.UNID]bool, seeded)
	for i := 0; i < seeded; i++ {
		n := makeNote(c, fmt.Sprintf("seed-%d", i))
		if err := s.Put(n); err != nil {
			t.Fatal(err)
		}
		want[n.OID.UNID] = true
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			n := makeNote(c, fmt.Sprintf("churn-%d", i))
			if err := s.Put(n); err != nil {
				t.Errorf("churn put: %v", err)
				return
			}
			if i%2 == 1 {
				if err := s.Delete(n.OID.UNID); err != nil {
					t.Errorf("churn delete: %v", err)
					return
				}
			}
		}
	}()

	for round := 0; round < 5; round++ {
		seen := make(map[nsf.UNID]int)
		err := scanAll(s, func(n *nsf.Note) bool {
			seen[n.OID.UNID]++
			return true
		})
		if err != nil {
			t.Fatalf("round %d: scan: %v", round, err)
		}
		for u := range want {
			if seen[u] != 1 {
				t.Fatalf("round %d: seeded note %s seen %d times", round, u, seen[u])
			}
		}
		for u, k := range seen {
			if k != 1 {
				t.Fatalf("round %d: note %s delivered %d times", round, u, k)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestScanDoesNotBlockWriter proves the tentpole claim directly: a Put
// issued while a full scan is paused inside its callback completes
// promptly, because the snapshot scan holds no latch while fn runs. Under
// the seed's single-semaphore discipline this test deadlocks until the
// watchdog fires.
func TestScanDoesNotBlockWriter(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "noblock"})
	c := clock.New()
	for i := 0; i < 100; i++ {
		if err := s.Put(makeNote(c, fmt.Sprintf("d%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	scanStarted := make(chan struct{})
	gate := make(chan struct{})
	scanDone := make(chan error, 1)
	go func() {
		first := true
		scanDone <- scanAll(s, func(*nsf.Note) bool {
			if first {
				first = false
				close(scanStarted)
				<-gate
			}
			return true
		})
	}()

	<-scanStarted
	putDone := make(chan error, 1)
	go func() {
		putDone <- s.Put(makeNote(c, "mid-scan write"))
	}()
	select {
	case err := <-putDone:
		if err != nil {
			t.Fatalf("Put during scan: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Put blocked behind an in-flight scan — scan is holding the store latch across its callback")
	}
	close(gate)
	if err := <-scanDone; err != nil {
		t.Fatalf("scan: %v", err)
	}
}

// TestConcurrentReadersWriters is a race-detector target: point reads,
// scans, and stats run against live writers, then the structures must
// verify clean.
func TestConcurrentReadersWriters(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "rw", CheckpointEvery: 64})
	c := clock.New()
	const seeded = 200
	unids := make([]nsf.UNID, seeded)
	for i := 0; i < seeded; i++ {
		n := makeNote(c, fmt.Sprintf("seed-%d", i))
		if err := s.Put(n); err != nil {
			t.Fatal(err)
		}
		unids[i] = n.OID.UNID
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				n := makeNote(c, fmt.Sprintf("w%d-%d", w, i))
				if err := s.Put(n); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if i%3 == 0 {
					if err := s.Delete(n.OID.UNID); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				u := unids[(r*53+i)%seeded]
				n, err := getByUNID(s, u)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if _, err := getByID(s, n.ID); err != nil {
					t.Errorf("GetByID: %v", err)
					return
				}
				if _, err := s.Exists(u); err != nil {
					t.Errorf("Exists: %v", err)
					return
				}
				s.Count()
				s.Stats()
				if i%25 == 0 {
					if err := scanAll(s, func(*nsf.Note) bool { return true }); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if problems := s.Verify(); len(problems) > 0 {
		t.Fatalf("Verify after concurrent load: %v", problems)
	}
}

// TestGetByUNIDSemantics: reads by UNID return isolated copies, a read after an
// update sees the new version by UNID and by NoteID, and reads stay correct
// after Compact recycles the RecordID space.
func TestGetByUNIDSemantics(t *testing.T) {
	s, _ := openTestStore(t, Options{Title: "getbyunid"})
	c := clock.New()
	n := makeNote(c, "v1")
	if err := s.Put(n); err != nil {
		t.Fatal(err)
	}
	u := n.OID.UNID

	got1, err := getByUNID(s, u)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating a read result must not leak into later reads.
	got1.SetText("Subject", "mutated by caller")
	got2, err := getByUNID(s, u)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Text("Subject") != "v1" {
		t.Fatalf("a read returned an aliased note: Subject = %q", got2.Text("Subject"))
	}

	// The next read sees an update, via byID too.
	n2 := makeNote(c, "v2")
	n2.OID.UNID = u
	n2.ID = got2.ID
	if err := s.Put(n2); err != nil {
		t.Fatal(err)
	}
	if got, err := getByUNID(s, u); err != nil || got.Text("Subject") != "v2" {
		t.Fatalf("after update: %v / %q", err, got.Text("Subject"))
	}
	if got, err := getByID(s, n2.ID); err != nil || got.Text("Subject") != "v2" {
		t.Fatalf("after update by id: %v / %q", err, got.Text("Subject"))
	}

	// Compact recycles RecordIDs; reads must still be correct after.
	for i := 0; i < 50; i++ {
		extra := makeNote(c, fmt.Sprintf("filler-%d", i))
		if err := s.Put(extra); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := s.Delete(extra.OID.UNID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, err := getByUNID(s, u); err != nil || got.Text("Subject") != "v2" {
		t.Fatalf("after compact: %v / %q", err, got.Text("Subject"))
	}

	// Delete invalidates.
	if err := s.Delete(u); err != nil {
		t.Fatal(err)
	}
	if _, err := getByUNID(s, u); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: err = %v, want ErrNotFound", err)
	}
}
