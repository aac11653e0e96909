package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/nsf"
)

// TestUpdateReadsStoredVersionOnce: an Update reads the version it
// replaces once, under the commit lock, into storage the database reuses,
// so updating a 7-item document makes at most updateAllocCeiling
// allocations. Checking the stored note first with a whole decode of its
// own, and stamping revisions from a second read, made 29.
func TestUpdateReadsStoredVersionOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects, so pooling allocates")
	}
	const updateAllocCeiling = 12
	db := openDB(t, Options{})
	s := db.Session("alice")
	n := memo("seven items")
	n.SetText("Body", strings.Repeat("body ", 40))
	n.SetText("Categories", "a", "b", "c")
	n.SetNumber("Priority", 2)
	n.SetTime("Due", db.Clock().Now())
	n.SetWithFlags("DocAuthors", nsf.TextValue("alice"), nsf.FlagAuthors)
	if len(n.Items) != 7 {
		t.Fatalf("the document has %d items, want 7", len(n.Items))
	}
	if err := s.Create(n); err != nil {
		t.Fatal(err)
	}
	before := n.OID.Seq
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Update(n); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Session.Update of a 7-item document: %v allocations", allocs)
	if allocs > updateAllocCeiling {
		t.Errorf("Session.Update of a 7-item document made %v allocations, ceiling %d", allocs, updateAllocCeiling)
	}
	got, err := s.Get(n.OID.UNID)
	if err != nil {
		t.Fatal(err)
	}
	if got.OID.Seq != before+201 {
		t.Errorf("stored Seq %d after 201 updates of Seq %d", got.OID.Seq, before)
	}
	for _, it := range got.Items {
		if it.Rev != 1 {
			t.Errorf("item %s has Rev %d after updates that changed no value, want 1", it.Name, it.Rev)
		}
	}
}

// TestConcurrentCreateSameUNID: of concurrent Creates of one pre-assigned
// UNID exactly one stores the document, at Seq 1; every other is told it
// already exists. Checked outside the commit lock, two could both pass and
// the second silently store Seq 2 over the first.
func TestConcurrentCreateSameUNID(t *testing.T) {
	raceProcs(t)
	db := openDB(t, Options{})
	const creators = 8
	for round := 0; round < 200; round++ {
		unid := nsf.NewUNID()
		var wg sync.WaitGroup
		errs := make([]error, creators)
		start := make(chan struct{})
		for i := range creators {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := memo("contended")
				n.OID.UNID = unid
				<-start
				errs[i] = db.Session("alice").Create(n)
			}()
		}
		close(start)
		wg.Wait()
		created := 0
		for _, err := range errs {
			switch {
			case err == nil:
				created++
			case !strings.Contains(err.Error(), "already exists"):
				t.Errorf("round %d: Create: %v", round, err)
			}
		}
		if created != 1 {
			t.Fatalf("round %d: %d of %d Creates of one UNID succeeded, want 1", round, created, creators)
		}
		got, err := db.RawHeader(unid)
		if err != nil {
			t.Fatal(err)
		}
		if got.OID.Seq != 1 {
			t.Fatalf("round %d: the created document is at Seq %d, want 1", round, got.OID.Seq)
		}
	}
}
