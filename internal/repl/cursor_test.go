package repl

import (
	"fmt"
	"runtime"
	gosync "sync"
	"sync/atomic"
	"testing"

	"repro/internal/nsf"
)

// TestSummariesCursorNeverSkips pins safe incremental sync: a reader that
// pages LocalPeer.Summaries with the cursor each call hands back, while
// writers keep committing, has been told every note's final version once
// the writers stop. A cursor read from the clock instead of the scanned
// snapshot can step past a version a writer has stamped but not yet
// indexed, and that version is then never reported.
func TestSummariesCursorNeverSkips(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db, _ := pairedDBs(t)
	const writers, perWriter = 8, 500

	peer := &LocalPeer{DB: db}
	seen := map[nsf.UNID]uint32{}
	var cursor nsf.Timestamp
	poll := func() {
		sums, next, err := peer.Summaries(cursor, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sums {
			seen[s.UNID] = max(seen[s.UNID], s.Seq)
		}
		cursor = next
	}

	var done atomic.Bool
	var wg gosync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.Session("user")
			// Every create is some note's final version, so any version the
			// cursor steps past stays unreported.
			for i := 0; i < perWriter; i++ {
				n := nsf.NewNote(nsf.ClassDocument)
				n.SetText("Subject", fmt.Sprintf("writer %d note %d", w, i))
				if err := sess.Create(n); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); done.Store(true) }()
	for !done.Load() {
		poll()
	}
	poll()

	missed, total := 0, 0
	err := db.ScanAll(func(n *nsf.Note) bool {
		if n.Class == nsf.ClassDocument {
			total++
			if seen[n.OID.UNID] != n.OID.Seq {
				missed++
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if missed > 0 {
		t.Errorf("%d of %d notes: final version never reported by a cursor-paged scan", missed, total)
	}
}
