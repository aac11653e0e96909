package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	gosync "sync"
	"sync/atomic"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/workload"
)

// countingPeer is a Peer that counts the records it is sent and discards
// them; it serves nothing.
type countingPeer struct {
	Peer
	applies, records, maxChunk int
	bytes                      int64
}

func (p *countingPeer) Apply(recs [][]byte) (ApplyStats, error) {
	p.applies++
	p.records += len(recs)
	p.maxChunk = max(p.maxChunk, len(recs))
	for _, rec := range recs {
		p.bytes += int64(len(rec))
	}
	return ApplyStats{Added: len(recs)}, nil
}

// TestPushMemoryDoesNotGrowWithBacklog: Push streams its walk in chunks of
// at most BatchSize records through one reused buffer, so pushing a
// backlog of 20,000 changed 1 KiB documents allocates as much as pushing
// 2,000, give or take a constant; holding the backlog, or decoding a note
// per change, allocates at least once per change. Each push sends every
// note once, and its NotesSent and BytesOut are the count and the summed
// nsf.EncodedLen of the notes it sent.
func TestPushMemoryDoesNotGrowWithBacklog(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects, so pooling allocates")
	}
	const slack = 64
	opts := Options{}
	allocs := map[int]float64{}
	for _, backlog := range []int{2000, 20000} {
		db, err := core.Open(filepath.Join(t.TempDir(), "push.nsf"), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		g := workload.New(5)
		for i := 0; i < backlog; i++ {
			if err := db.RawPut(g.Document(1024)); err != nil {
				t.Fatal(err)
			}
		}
		db.Refresh()
		var wantBytes int64
		if err := db.ScanAll(func(n *nsf.Note) bool {
			wantBytes += int64(nsf.EncodedLen(n))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		var st Stats
		peer := &countingPeer{}
		allocs[backlog] = testing.AllocsPerRun(2, func() {
			st, *peer = Stats{}, countingPeer{}
			if _, err := Push(db, peer, &st, store.Cursor{}, opts); err != nil {
				t.Fatal(err)
			}
		})
		if peer.records != backlog || st.NotesSent != backlog || st.Push.Added != backlog {
			t.Errorf("backlog %d: %d records sent, NotesSent %d, %d applied", backlog, peer.records, st.NotesSent, st.Push.Added)
		}
		if st.BytesOut != wantBytes || peer.bytes != wantBytes {
			t.Errorf("backlog %d: BytesOut %d and %d bytes sent, want the notes' encoded %d", backlog, st.BytesOut, peer.bytes, wantBytes)
		}
		if peer.maxChunk > opts.batchSize() {
			t.Errorf("backlog %d: an Apply carried %d records, BatchSize is %d", backlog, peer.maxChunk, opts.batchSize())
		}
	}
	t.Logf("Push allocations: %.0f for a 2,000-change backlog, %.0f for 20,000", allocs[2000], allocs[20000])
	if allocs[20000] > allocs[2000]+slack {
		t.Errorf("pushing 20,000 changes made %.0f allocations, 2,000 made %.0f: push memory grows with the backlog", allocs[20000], allocs[2000])
	}
}

// TestPushRacesWriters: writers update and delete the notes a Push is
// walking, and pushes of every note run back to back while they do. Once
// the writers stop, one more push from the cursor the last racing push
// returned leaves the replicas identical: a note a writer commits again
// during the walk moves past the walk's cursor, so the next push carries
// it, and the chunk buffer hands each Apply whole versions, also in a
// chunk that straddles two of the store walk's batches (BatchSize 100
// against the walk's 256).
func TestPushRacesWriters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	home, mate := pairedDBs(t)
	const docs, writers, pushes = 600, 2, 20
	unids := make([]nsf.UNID, docs)
	for i := range unids {
		unids[i] = createDoc(t, home, fmt.Sprintf("doc %d", i)).OID.UNID
	}
	peer := &LocalPeer{DB: mate}
	opts := Options{BatchSize: 100}
	stop := make(chan struct{})
	var wg gosync.WaitGroup
	var writes atomic.Int64
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			sess := home.Session("user")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := unids[rng.Intn(docs)]
				if rng.Intn(50) == 0 {
					if err := sess.Delete(u); err != nil && !errors.Is(err, core.ErrNotFound) {
						errs <- err
						return
					}
					writes.Add(1)
					continue
				}
				n, err := sess.Get(u)
				if errors.Is(err, core.ErrNotFound) {
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				n.SetText("Body", fmt.Sprintf("edit %d-%d", seed, i))
				if err := sess.Update(n); errors.Is(err, core.ErrNotFound) {
					continue
				} else if err != nil {
					errs <- err
					return
				}
				writes.Add(1)
			}
		}(int64(w))
	}
	var cursor store.Cursor
	for i := 0; i < pushes; i++ {
		var st Stats
		next, err := Push(home, peer, &st, store.Cursor{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		cursor = next
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var st Stats
	if _, err := Push(home, peer, &st, cursor, opts); err != nil {
		t.Fatal(err)
	}
	if err := check.Identical(home, mate); err != nil {
		t.Fatalf("after %d pushes racing %d writes and one from the last one's cursor: %v", pushes, writes.Load(), err)
	}
	t.Logf("%d pushes raced %d writes; the last one's cursor left %d notes to send", pushes, writes.Load(), st.NotesSent)
}
