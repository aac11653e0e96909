package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	gosync "sync"
	"sync/atomic"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/store"
)

// TestApplyRacesLocalWrites: a home database pushes its edits and deletes
// to a mate, as a cluster pusher does, while the mate's own users update
// and delete the same documents. Once both sides stop and replicate to
// quiescence the replicas are identical, and the rules hold for every
// acknowledged local write: a deleted document is a stub (deletions win),
// and an update survives, in the document or in a conflict document,
// unless a strictly newer version or a deletion replaced it. An apply that
// decided on a version the mate's writer has since replaced, and stored
// over it, loses the write without a conflict.
func TestApplyRacesLocalWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	home, mate := pairedDBs(t)
	const docs, homeOps, mateWriters, mateOps = 16, 400, 2, 300
	unids := make([]nsf.UNID, docs)
	for i := range unids {
		unids[i] = createDoc(t, home, fmt.Sprintf("doc %d", i)).OID.UNID
	}
	if _, err := Replicate(mate, &LocalPeer{DB: home}, Options{PullOnly: true}); err != nil {
		t.Fatal(err)
	}

	type write struct {
		unid  nsf.UNID
		token string
		seq   uint32
	}
	var (
		mu      gosync.Mutex
		updates []write
		deleted = map[nsf.UNID]bool{}
	)
	// writer updates and deletes random documents of db, recording each
	// acknowledged write; a document deleted already reads as not found.
	writer := func(db *core.Database, item string, seed int64, ops int) error {
		rng := rand.New(rand.NewSource(seed))
		sess := db.Session("user")
		for i := 0; i < ops; i++ {
			u := unids[rng.Intn(docs)]
			if rng.Intn(300) == 0 {
				if err := sess.Delete(u); err != nil {
					return err
				}
				mu.Lock()
				deleted[u] = true
				mu.Unlock()
				continue
			}
			n, err := sess.Get(u)
			if errors.Is(err, core.ErrNotFound) {
				continue
			}
			if err != nil {
				return err
			}
			token := fmt.Sprintf("%s-%d-%d", item, seed, i)
			n.SetText(item, token)
			if err := sess.Update(n); errors.Is(err, core.ErrNotFound) {
				continue
			} else if err != nil {
				return err
			}
			mu.Lock()
			updates = append(updates, write{u, token, n.OID.Seq})
			mu.Unlock()
		}
		return nil
	}

	var stop atomic.Bool
	errs := make(chan error, mateWriters+2)
	var wg gosync.WaitGroup
	wg.Add(1)
	go func() { // the home database's pusher
		defer wg.Done()
		var cursor store.Cursor
		var st Stats
		for !stop.Load() {
			next, err := Push(home, &LocalPeer{DB: mate}, &st, cursor, Options{BatchSize: 4})
			if err != nil {
				errs <- err
				return
			}
			cursor = next
		}
	}()
	var writers gosync.WaitGroup
	writers.Add(mateWriters + 1)
	go func() {
		defer writers.Done()
		if err := writer(home, "Home", 1, homeOps); err != nil {
			errs <- err
		}
	}()
	for w := 0; w < mateWriters; w++ {
		go func(w int) {
			defer writers.Done()
			if err := writer(mate, "Mate", int64(w+2), mateOps); err != nil {
				errs <- err
			}
		}(w)
	}
	writers.Wait()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for round := 0; ; round++ {
		st, err := Replicate(mate, &LocalPeer{DB: home}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Pull.Total()+st.Push.Total() == 0 {
			break
		}
		if round == 5 {
			t.Fatalf("replicas still exchange changes after %d rounds: %v", round+1, st)
		}
	}
	if err := check.Identical(home, mate); err != nil {
		t.Fatal(err)
	}
	// Where each token survives: the document or a conflict document.
	kept := map[string]bool{}
	conflicts := 0
	err := home.ScanAll(func(n *nsf.Note) bool {
		if n.IsConflict() {
			conflicts++
		}
		for _, item := range []string{"Home", "Mate"} {
			if tok := n.Text(item); tok != "" {
				kept[n.OID.UNID.String()+tok] = true
				if n.IsConflict() {
					kept[n.Text("$Ref")+tok] = true
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := range deleted {
		if h, err := home.RawHeader(u); err != nil || !h.IsStub() || h.IsSelStub() {
			t.Errorf("document %s was deleted, but the replicas hold %+v (%v)", u, h, err)
		}
	}
	lost := 0
	for _, w := range updates {
		h, err := home.RawHeader(w.unid)
		if err != nil {
			t.Fatal(err)
		}
		if !h.IsStub() && h.OID.Seq <= w.seq && !kept[w.unid.String()+w.token] {
			lost++
			if lost <= 5 {
				t.Errorf("update %s of %s at seq %d is lost: the document is at seq %d without it, and no conflict document keeps it",
					w.token, w.unid, w.seq, h.OID.Seq)
			}
		}
	}
	t.Logf("%d acknowledged updates, %d documents deleted, %d conflict documents, %d updates lost", len(updates), len(deleted), conflicts, lost)
}
