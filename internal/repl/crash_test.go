// Crash-safety tests for replication history: a session killed between a
// batch apply and the saveHistory that would record it must, on re-run,
// neither resurrect deleted notes nor re-apply updates it already applied.
package repl_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/repl"
)

// flakyPeer wraps a Peer and injects failures at phase boundaries: a Fetch
// that dies after earlier batches were already applied locally, or an
// Apply whose acknowledgment is lost after the peer durably applied it.
// Both model a session killed between "batch apply" and "saveHistory".
type flakyPeer struct {
	repl.Peer
	failFetchAt  int // fail the Nth Fetch call (1-based); 0 = never
	loseApplyAck bool
	fetchCalls   int
	applyCalls   int
}

func (f *flakyPeer) Fetch(unids []nsf.UNID, fn func(rec []byte) error) error {
	f.fetchCalls++
	if f.failFetchAt != 0 && f.fetchCalls >= f.failFetchAt {
		return errors.New("injected: link died mid-pull")
	}
	return f.Peer.Fetch(unids, fn)
}

func (f *flakyPeer) Apply(recs [][]byte) (repl.ApplyStats, error) {
	f.applyCalls++
	if f.loseApplyAck {
		// The peer applies the batch durably, but the session dies before
		// the sender learns of it (and before it saves its push cursor).
		if _, err := f.Peer.Apply(recs); err != nil {
			return repl.ApplyStats{}, err
		}
		return repl.ApplyStats{}, errors.New("injected: ack lost after apply")
	}
	return f.Peer.Apply(recs)
}

// newLocalPair opens two databases in the same replica set.
func newLocalPair(t *testing.T) (*core.Database, *core.Database) {
	t.Helper()
	replica := nsf.NewReplicaID()
	open := func(name string) *core.Database {
		db, err := core.Open(filepath.Join(t.TempDir(), name),
			core.Options{Title: name, ReplicaID: replica})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	return open("a.nsf"), open("b.nsf")
}

// TestPullCrashBetweenBatchAndSaveHistory kills a pull after its first
// batch applied but before the cursor was saved, then re-runs and checks
// the resumed session converges with deletions intact.
func TestPullCrashBetweenBatchAndSaveHistory(t *testing.T) {
	a, b := newLocalPair(t)
	opts := repl.Options{PeerName: "peer-b", BatchSize: 4}
	healthy := &repl.LocalPeer{DB: b}

	// Baseline: 30 docs on b, cleanly replicated to a.
	bs := b.Session("ada")
	var unids []nsf.UNID
	for i := 0; i < 30; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("doc %d", i))
		if err := bs.Create(n); err != nil {
			t.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	if _, err := repl.Replicate(a, healthy, opts); err != nil {
		t.Fatal(err)
	}

	// New work on b: updates and deletions, enough for several batches.
	for i := 0; i < 8; i++ {
		n, err := bs.Get(unids[i])
		if err != nil {
			t.Fatal(err)
		}
		n.SetText("Body", fmt.Sprintf("revised %d", i))
		if err := bs.Update(n); err != nil {
			t.Fatal(err)
		}
	}
	deleted := unids[8:14]
	for _, u := range deleted {
		if err := bs.Delete(u); err != nil {
			t.Fatal(err)
		}
	}

	// Crash: the second Fetch dies. The first batch is already applied on
	// a, but the pull cursor was never saved.
	flaky := &flakyPeer{Peer: healthy, failFetchAt: 2}
	st, err := repl.Replicate(a, flaky, opts)
	if err == nil {
		t.Fatal("injected mid-pull crash did not surface")
	}
	if st.Pull.Total() == 0 {
		t.Fatal("crash landed before any batch applied; test exercises nothing")
	}
	applied := st.Pull.Total()

	// Resume against the healthy peer: the already-applied batch must
	// re-list as skips, not as fresh changes.
	st2, err := repl.Replicate(a, healthy, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Pull.Skipped < applied {
		t.Errorf("resumed pull skipped %d, want >= %d (batch re-applied instead)",
			st2.Pull.Skipped, applied)
	}
	if err := check.Identical(a, b); err != nil {
		t.Error(err)
	}
	for _, u := range deleted {
		n, err := a.RawGet(u)
		if err != nil {
			t.Fatalf("deleted note %s missing after resume: %v", u, err)
		}
		if !n.IsStub() {
			t.Errorf("deleted note %s resurrected by resumed session", u)
		}
	}
	if c := countConflicts(t, a) + countConflicts(t, b); c != 0 {
		t.Errorf("resumed session fabricated %d conflicts", c)
	}
	st3, err := repl.Replicate(a, healthy, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Pull.Total()+st3.Push.Total() != 0 {
		t.Errorf("idle session after resume still changed state: %v", st3)
	}
}

// TestPushAckLostBetweenApplyAndSaveHistory loses the acknowledgment of a
// push batch the peer durably applied: the re-run must re-offer the batch
// and the peer must absorb it as skips, with no double-applied updates.
func TestPushAckLostBetweenApplyAndSaveHistory(t *testing.T) {
	a, b := newLocalPair(t)
	opts := repl.Options{PeerName: "peer-b", BatchSize: 64}
	healthy := &repl.LocalPeer{DB: b}

	as := a.Session("ada")
	var unids []nsf.UNID
	for i := 0; i < 10; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("note %d", i))
		if err := as.Create(n); err != nil {
			t.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}

	flaky := &flakyPeer{Peer: healthy, loseApplyAck: true}
	if _, err := repl.Replicate(a, flaky, opts); err == nil {
		t.Fatal("injected lost ack did not surface")
	}
	// The batch IS on b — only the ack (and the push cursor) were lost.
	if n, err := b.RawGet(unids[0]); err != nil || n.IsStub() {
		t.Fatalf("peer lost the applied batch: %v", err)
	}

	// Re-run: everything re-offers and must land as skips. A re-applied
	// update would show up in Added/Updated and as a seq divergence.
	st, err := repl.Replicate(a, healthy, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Push.Added != 0 || st.Push.Updated != 0 {
		t.Errorf("retried push re-applied notes: %+v", st.Push)
	}
	if st.Push.Skipped != len(unids) {
		t.Errorf("retried push skipped %d, want %d", st.Push.Skipped, len(unids))
	}
	if err := check.Identical(a, b); err != nil {
		t.Error(err)
	}
	for _, u := range unids {
		na, _ := a.RawGet(u)
		nb, err := b.RawGet(u)
		if err != nil {
			t.Fatal(err)
		}
		if na.OID != nb.OID {
			t.Errorf("note %s OID diverged after retry: %v vs %v", u, na.OID, nb.OID)
		}
	}
	st2, err := repl.Replicate(a, healthy, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Pull.Total()+st2.Push.Total() != 0 {
		t.Errorf("idle session after retry still changed state: %v", st2)
	}
}
