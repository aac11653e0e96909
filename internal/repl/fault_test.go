// Chaos and crash-safety tests for replication: sessions severed by
// injected network faults (faultnet) or killed between phases must, once
// resumed, converge both replicas to exactly the state an unfailed session
// reaches — same note digests, same deletion stubs, zero spurious conflict
// documents, and no re-applied updates.
//
// This file lives in package repl_test so it can drive replication over
// the real wire protocol (internal/wire imports internal/repl).
package repl_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/faultnet"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wire"
)

// wirePair is a local replica plus a server-hosted replica of the same
// database, reachable over a fault-injected wire link.
type wirePair struct {
	local    *core.Database
	remote   *core.Database // the server-side database, inspected directly
	client   *wire.Client
	remoteDB *wire.RemoteDB
	fn       *faultnet.Net
}

// newWirePair starts a server hosting one replica and opens a local
// replica of the same replica set, connected through plan's fault net with
// the given client options.
func newWirePair(t *testing.T, plan faultnet.Plan, clientOpts wire.Options) *wirePair {
	t.Helper()
	d := dir.New()
	d.AddUser(dir.User{Name: "ada", Secret: "ada-pw"})
	srv, err := server.New(server.Options{
		Name: "hub", DataDir: filepath.Join(t.TempDir(), "hub"), Directory: d,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	replica := nsf.NewReplicaID()
	remote, err := srv.OpenDB("apps/chaos.nsf", core.Options{Title: "chaos", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Open(filepath.Join(t.TempDir(), "local.nsf"),
		core.Options{Title: "local", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })

	fn := faultnet.New(plan)
	clientOpts.Dialer = fn.Dial
	client, err := wire.DialOptions(addr, "ada", "ada-pw", clientOpts)
	if err != nil {
		t.Fatalf("initial dial through faultnet: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	rdb, err := client.OpenDB("apps/chaos.nsf")
	if err != nil {
		t.Fatalf("open remote db: %v", err)
	}
	return &wirePair{local: local, remote: remote, client: client, remoteDB: rdb, fn: fn}
}

// fastClientOpts keep retry schedules test-sized and deterministic.
func fastClientOpts(retries int, seed int64) wire.Options {
	return wire.Options{
		OpTimeout:   2 * time.Second,
		DialTimeout: 2 * time.Second,
		MaxRetries:  retries,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Jitter:      rand.New(rand.NewSource(seed)),
	}
}

// countConflicts counts materialized conflict documents.
func countConflicts(t *testing.T, db *core.Database) int {
	t.Helper()
	n := 0
	db.ScanAll(func(note *nsf.Note) bool {
		if note.Flags&nsf.FlagConflict != 0 {
			n++
		}
		return true
	})
	return n
}

// replOpts is the session configuration the fault tests replicate under:
// small batches so severs land mid-session, history enabled.
func replOpts() repl.Options {
	return repl.Options{PeerName: "hub!!apps/chaos.nsf", BatchSize: 8}
}

// TestSeveredSessionResumeConverges severs the wire mid-transfer on a
// deterministic byte budget, with client retries disabled so the session
// genuinely fails, then resumes until the link lets a session through and
// verifies both replicas converged with no spurious artifacts.
func TestSeveredSessionResumeConverges(t *testing.T) {
	p := newWirePair(t,
		faultnet.Plan{Seed: 11, SeverAfterBytes: 6000},
		fastClientOpts(-1, 11)) // no retries: every sever fails the session

	// Bulk content on the server side so the pull outweighs one budget.
	sess := p.remote.Session("ada")
	var unids []nsf.UNID
	for i := 0; i < 60; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("server doc %d", i))
		n.SetText("Body", fmt.Sprintf("payload %d: %s", i, string(make([]byte, 64))))
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	var deleted []nsf.UNID
	for i := 0; i < 5; i++ {
		if err := sess.Delete(unids[i]); err != nil {
			t.Fatal(err)
		}
		deleted = append(deleted, unids[i])
	}
	lsess := p.local.Session("ada")
	for i := 0; i < 15; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("local doc %d", i))
		if err := lsess.Create(n); err != nil {
			t.Fatal(err)
		}
	}

	// The first session must die mid-transfer.
	_, firstErr := repl.Replicate(p.local, p.remoteDB, replOpts())
	if firstErr == nil {
		t.Fatal("session survived a 6000-byte sever budget; fault injection did not bite")
	}
	if st := p.fn.Stats(); st.Severs == 0 {
		t.Fatalf("session failed (%v) but faultnet injected nothing: %+v", firstErr, st)
	}

	// Resume under the same fault plan: each attempt makes monotonic
	// progress (applied notes re-list as skips), so a bounded number of
	// attempts drains the backlog even though every connection still dies
	// after 6000 bytes.
	var err error
	for attempt := 0; attempt < 60; attempt++ {
		if _, err = repl.Replicate(p.local, p.remoteDB, replOpts()); err == nil {
			break
		}
	}
	if err != nil {
		// The link never allowed a full session; certify convergence with
		// a clean final pass instead.
		p.fn.Disable()
		if _, err = repl.Replicate(p.local, p.remoteDB, replOpts()); err != nil {
			t.Fatalf("clean resume failed: %v", err)
		}
	}
	p.fn.Disable()

	if err := check.Identical(p.local, p.remote); err != nil {
		t.Error(err)
	}
	for _, u := range deleted {
		for _, db := range []*core.Database{p.local, p.remote} {
			n, err := db.RawGet(u)
			if err != nil {
				t.Fatalf("deleted note %s vanished from %s: %v", u, db.Title(), err)
			}
			if !n.IsStub() {
				t.Errorf("deleted note %s resurrected on %s", u, db.Title())
			}
		}
	}
	if c := countConflicts(t, p.local) + countConflicts(t, p.remote); c != 0 {
		t.Errorf("retries fabricated %d conflict documents", c)
	}
	// A converged pair stays converged: one more session moves nothing.
	st, err := repl.Replicate(p.local, p.remoteDB, replOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pull.Total()+st.Push.Total() != 0 {
		t.Errorf("post-convergence session still changed state: %v", st)
	}
}

// TestTransparentRetriesHideLinkFaults runs a session over a lossy link
// with client retries enabled: the replicator never sees the faults.
func TestTransparentRetriesHideLinkFaults(t *testing.T) {
	p := newWirePair(t,
		faultnet.Plan{Seed: 21, SeverAfterBytes: 9000},
		fastClientOpts(6, 21))
	sess := p.remote.Session("ada")
	for i := 0; i < 80; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("doc %d", i))
		n.SetText("Body", string(make([]byte, 128)))
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	st, err := repl.Replicate(p.local, p.remoteDB, replOpts())
	if err != nil {
		t.Fatalf("retrying client leaked a link fault to the session: %v", err)
	}
	if st.Pull.Added != 80 {
		t.Errorf("pulled %d docs, want 80", st.Pull.Added)
	}
	if fst := p.fn.Stats(); fst.Severs == 0 {
		t.Errorf("no severs injected; test exercised nothing (stats %+v)", fst)
	}
	p.fn.Disable()
	if err := check.Identical(p.local, p.remote); err != nil {
		t.Error(err)
	}
}

// TestChaosConvergence is the property-style suite: randomized (seeded)
// edit/delete schedules on both replicas interleaved with replication over
// a link that randomly drops, delays, truncates, and severs. The two sides
// edit disjoint document sets, so any conflict document whatsoever is a
// retry artifact — the suite asserts there are none, that deletions hold
// on both sides, and that final content is byte-identical.
func TestChaosConvergence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed)
		})
	}
}

func runChaos(t *testing.T, seed int64) {
	p := newWirePair(t, faultnet.Plan{
		Seed:      seed,
		SeverProb: 0.02,
		TruncProb: 0.01,
		DelayProb: 0.05,
		MaxDelay:  2 * time.Millisecond,
	}, fastClientOpts(5, seed))
	rng := rand.New(rand.NewSource(seed))

	type side struct {
		db    *core.Database
		sess  *core.Session
		docs  []nsf.UNID
		alive map[nsf.UNID]bool
	}
	sides := []*side{
		{db: p.local, sess: p.local.Session("ada"), alive: map[nsf.UNID]bool{}},
		{db: p.remote, sess: p.remote.Session("ada"), alive: map[nsf.UNID]bool{}},
	}
	var deleted []nsf.UNID

	const rounds = 5
	sessionFailures := 0
	for round := 0; round < rounds; round++ {
		for _, s := range sides {
			for op := 0; op < 12; op++ {
				switch action := rng.Intn(10); {
				case action < 5: // create
					n := nsf.NewNote(nsf.ClassDocument)
					n.SetText("Subject", fmt.Sprintf("r%d doc by %s #%d", round, s.db.Title(), op))
					n.SetText("Body", fmt.Sprintf("body %d", rng.Intn(1e6)))
					if err := s.sess.Create(n); err != nil {
						t.Fatal(err)
					}
					s.docs = append(s.docs, n.OID.UNID)
					s.alive[n.OID.UNID] = true
				case action < 8: // update own doc (disjoint sets: no conflicts possible)
					if len(s.docs) == 0 {
						continue
					}
					u := s.docs[rng.Intn(len(s.docs))]
					if !s.alive[u] {
						continue
					}
					n, err := s.sess.Get(u)
					if err != nil {
						continue
					}
					n.SetText("Body", fmt.Sprintf("edit r%d %d", round, rng.Intn(1e6)))
					if err := s.sess.Update(n); err != nil {
						t.Fatal(err)
					}
				default: // delete own doc
					if len(s.docs) == 0 {
						continue
					}
					u := s.docs[rng.Intn(len(s.docs))]
					if !s.alive[u] {
						continue
					}
					if err := s.sess.Delete(u); err != nil {
						t.Fatal(err)
					}
					s.alive[u] = false
					deleted = append(deleted, u)
				}
			}
		}
		// One replication attempt over the lossy link per round; failures
		// are part of the chaos — a later round resumes.
		if _, err := repl.Replicate(p.local, p.remoteDB, replOpts()); err != nil {
			sessionFailures++
		}
	}

	// Certify: quiesce the link and settle.
	p.fn.Disable()
	for i := 0; i < 3; i++ {
		if _, err := repl.Replicate(p.local, p.remoteDB, replOpts()); err != nil {
			t.Fatalf("settle session %d: %v", i, err)
		}
	}
	if err := check.Identical(p.local, p.remote); err != nil {
		t.Error(err)
	}
	if c := countConflicts(t, p.local) + countConflicts(t, p.remote); c != 0 {
		t.Errorf("disjoint edits produced %d conflict documents (retry duplication)", c)
	}
	for _, u := range deleted {
		for _, db := range []*core.Database{p.local, p.remote} {
			n, err := db.RawGet(u)
			if err != nil {
				t.Fatalf("deleted note %s missing from %s: %v", u, db.Title(), err)
			}
			if !n.IsStub() {
				t.Errorf("seed %d: deleted note %s resurrected on %s", seed, u, db.Title())
			}
		}
	}
	st, err := repl.Replicate(p.local, p.remoteDB, replOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pull.Total()+st.Push.Total() != 0 {
		t.Errorf("seed %d: post-convergence session still changed state: %v", seed, st)
	}
	t.Logf("seed %d: %d/%d sessions failed mid-chaos, faults %+v",
		seed, sessionFailures, rounds, p.fn.Stats())
}
