package mesh

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/repl"
)

// testNode is an in-process Node over a map of open databases.
type testNode struct {
	name     string
	admitted atomic.Bool

	mu  sync.Mutex
	dbs map[string]*core.Database
}

func newTestNode(t *testing.T, name string, paths map[string]nsf.ReplicaID) *testNode {
	t.Helper()
	n := &testNode{name: name, dbs: make(map[string]*core.Database)}
	n.admitted.Store(true)
	for p, replica := range paths {
		db, err := core.Open(filepath.Join(t.TempDir(), name+"-"+strings.ReplaceAll(p, "/", "_")),
			core.Options{Title: p, ReplicaID: replica})
		if err != nil {
			t.Fatalf("Open %s/%s: %v", name, p, err)
		}
		t.Cleanup(func() { db.Close() })
		n.dbs[p] = db
	}
	return n
}

func (n *testNode) Name() string { return n.name }

func (n *testNode) Paths() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.dbs))
	for p := range n.dbs {
		out = append(out, p)
	}
	return out
}

func (n *testNode) Open(path string) (*core.Database, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	db, ok := n.dbs[path]
	if !ok {
		return nil, fmt.Errorf("no db %s", path)
	}
	return db, nil
}

func (n *testNode) Admitted() bool { return n.admitted.Load() }

// testDialer reaches other testNodes directly, optionally failing.
type testDialer struct {
	nodes map[string]*testNode
	fail  atomic.Bool
	dials atomic.Uint64
}

type testSession struct{ node *testNode }

func (s *testSession) Open(dbPath string) (repl.Peer, error) {
	db, err := s.node.Open(dbPath)
	if err != nil {
		return nil, err
	}
	return &repl.LocalPeer{DB: db}, nil
}

func (s *testSession) Close() error { return nil }

func (d *testDialer) Dial(peer string) (Session, error) {
	d.dials.Add(1)
	if d.fail.Load() {
		return nil, errors.New("dial refused (test fault)")
	}
	n, ok := d.nodes[peer]
	if !ok {
		return nil, fmt.Errorf("unknown peer %s", peer)
	}
	return &testSession{node: n}, nil
}

func createDoc(t *testing.T, db *core.Database, subject string) *nsf.Note {
	t.Helper()
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetWithFlags("Subject", nsf.TextValue(subject), nsf.FlagSummary)
	if err := db.Session("user").Create(n); err != nil {
		t.Fatalf("Create: %v", err)
	}
	return n
}

// waitStatus polls m.Status until done holds or the deadline passes and
// returns the last status read; the caller asserts on it either way.
func waitStatus(m *Mesh, deadline time.Time, done func([]LinkStatus) bool) []LinkStatus {
	for {
		st := m.Status()
		if done(st) || time.Now().After(deadline) {
			return st
		}
		runtime.Gosched()
	}
}

func newMeshPair(t *testing.T) (*testNode, *testNode, *testDialer, *Mesh) {
	t.Helper()
	replica := nsf.NewReplicaID()
	a := newTestNode(t, "alpha", map[string]nsf.ReplicaID{"disc.nsf": replica})
	b := newTestNode(t, "beta", map[string]nsf.ReplicaID{"disc.nsf": replica})
	d := &testDialer{nodes: map[string]*testNode{"alpha": a, "beta": b}}
	m, err := New(Options{
		Node:     a,
		Dialer:   d,
		Interval: 20 * time.Millisecond,
		Debounce: time.Millisecond,
		Cooldown: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return a, b, d, m
}

func TestColdLinkConverges(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	if err := m.Add(Link{Name: "ab", Peer: "beta", Glob: "*"}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "from alpha")
	createDoc(t, b.dbs["disc.nsf"], "from beta")
	deadline := time.Now().Add(5 * time.Second)
	if _, err := check.WaitConverged(time.Until(deadline), a.dbs["disc.nsf"], b.dbs["disc.nsf"]); err != nil {
		t.Fatal(err)
	}
	// The data lands before the round that carried it settles its counters.
	st := waitStatus(m, deadline, func(st []LinkStatus) bool {
		return len(st) == 1 && st[0].Rounds > 0 && st[0].NotesIn > 0 && st[0].NotesOut > 0
	})
	if len(st) != 1 || st[0].Rounds == 0 || st[0].Failures != 0 {
		t.Errorf("status = %+v", st)
	}
	if st[0].NotesIn == 0 || st[0].NotesOut == 0 {
		t.Errorf("transfer counters empty: %+v", st[0])
	}
}

func TestHotLinkFiresOnWrite(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	// Interval far beyond the test: only the commit wake can move it, and
	// Add attaches it before returning.
	err := m.Add(Link{Name: "hot", Peer: "beta", Glob: "disc.nsf", Class: Hot, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "instant")
	if _, err := check.WaitConverged(5*time.Second, a.dbs["disc.nsf"], b.dbs["disc.nsf"]); err != nil {
		t.Fatal(err)
	}
}

// TestHotLinkDebouncesBursts checks that a burst of commits inside one
// debounce window makes one round, and that RunNow does not wait for the
// window.
func TestHotLinkDebouncesBursts(t *testing.T) {
	const window = 100 * time.Millisecond
	a, b, _, m := newMeshPair(t)
	err := m.Add(Link{Name: "hot", Peer: "beta", Glob: "disc.nsf", Class: Hot, Interval: time.Hour, Debounce: window})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := range 30 {
		createDoc(t, a.dbs["disc.nsf"], fmt.Sprintf("burst %d", i))
	}
	if took := time.Since(start); took >= window {
		t.Fatalf("the burst took %v, longer than the %v window", took, window)
	}
	if _, err := check.WaitConverged(5*time.Second, a.dbs["disc.nsf"], b.dbs["disc.nsf"]); err != nil {
		t.Fatal(err)
	}
	waitStatus(m, time.Now().Add(5*time.Second), func(st []LinkStatus) bool { return st[0].Rounds > 0 })
	// A second round, if the burst made one, would start within a window.
	st := waitStatus(m, time.Now().Add(3*window), func(st []LinkStatus) bool { return st[0].Rounds > 1 })
	if st[0].Rounds != 1 {
		t.Errorf("30 commits in one window made %d rounds, want 1", st[0].Rounds)
	}

	// With a window longer than the test, only RunNow can move a commit.
	a, b, _, m = newMeshPair(t)
	err = m.Add(Link{Name: "hot", Peer: "beta", Glob: "disc.nsf", Class: Hot, Interval: time.Hour, Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "kicked")
	if err := m.RunNow("hot"); err != nil {
		t.Fatal(err)
	}
	if _, err := check.WaitConverged(5*time.Second, a.dbs["disc.nsf"], b.dbs["disc.nsf"]); err != nil {
		t.Fatal(err)
	}
}

func TestSelectiveLinkStubsDeselected(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	err := m.Add(Link{Name: "sel", Peer: "beta", Formula: "SELECT Subject != \"secret\""})
	if err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "public")
	secret := createDoc(t, a.dbs["disc.nsf"], "secret")
	if _, err := check.WaitConverged(5*time.Second, a.dbs["disc.nsf"], b.dbs["disc.nsf"]); err != nil {
		t.Fatal(err)
	}
	nb, err := b.dbs["disc.nsf"].RawGet(secret.OID.UNID)
	if err != nil || !nb.IsSelStub() {
		t.Fatalf("secret at beta = %+v err=%v, want selection stub", nb, err)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	a, b, d, m := newMeshPair(t)
	d.fail.Store(true)
	if err := m.Add(Link{Name: "ab", Peer: "beta", Interval: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := m.Status()[0]
		if st.BreakerOpen {
			if st.ConsecFails < 3 {
				t.Errorf("breaker open after only %d failures", st.ConsecFails)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// While open, dials stop (at most the half-open probes get through).
	before := d.dials.Load()
	time.Sleep(50 * time.Millisecond)
	if got := d.dials.Load() - before; got > 2 {
		t.Errorf("%d dials while breaker open, want <= 2 (half-open probes)", got)
	}
	// Heal the peer: the next half-open probe closes the breaker and the
	// link converges.
	d.fail.Store(false)
	createDoc(t, a.dbs["disc.nsf"], "after outage")
	if _, err := check.WaitConverged(5*time.Second, a.dbs["disc.nsf"], b.dbs["disc.nsf"]); err != nil {
		t.Fatal(err)
	}
	// The data lands before the probe that carried it settles the breaker.
	st := waitStatus(m, time.Now().Add(5*time.Second), func(st []LinkStatus) bool {
		return !st[0].BreakerOpen && st[0].ConsecFails == 0
	})[0]
	if st.BreakerOpen || st.ConsecFails != 0 {
		t.Errorf("breaker did not close after recovery: %+v", st)
	}
}

func TestDrainHoldsRounds(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	a.admitted.Store(false)
	if err := m.Add(Link{Name: "ab", Peer: "beta", Interval: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "stuck")
	time.Sleep(60 * time.Millisecond)
	if got, _ := b.dbs["disc.nsf"].RawGet(nsf.UNID{}); got != nil {
		t.Fatal("unexpected note")
	}
	if n := b.dbs["disc.nsf"].Count(); n != 0 {
		t.Fatalf("replication ran while draining: %d notes at beta", n)
	}
	st := m.Status()[0]
	if !strings.Contains(st.Note, "draining") {
		t.Errorf("status note = %q, want draining hold", st.Note)
	}
	a.admitted.Store(true)
	if _, err := check.WaitConverged(5*time.Second, a.dbs["disc.nsf"], b.dbs["disc.nsf"]); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaMismatchIsSkipNotFailure(t *testing.T) {
	shared := nsf.NewReplicaID()
	a := newTestNode(t, "alpha", map[string]nsf.ReplicaID{
		"disc.nsf":  shared,
		"other.nsf": nsf.NewReplicaID(),
	})
	b := newTestNode(t, "beta", map[string]nsf.ReplicaID{
		"disc.nsf":  shared,
		"other.nsf": nsf.NewReplicaID(), // unrelated db at the same path
	})
	d := &testDialer{nodes: map[string]*testNode{"alpha": a, "beta": b}}
	m, err := New(Options{Node: a, Dialer: d, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Add(Link{Name: "ab", Peer: "beta", Glob: "*"}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "shared doc")
	deadline := time.Now().Add(5 * time.Second)
	if _, err := check.WaitConverged(time.Until(deadline), a.dbs["disc.nsf"], b.dbs["disc.nsf"]); err != nil {
		t.Fatal(err)
	}
	// disc.nsf may converge before the same round reaches other.nsf.
	st := waitStatus(m, deadline, func(st []LinkStatus) bool { return st[0].SkippedDBs > 0 })[0]
	if st.Failures != 0 {
		t.Errorf("mismatch counted as failure: %+v", st)
	}
	if st.SkippedDBs == 0 {
		t.Errorf("mismatch not counted as skip: %+v", st)
	}
}

func TestRunNowAndRemove(t *testing.T) {
	a, b, _, m := newMeshPair(t)
	if err := m.Add(Link{Name: "ab", Peer: "beta", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "kick me")
	if err := m.RunNow("ab"); err != nil {
		t.Fatal(err)
	}
	if _, err := check.WaitConverged(5*time.Second, a.dbs["disc.nsf"], b.dbs["disc.nsf"]); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("ab"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("ab"); err == nil {
		t.Error("double remove succeeded")
	}
	if err := m.RunNow("ab"); err == nil {
		t.Error("RunNow on removed link succeeded")
	}
	if got := len(m.Status()); got != 0 {
		t.Errorf("%d links after remove", got)
	}
	// Re-add resumes from the persisted cursors.
	if err := m.Add(Link{Name: "ab", Peer: "beta", Interval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	createDoc(t, a.dbs["disc.nsf"], "after re-add")
	if _, err := check.WaitConverged(5*time.Second, a.dbs["disc.nsf"], b.dbs["disc.nsf"]); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadLinks(t *testing.T) {
	_, _, _, m := newMeshPair(t)
	cases := []struct {
		name string
		link Link
	}{
		{"no name", Link{Peer: "beta"}},
		{"bad name", Link{Name: "a b", Peer: "beta"}},
		{"no peer", Link{Name: "x"}},
		{"self link", Link{Name: "x", Peer: "alpha"}},
		{"bad glob", Link{Name: "x", Peer: "beta", Glob: "[unterminated"}},
		{"bad formula", Link{Name: "x", Peer: "beta", Formula: "SELECT ((("}},
	}
	for _, tc := range cases {
		if err := m.Add(tc.link); err == nil {
			t.Errorf("%s: Add accepted %+v", tc.name, tc.link)
		}
	}
	var fe *repl.FormulaError
	err := m.Validate(Link{Name: "x", Peer: "beta", Formula: "SELECT ((("})
	if !errors.As(err, &fe) {
		t.Errorf("bad formula error = %v, want *repl.FormulaError", err)
	}
	if err := m.Add(Link{Name: "ok", Peer: "beta"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Link{Name: "ok", Peer: "beta"}); err == nil {
		t.Error("duplicate link name accepted")
	}
}

func TestCursorNameChangesWithFormula(t *testing.T) {
	l := Link{Name: "x", Peer: "beta"}
	narrow, wide := l, l
	narrow.Formula = "SELECT Priority > 5"
	base := cursorName(l, "disc.nsf")
	if cursorName(narrow, "disc.nsf") == base {
		t.Error("formula change did not change the cursor name")
	}
	if cursorName(wide, "disc.nsf") != base {
		t.Error("identical link produced a different cursor name")
	}
	if cursorName(l, "other.nsf") == base {
		t.Error("database path not folded into the cursor name")
	}
}

func TestFingerprintDistinguishesAndMatches(t *testing.T) {
	replica := nsf.NewReplicaID()
	a := newTestNode(t, "alpha", map[string]nsf.ReplicaID{"d": replica})
	b := newTestNode(t, "beta", map[string]nsf.ReplicaID{"d": replica})
	fa, _ := FingerprintDB(a.dbs["d"])
	fb, _ := FingerprintDB(b.dbs["d"])
	if fa.Digest != fb.Digest {
		t.Error("empty replicas fingerprint differently")
	}
	createDoc(t, a.dbs["d"], "only at a")
	fa2, _ := FingerprintDB(a.dbs["d"])
	if fa2.Digest == fb.Digest {
		t.Error("diverged replicas fingerprint identically")
	}
	if fa2.Notes != 1 || fa2.Live != 1 {
		t.Errorf("fingerprint counts = %+v", fa2)
	}
}

func TestParseTopology(t *testing.T) {
	src := `
# mesh for the docs example
link hub-a  alpha hub *        hot  100ms both
spoke-b     beta  hub mail/*   cold 30s   pull  SELECT Priority > 5
`
	topo, err := ParseTopology(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo) != 2 {
		t.Fatalf("parsed %d links", len(topo))
	}
	a := topo[0]
	if a.Server != "alpha" || a.Link.Peer != "hub" || a.Link.Class != Hot ||
		a.Link.Interval != 100*time.Millisecond || a.Link.Direction != Both {
		t.Errorf("link 0 = %+v", a)
	}
	b := topo[1]
	if b.Link.Formula != "SELECT Priority > 5" || b.Link.Direction != Pull || b.Link.Class != Cold {
		t.Errorf("link 1 = %+v", b)
	}
	if got := LinksFor(topo, "BETA"); len(got) != 1 || got[0].Name != "spoke-b" {
		t.Errorf("LinksFor(beta) = %+v", got)
	}
	for _, bad := range []string{
		"link onlyfour a b c",
		"x a b * warm 30s both",
		"x a b * cold notaduration both",
		"x a b * cold 30s sideways",
		"dup a b * cold 30s both\ndup a c * cold 30s both",
	} {
		if _, err := ParseTopology(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTopology accepted %q", bad)
		}
	}
}

func TestRingAndHubSpokeShapes(t *testing.T) {
	servers := []string{"s0", "s1", "s2", "s3"}
	ring := Ring(servers, Link{Glob: "*", Interval: time.Second})
	if len(ring) != 4 {
		t.Fatalf("ring size %d", len(ring))
	}
	for i, tl := range ring {
		if tl.Server != servers[i] || tl.Link.Peer != servers[(i+1)%4] {
			t.Errorf("ring[%d] = %+v", i, tl)
		}
	}
	hs := HubSpoke("hub", []string{"s1", "s2"}, Link{Glob: "*"})
	if len(hs) != 2 || hs[0].Link.Peer != "hub" || hs[1].Server != "s2" {
		t.Errorf("hubspoke = %+v", hs)
	}
}
