package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/wire"
)

// newHookServer starts a one-database server whose testPreDispatch hook is
// installed before the listener, so tests can inject delays and panics into
// the dispatch path without racing the handler goroutines.
func newHookServer(t *testing.T, opts Options, hook func(op wire.Op, budget time.Duration)) (*Server, string) {
	t.Helper()
	d := dir.New()
	d.AddUser(dir.User{Name: "ada", Secret: "ada-pw"})
	opts.Name = "hub"
	opts.DataDir = filepath.Join(t.TempDir(), "hub")
	opts.Directory = d
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.testPreDispatch = hook
	db, err := s.OpenDB("apps/db.nsf", core.Options{Title: "db"})
	if err != nil {
		t.Fatal(err)
	}
	db.ACL().Set("ada", acl.Editor)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, addr
}

// fastClientOpts fail fast: no inner retries, short timeouts. Failover tests
// want the FailoverClient, not the Client, to do the recovering.
func fastClientOpts() wire.Options {
	return wire.Options{
		MaxRetries:  -1,
		DialTimeout: 2 * time.Second,
		OpTimeout:   5 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

// TestAvailabilityProbe: the unauthenticated probe reports an idle server
// as OPEN with a high index, and a quiesced one as RESTRICTED with index 0.
func TestAvailabilityProbe(t *testing.T) {
	s, addr := newHookServer(t, Options{}, nil)
	info, err := wire.ProbeAvailability(addr, nil, 0)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if info.Restricted() || info.State != wire.StateOpen {
		t.Errorf("idle server probe = %+v, want OPEN", info)
	}
	if info.Index < 90 {
		t.Errorf("idle availability index = %d, want >= 90", info.Index)
	}
	if err := s.Quiesce(time.Second); err != nil {
		t.Fatalf("quiesce idle server: %v", err)
	}
	info, err = wire.ProbeAvailability(addr, nil, 0)
	if err != nil {
		t.Fatalf("probe while draining: %v", err)
	}
	if !info.Restricted() || info.Index != 0 {
		t.Errorf("draining probe = %+v, want RESTRICTED index 0", info)
	}
	s.Resume()
	info, err = wire.ProbeAvailability(addr, nil, 0)
	if err != nil {
		t.Fatalf("probe after resume: %v", err)
	}
	if info.Restricted() {
		t.Errorf("probe after resume = %+v, want OPEN", info)
	}
}

// TestQuiesceDrain: while draining, new sessions are refused and existing
// sessions are shed with RESTRICTED busy responses — but the in-flight
// request admitted before the drain finishes, and Quiesce waits for it.
func TestQuiesceDrain(t *testing.T) {
	hook := func(op wire.Op, _ time.Duration) {
		if op == wire.OpGetNote {
			time.Sleep(300 * time.Millisecond)
		}
	}
	s, addr := newHookServer(t, Options{}, hook)
	c1, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	db1, err := c1.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	db2, err := c2.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	doc := nsf.NewNote(nsf.ClassDocument)
	doc.SetText("Subject", "drain me")
	if err := db1.Create(doc); err != nil {
		t.Fatal(err)
	}

	inflight := make(chan error, 1)
	go func() {
		_, err := db1.Get(doc.OID.UNID) // slowed to 300ms by the hook
		inflight <- err
	}()
	waitFor(t, "the slow request to be in flight", func() bool {
		return s.Health().InFlight >= 1
	})
	quiesced := make(chan error, 1)
	go func() { quiesced <- s.Quiesce(5 * time.Second) }()
	waitFor(t, "drain mode", s.Draining)

	// New sessions are refused while draining.
	if c, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts()); err == nil {
		c.Close()
		t.Error("draining server accepted a new session")
	}
	// Existing sessions shed with a RESTRICTED busy response.
	_, err = db2.Info()
	var be *wire.BusyError
	if !errors.As(err, &be) {
		t.Fatalf("op during drain = %v, want BusyError", err)
	}
	if be.State != wire.StateRestricted {
		t.Errorf("busy state = %d, want RESTRICTED", be.State)
	}
	// The admitted request finishes; the drain completes.
	if err := <-inflight; err != nil {
		t.Errorf("in-flight request failed during drain: %v", err)
	}
	if err := <-quiesced; err != nil {
		t.Errorf("quiesce: %v", err)
	}
	if h := s.Health(); h.State != wire.StateRestricted || h.InFlight != 0 {
		t.Errorf("drained health = %+v", h)
	}

	s.Resume()
	if _, err := db2.Info(); err != nil {
		t.Errorf("op after resume: %v", err)
	}
	c3, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts())
	if err != nil {
		t.Fatalf("new session after resume: %v", err)
	}
	c3.Close()
}

// TestAdmissionShedsUnderOverload: with the in-flight pool saturated by
// slow requests, further requests are shed with a busy response carrying a
// depressed availability index, accepted requests stay fast, and once the
// load drains the goroutine count returns to baseline.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	hook := func(op wire.Op, _ time.Duration) {
		if op == wire.OpSearch {
			time.Sleep(100 * time.Millisecond)
		}
	}
	s, addr := newHookServer(t, Options{MaxInFlight: 2, AdmitWait: -1}, hook)

	// The probe client binds its handle before the overload starts; opens
	// are subject to admission control like everything else.
	c3, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	db3, err := c3.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	// Baseline after the first OpenDB: the server's lazily opened database
	// handle keeps its maintainer goroutine alive for the server's
	// lifetime, so measuring any earlier would count it as a leak.
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	var heavy []*wire.Client
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		c, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		heavy = append(heavy, c)
		db, err := c.OpenDB("apps/db.nsf")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				db.Search("anything") // 100ms each, holds a slot
			}
		}()
	}
	var be *wire.BusyError
	waitFor(t, "a shed busy response", func() bool {
		_, err := db3.Info()
		return errors.As(err, &be)
	})
	if be.Availability >= 100 {
		t.Errorf("shed availability index = %d, want < 100", be.Availability)
	}
	if h := s.Health(); h.Sheds == 0 {
		t.Errorf("health = %+v, want Sheds > 0", h)
	}
	// Accepted requests stay bounded: the pool caps concurrency, so an
	// admitted Info never queues behind the whole overload.
	var worst time.Duration
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := db3.Info(); err == nil {
			if d := time.Since(start); d > worst {
				worst = d
			}
		}
	}
	if worst > time.Second {
		t.Errorf("accepted request took %v under overload, want bounded", worst)
	}

	close(stop)
	wg.Wait()
	waitFor(t, "in-flight to drain", func() bool { return s.Health().InFlight == 0 })
	if _, err := db3.Info(); err != nil {
		t.Errorf("request after overload drained: %v", err)
	}
	for _, c := range heavy {
		c.Close()
	}
	c3.Close()
	waitFor(t, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestPanicRecoveryClosesOnlyThatConn: a panicking handler is counted and
// logged, its connection dies with no response written, and every other
// session — and future sessions — keep working.
func TestPanicRecoveryClosesOnlyThatConn(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	hook := func(op wire.Op, _ time.Duration) {
		if op == wire.OpDeleteNote && armed.CompareAndSwap(true, false) {
			panic("injected handler panic")
		}
	}
	s, addr := newHookServer(t, Options{}, hook)
	c1, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	db1, err := c1.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	db2, err := c2.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}

	if err := db1.Delete(nsf.UNID{1, 2, 3}); err == nil {
		t.Fatal("panicked handler still produced a response")
	}
	if h := s.Health(); h.Panics != 1 {
		t.Errorf("health panics = %d, want 1", h.Panics)
	}
	if h := s.Health(); h.InFlight != 0 {
		t.Errorf("panicked request leaked an admission slot: in-flight %d", h.InFlight)
	}
	// The bystander connection is untouched, and the server accepts new ones.
	if _, err := db2.Info(); err != nil {
		t.Errorf("bystander connection broken by another conn's panic: %v", err)
	}
	checkServes(t, addr)
}

// TestCloseRacesInflightAndClusterPush: Close while requests are mid-flight
// and cluster pushers are retrying against a dead mate must terminate
// promptly with no deadlock or leaked goroutine (run under -race in the
// stress target).
func TestCloseRacesInflightAndClusterPush(t *testing.T) {
	hook := func(op wire.Op, _ time.Duration) { time.Sleep(2 * time.Millisecond) }
	s, addr := newHookServer(t, Options{MaxInFlight: 8}, hook)
	s.EnableClustering(map[string]string{"ghost": "127.0.0.1:1"}) // every push fails

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wire.DialOptions(addr, "ada", "ada-pw", fastClientOpts())
			if err != nil {
				return
			}
			defer c.Close()
			db, err := c.OpenDB("apps/db.nsf")
			if err != nil {
				return
			}
			for j := 0; ; j++ {
				n := nsf.NewNote(nsf.ClassDocument)
				n.SetText("Subject", fmt.Sprintf("racing %d", j))
				if err := db.Create(n); err != nil {
					return
				}
				if _, err := db.Info(); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
	case <-time.After(15 * time.Second):
		t.Fatal("Close deadlocked against in-flight requests / cluster pushers")
	}
	wg.Wait()
}

// failoverPair is two cluster mates sharing a replica of apps/db.nsf. The
// servers are built but not started, so tests can install dispatch hooks
// first; call start before dialing.
type failoverPair struct {
	dir                *dir.Directory
	hub, spoke         *Server
	hubDB, spokeDB     *core.Database
	hubAddr, spokeAddr string
	hubDataDir         string
	replica            nsf.ReplicaID
}

func newFailoverPair(t *testing.T) *failoverPair {
	t.Helper()
	d := dir.New()
	d.AddUser(dir.User{Name: "ada", Secret: "ada-pw"})
	d.AddUser(dir.User{Name: "hub", Secret: "hub-secret"})
	d.AddUser(dir.User{Name: "spoke", Secret: "spoke-secret"})
	p := &failoverPair{dir: d, replica: nsf.NewReplicaID()}
	p.hubDataDir = filepath.Join(t.TempDir(), "hub")
	var err error
	p.hub, err = New(Options{Name: "hub", DataDir: p.hubDataDir, Directory: d, PeerSecret: "hub-secret"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.hub.Close() })
	p.spoke, err = New(Options{Name: "spoke", DataDir: filepath.Join(t.TempDir(), "spoke"), Directory: d, PeerSecret: "spoke-secret"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.spoke.Close() })
	p.hubDB, err = p.hub.OpenDB("apps/db.nsf", core.Options{Title: "db", ReplicaID: p.replica})
	if err != nil {
		t.Fatal(err)
	}
	p.spokeDB, err = p.spoke.OpenDB("apps/db.nsf", core.Options{Title: "db", ReplicaID: p.replica})
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*core.Database{p.hubDB, p.spokeDB} {
		db.ACL().Set("ada", acl.Editor)
		db.ACL().Set("hub", acl.Editor)
		db.ACL().Set("spoke", acl.Editor)
	}
	return p
}

func (p *failoverPair) start(t *testing.T) {
	t.Helper()
	var err error
	p.hubAddr, err = p.hub.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.spokeAddr, err = p.spoke.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
}

// TestFailoverKillMidNotesSession is the headline robustness claim: a mate
// dies in the middle of a client's write workload; the FailoverClient lands
// on the survivor and finishes, and after catch-up replication from the dead
// mate's surviving data directory, every acknowledged write exists on the
// survivor — zero lost acked writes.
func TestFailoverKillMidNotesSession(t *testing.T) {
	const killAt, total = 15, 40
	p := newFailoverPair(t)
	var creates atomic.Int32
	var once sync.Once
	hubClosed := make(chan struct{})
	p.hub.testPreDispatch = func(op wire.Op, _ time.Duration) {
		if op == wire.OpCreateNote && creates.Add(1) == killAt {
			once.Do(func() {
				go func() {
					p.hub.Close()
					close(hubClosed)
				}()
				// Hold this handler until Close severs the connection, so
				// the response (the ack) is provably lost mid-round-trip.
				time.Sleep(200 * time.Millisecond)
			})
		}
	}
	p.start(t)
	p.hub.EnableClustering(map[string]string{"spoke": p.spokeAddr})

	fc, err := wire.DialFailover([]string{p.hubAddr, p.spokeAddr}, "ada", "ada-pw",
		wire.FailoverOptions{Client: fastClientOpts(), Cooldown: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}

	// The create the mate dies in is ambiguous: it only counts once a live
	// mate confirms it, so the model's safe retry reads it back from the
	// survivor and re-issues it there if absent.
	model := check.NewModel()
	for i := 0; i < total; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("doc %d", i))
		if o, _ := model.Create(db, n, 0); o != check.Acked {
			t.Fatalf("create %d never acknowledged", i)
		}
	}
	if cur, ok := fc.Current(); !ok || cur != p.spokeAddr {
		t.Errorf("connected mate = %q, want survivor %q", cur, p.spokeAddr)
	}
	if st := fc.Stats(); st.Failovers == 0 {
		t.Errorf("stats = %+v, want Failovers > 0", st)
	}

	// Catch-up: the dead mate's data directory survived its death. Reopen
	// it and replicate into the survivor — exactly what the scheduled
	// replicator does when the node restarts.
	select {
	case <-hubClosed:
	case <-time.After(15 * time.Second):
		t.Fatal("hub close never completed")
	}
	reopened, err := core.Open(filepath.Join(p.hubDataDir, "apps", "db.nsf"), core.Options{})
	if err != nil {
		t.Fatalf("reopen dead mate's database: %v", err)
	}
	defer reopened.Close()
	if _, err := repl.Replicate(reopened, &repl.LocalPeer{DB: p.spokeDB}, repl.Options{PeerName: "catchup"}); err != nil {
		t.Fatalf("catch-up replication: %v", err)
	}
	if err := model.Durable(p.spokeDB).Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverKillMidReplicationSession: a replication session started
// against one mate survives that mate's death — every Peer operation is
// idempotent, so the session rides over to the survivor and converges.
func TestFailoverKillMidReplicationSession(t *testing.T) {
	const docs = 40
	p := newFailoverPair(t)
	var fetches atomic.Int32
	var once sync.Once
	hubClosed := make(chan struct{})
	p.hub.testPreDispatch = func(op wire.Op, _ time.Duration) {
		if op == wire.OpFetch && fetches.Add(1) == 2 {
			once.Do(func() {
				go func() {
					p.hub.Close()
					close(hubClosed)
				}()
				time.Sleep(200 * time.Millisecond)
			})
		}
	}
	p.start(t)

	// Seed both mates with identical content before the session.
	sess := p.hubDB.Session("admin")
	for i := 0; i < docs; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("seeded %d", i))
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := repl.Replicate(p.hubDB, &repl.LocalPeer{DB: p.spokeDB}, repl.Options{PeerName: "seed"}); err != nil {
		t.Fatal(err)
	}

	clientDB, err := core.Open(filepath.Join(t.TempDir(), "client.nsf"), core.Options{ReplicaID: p.replica})
	if err != nil {
		t.Fatal(err)
	}
	defer clientDB.Close()
	fc, err := wire.DialFailover([]string{p.hubAddr, p.spokeAddr}, "ada", "ada-pw",
		wire.FailoverOptions{Client: fastClientOpts(), Cooldown: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fdb, err := fc.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	// Small batches so the kill lands mid-pull, not before or after it.
	if _, err := repl.Replicate(clientDB, fdb, repl.Options{PeerName: "cluster", BatchSize: 5}); err != nil {
		t.Fatalf("replication session across mate death: %v", err)
	}
	got := 0
	clientDB.ScanAll(func(n *nsf.Note) bool {
		if n.Class == nsf.ClassDocument && !n.IsStub() {
			got++
		}
		return true
	})
	if got != docs {
		t.Errorf("client pulled %d documents, want %d", got, docs)
	}
	if st := fc.Stats(); st.Failovers == 0 {
		t.Errorf("stats = %+v, want Failovers > 0", st)
	}
	select {
	case <-hubClosed:
	case <-time.After(15 * time.Second):
		t.Fatal("hub close never completed")
	}
}
