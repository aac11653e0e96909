package place_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/nsf"
	"repro/internal/place"
	"repro/internal/server"
	"repro/internal/wire"
)

const dbPath = "apps/db.nsf"

// rig is a small cluster sharing one directory: every mate knows every
// other mate's address, and apps/db.nsf is opened (same replica ID) on the
// mates named in holders.
type rig struct {
	d       *dir.Directory
	srv     map[string]*server.Server
	addr    map[string]string
	data    map[string]string
	replica nsf.ReplicaID
}

func newRig(t *testing.T, names, holders []string) *rig {
	t.Helper()
	r := &rig{
		d:       dir.New(),
		srv:     map[string]*server.Server{},
		addr:    map[string]string{},
		data:    map[string]string{},
		replica: nsf.NewReplicaID(),
	}
	r.d.AddUser(dir.User{Name: "ada", Secret: "ada-pw"})
	for _, name := range names {
		r.d.AddUser(dir.User{Name: name, Secret: name + "-secret"})
		r.data[name] = filepath.Join(t.TempDir(), name)
		s, err := server.New(server.Options{
			Name: name, DataDir: r.data[name], Directory: r.d, PeerSecret: name + "-secret",
		})
		if err != nil {
			t.Fatal(err)
		}
		r.srv[name] = s
		t.Cleanup(func() { s.Close() })
	}
	for _, name := range holders {
		db, err := r.srv[name].OpenDB(dbPath, core.Options{Title: "db", ReplicaID: r.replica})
		if err != nil {
			t.Fatal(err)
		}
		db.ACL().Set("ada", acl.Editor)
		for _, m := range names {
			db.ACL().Set(m, acl.Editor)
		}
	}
	for _, name := range names {
		addr, err := r.srv[name].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		r.addr[name] = addr
	}
	for _, name := range names {
		peers := map[string]string{}
		for _, other := range names {
			if other != name {
				peers[other] = r.addr[other]
			}
		}
		r.srv[name].SetPeers(peers)
	}
	return r
}

func (r *rig) addrs(names ...string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, r.addr[n])
	}
	return out
}

func (r *rig) db(t *testing.T, name string) *core.Database {
	t.Helper()
	db, ok := r.srv[name].DB(dbPath)
	if !ok {
		t.Fatalf("%s does not hold %s", name, dbPath)
	}
	return db
}

func fastOpts() wire.Options {
	return wire.Options{
		MaxRetries:  -1,
		DialTimeout: 2 * time.Second,
		OpTimeout:   5 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

// ackedWriter streams single-document creates through a failover handle
// until stopped, each under the model's safe-retry create, and counts the
// acknowledged ones.
type ackedWriter struct {
	model *check.Model
	acked atomic.Int64
	stop  atomic.Bool
	done  chan struct{}
}

func startWriter(t *testing.T, db *wire.FailoverDB) *ackedWriter {
	w := &ackedWriter{model: check.NewModel(), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for i := 0; !w.stop.Load(); i++ {
			n := nsf.NewNote(nsf.ClassDocument)
			n.SetText("Subject", fmt.Sprintf("doc-%d", i))
			// A create not confirmed within one round of the protocol is
			// still unsettled: run it again, as the same create.
			o := check.Ambiguous
			for round := 0; o != check.Acked; round++ {
				if round == 3 {
					t.Errorf("doc-%d never acked", i)
					return
				}
				o, _ = w.model.Create(db, n, 0)
			}
			w.acked.Add(1)
		}
	}()
	return w
}

func (w *ackedWriter) count() int { return int(w.acked.Load()) }

func (w *ackedWriter) waitFor(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for w.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("writer stuck at %d acked writes, want %d", w.count(), n)
		}
		select {
		case <-w.done:
			t.Fatalf("writer exited early at %d acked writes", w.count())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// finish stops the writer and returns its model of what was acked.
func (w *ackedWriter) finish() *check.Model {
	w.stop.Store(true)
	<-w.done
	return w.model
}

// TestLiveMoveZeroLostAckedWrites is the headline: a database moves between
// mates while a client streams writes through a failover handle with a
// placement cache that goes stale mid-move. The client transparently
// re-resolves after the flip (WrongMate redirect), keeps writing, and at the
// end every acknowledged write exists on the new home.
func TestLiveMoveZeroLostAckedWrites(t *testing.T) {
	r := newRig(t, []string{"alpha", "beta"}, []string{"alpha"})
	if _, err := r.d.SetPlacement(dbPath, []string{"alpha"}, 1); err != nil {
		t.Fatal(err)
	}

	fc, err := wire.DialFailover(r.addrs("alpha", "beta"), "ada", "ada-pw",
		wire.FailoverOptions{Client: fastOpts(), Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB(dbPath)
	if err != nil {
		t.Fatal(err)
	}

	// A second handle left idle across the move: its cached placement goes
	// stale and its first post-move write must hit the resumed source and be
	// redirected — deterministically, unlike the streaming writer, whose op
	// may instead land in the quiesce window (busy shed) or ride a reconnect.
	fc2, err := wire.DialFailover(r.addrs("alpha", "beta"), "ada", "ada-pw",
		wire.FailoverOptions{Client: fastOpts(), Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fc2.Close()
	db2, err := fc2.OpenDB(dbPath)
	if err != nil {
		t.Fatal(err)
	}

	w := startWriter(t, db)
	w.waitFor(t, 15)

	res, err := place.Move(r.d, r.srv["alpha"], r.srv["beta"], dbPath,
		place.MoveOptions{BackupRoot: t.TempDir(), QuiesceTimeout: 5 * time.Second, Log: t.Logf})
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	if res.Generation != 2 || len(res.To) != 1 || res.To[0] != "beta" {
		t.Fatalf("move result = %+v", res)
	}

	// The writer must keep acking after the flip — through the redirect.
	// Count from AFTER Move returns: acks landed during catch-up would
	// otherwise satisfy the target with no post-flip op ever issued.
	atMove := w.count()
	w.waitFor(t, atMove+10)
	acked := w.finish()

	p, ok := r.d.GetPlacement(dbPath)
	if !ok || p.Generation != 2 || len(p.Home) != 1 || p.Home[0] != "beta" {
		t.Fatalf("placement after move = %+v", p)
	}
	if err := acked.Durable(r.db(t, "beta")).Err(); err != nil {
		t.Error(err)
	}
	// The streaming writer was re-routed by some transparent mechanism: a
	// WrongMate redirect after the flip, a busy shed during the fence, or a
	// transport failover whose rebind adopted the carried record.
	if st := fc.Stats(); st.WrongMateRedirects+st.BusyRedirects+st.Failovers == 0 {
		t.Error("stale streaming client was never re-routed")
	}
	// The idle handle's cache is definitely stale; its write must be
	// redirected by the resumed source and still succeed on the new home.
	late := nsf.NewNote(nsf.ClassDocument)
	late.SetText("Subject", "after-move")
	if err := db2.Create(late); err != nil {
		t.Fatalf("stale idle client create after move: %v", err)
	}
	if st := fc2.Stats(); st.WrongMateRedirects == 0 {
		t.Error("stale idle client produced no WrongMate redirect")
	}
	if _, err := r.db(t, "beta").RawGet(late.OID.UNID); err != nil {
		t.Errorf("post-move write missing on new home: %v", err)
	}
	// The source resumed and redirects rather than serving or hanging.
	if _, err := wire.ResolvePlacement(r.addr["alpha"], dbPath, nil, 0); err != nil {
		t.Errorf("source not serving resolves after move: %v", err)
	}
}

// TestConcurrentMovesExactlyOneWinner races two movers for the same
// database against a stream of PutBatch writers: exactly one move commits,
// the placement advances exactly one generation, and every acknowledged
// batch lands on the winning home. Run under -race (make stress).
func TestConcurrentMovesExactlyOneWinner(t *testing.T) {
	r := newRig(t, []string{"alpha", "beta", "gamma"}, []string{"alpha"})
	if _, err := r.d.SetPlacement(dbPath, []string{"alpha"}, 1); err != nil {
		t.Fatal(err)
	}

	fc, err := wire.DialFailover(r.addrs("alpha", "beta", "gamma"), "ada", "ada-pw",
		wire.FailoverOptions{Client: fastOpts(), Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB(dbPath)
	if err != nil {
		t.Fatal(err)
	}

	// PutBatch writers: acked batches recorded in the model; the batch cursor
	// plus create-or-update semantics make whole-batch retries safe.
	acked := check.NewModel()
	var stop atomic.Bool
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		for i := 0; !stop.Load(); i++ {
			notes := make([]*nsf.Note, 4)
			for j := range notes {
				n := nsf.NewNote(nsf.ClassDocument)
				n.SetText("Subject", fmt.Sprintf("batch-%d-%d", i, j))
				notes[j] = n
			}
			for attempt := 0; ; attempt++ {
				if _, err := db.PutBatch(notes); err == nil {
					break
				}
				if attempt > 5000 {
					t.Errorf("batch %d never acked", i)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			for _, n := range notes {
				acked.Created(n, check.Acked)
			}
		}
	}()

	targets := []string{"beta", "gamma"}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = place.Move(r.d, r.srv["alpha"], r.srv[tgt], dbPath,
				place.MoveOptions{BackupRoot: t.TempDir(), QuiesceTimeout: 5 * time.Second})
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-writersDone

	var winner string
	wins := 0
	for i, tgt := range targets {
		if errs[i] == nil {
			wins++
			winner = tgt
		} else if !errors.Is(errs[i], dir.ErrPlacementConflict) {
			t.Errorf("loser %s failed with %v, want placement conflict", tgt, errs[i])
		}
	}
	if wins != 1 {
		t.Fatalf("%d moves won, want exactly 1 (errs: %v)", wins, errs)
	}
	p, ok := r.d.GetPlacement(dbPath)
	if !ok || p.Generation != 2 || len(p.Home) != 1 || p.Home[0] != winner {
		t.Fatalf("placement = %+v, want gen 2 home [%s]", p, winner)
	}

	if err := acked.Durable(r.db(t, winner)).Err(); err != nil {
		t.Error(err)
	}
}

// TestRecoverDeadMate re-homes a database off a killed mate: restore its
// last backup image on a survivor, carry the post-backup delta straight off
// the dead data directory, and flip placement — no write that reached the
// dead mate's disk is lost.
func TestRecoverDeadMate(t *testing.T) {
	r := newRig(t, []string{"alpha", "beta"}, []string{"alpha"})
	if _, err := r.d.SetPlacement(dbPath, []string{"alpha"}, 1); err != nil {
		t.Fatal(err)
	}
	backupRoot := t.TempDir()

	alphaDB := r.db(t, "alpha")
	acked := check.NewModel()
	written := 0
	write := func(k int) {
		for i := 0; i < k; i++ {
			n := nsf.NewNote(nsf.ClassDocument)
			n.SetText("Subject", fmt.Sprintf("doc-%d", written))
			if err := alphaDB.RawPut(n); err != nil {
				t.Fatal(err)
			}
			acked.Created(n, check.Acked)
			written++
		}
	}
	write(10)
	if _, err := r.srv["alpha"].BackupDB(dbPath, backupRoot, true); err != nil {
		t.Fatal(err)
	}
	write(5) // delta beyond the image, only on alpha's disk

	if err := r.srv["alpha"].Close(); err != nil {
		t.Fatal(err)
	}

	res, err := place.Recover(r.d, "alpha", r.srv["beta"], dbPath, place.RecoverOptions{
		BackupRoot:  backupRoot,
		DeadDataDir: r.data["alpha"],
		Log:         t.Logf,
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if res.Generation != 2 || len(res.To) != 1 || res.To[0] != "beta" {
		t.Fatalf("recover result = %+v", res)
	}
	if err := acked.Durable(r.db(t, "beta")).Err(); err != nil {
		t.Error(err)
	}
	p, _ := r.d.GetPlacement(dbPath)
	if p.Generation != 2 || len(p.Home) != 1 || p.Home[0] != "beta" {
		t.Fatalf("placement after recover = %+v", p)
	}
}

// TestMoveReusesExistingCopy: when the target already replicates the
// database (a standing cluster replica), Move skips the image stage and
// needs no BackupRoot.
func TestMoveReusesExistingCopy(t *testing.T) {
	r := newRig(t, []string{"alpha", "beta"}, []string{"alpha", "beta"})
	if _, err := r.d.SetPlacement(dbPath, []string{"alpha"}, 1); err != nil {
		t.Fatal(err)
	}
	alphaDB := r.db(t, "alpha")
	const docs = 8
	acked := check.NewModel()
	for i := 0; i < docs; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("doc-%d", i))
		if err := alphaDB.RawPut(n); err != nil {
			t.Fatal(err)
		}
		acked.Created(n, check.Acked)
	}
	res, err := place.Move(r.d, r.srv["alpha"], r.srv["beta"], dbPath, place.MoveOptions{})
	if err != nil {
		t.Fatalf("move without BackupRoot onto standing replica: %v", err)
	}
	if res.Moved < docs {
		t.Errorf("catch-up moved %d notes, want >= %d", res.Moved, docs)
	}
	if err := acked.Durable(r.db(t, "beta")).Err(); err != nil {
		t.Error(err)
	}
}
