package check_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/faultnet"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wire"
)

// kind is one operation class of a history.
type kind uint8

const (
	create kind = iota
	update
	remove
	get
	replicate
	drain
)

// op is one generated operation. key is a draw the executor folds onto
// whatever the operation addresses when it runs, so the op list names no
// UNID and one seed always generates the same list.
type op struct {
	kind kind
	key  uint32
}

// genOps derives a history of n operations from seed.
func genOps(seed int64, n int) []op {
	weights := [...]int{create: 4, update: 4, remove: 1, get: 3, replicate: 1, drain: 1}
	total := 0
	for _, w := range weights {
		total += w
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		draw := rng.Intn(total)
		k := kind(0)
		for draw >= weights[k] {
			draw -= weights[k]
			k++
		}
		ops[i] = op{kind: k, key: rng.Uint32()}
	}
	return ops
}

// hashOps fingerprints an op list, so two runs can prove they drove the
// same history.
func hashOps(ops []op) string {
	h := sha256.New()
	var b [5]byte
	for _, o := range ops {
		b[0] = byte(o.kind)
		binary.LittleEndian.PutUint32(b[1:], o.key)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// classify is the caller's half of the contract: what a wire error says
// about whether the write was applied.
func classify(err error) check.Outcome {
	var (
		de *wire.DeadlineError
		se *wire.ServerError
		be *wire.BusyError
	)
	switch {
	case err == nil:
		return check.Acked
	case errors.As(err, &de):
		if de.Ambiguous {
			return check.Ambiguous
		}
		return check.Refused
	case errors.As(err, &se), errors.As(err, &be):
		return check.Refused
	}
	return check.Ambiguous
}

// pair is two clustered mates holding one replica each of the database
// the history writes.
type pair struct {
	srvs  []*server.Server
	addrs []string
	dbs   []*core.Database
}

func newPair(t *testing.T) *pair {
	t.Helper()
	const path = "apps/history.nsf"
	d := dir.New()
	d.AddUser(dir.User{Name: "ada", Secret: "ada-pw"})
	names := []string{"a", "b"}
	replica := nsf.NewReplicaID()
	p := &pair{}
	for _, name := range names {
		d.AddUser(dir.User{Name: name, Secret: name + "-secret"})
		s, err := server.New(server.Options{
			Name: name, DataDir: filepath.Join(t.TempDir(), name), Directory: d, PeerSecret: name + "-secret",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		db, err := s.OpenDB(path, core.Options{Title: "history", ReplicaID: replica})
		if err != nil {
			t.Fatal(err)
		}
		for _, user := range append([]string{"ada"}, names...) {
			db.ACL().Set(user, acl.Editor)
		}
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p.srvs, p.dbs, p.addrs = append(p.srvs, s), append(p.dbs, db), append(p.addrs, addr)
	}
	p.srvs[0].EnableClustering(map[string]string{"b": p.addrs[1]})
	p.srvs[1].EnableClustering(map[string]string{"a": p.addrs[0]})
	return p
}

// reconciled is the history's client for the safe-retry create. Before
// each read-back it drains both mates, which finishes every request they
// admitted and flushes their cluster pushes, then replicates them with each
// other: the read-back sees a create that either mate applied, however
// slow its push. A re-issue could double a create only if a mate admitted
// the first attempt more than the settle after the client gave up on it.
type reconciled struct {
	t  *testing.T
	p  *pair
	db *wire.FailoverDB
}

func (c reconciled) Create(n *nsf.Note) error { return c.db.Create(n) }

func (c reconciled) Get(u nsf.UNID) (*nsf.Note, error) {
	for _, s := range c.p.srvs {
		if err := s.Quiesce(5 * time.Second); err != nil {
			c.t.Fatal(err)
		}
	}
	if _, err := repl.Replicate(c.p.dbs[0], &repl.LocalPeer{DB: c.p.dbs[1]}, repl.Options{PeerName: "mate"}); err != nil {
		c.t.Fatal(err)
	}
	for _, s := range c.p.srvs {
		s.Resume()
	}
	return c.db.Get(u)
}

// TestSeededHistory drives a seeded mix of creates, updates, deletes, gets,
// mate-to-mate replication and writes against two draining mates (which
// shed them: refused) through a failover client whose connections a fault
// plan severs and delays under a tight per-op budget. It records every
// outcome in the model, and once the faults stop and the mates converge
// requires both mates to show every acknowledged outcome, no create twice,
// and nothing that was refused.
func TestSeededHistory(t *testing.T) {
	const seed, n = 7, 300
	ops := genOps(seed, n)
	if a, b := hashOps(ops), hashOps(genOps(seed, n)); a != b {
		t.Fatalf("one seed generated two histories: %s, %s", a, b)
	}
	if hashOps(ops) == hashOps(genOps(seed+1, n)) {
		t.Fatal("two seeds generated one history")
	}

	p := newPair(t)
	faults := faultnet.New(faultnet.Plan{
		Seed: seed, SeverProb: 0.05, DelayProb: 0.1, MaxDelay: 30 * time.Millisecond,
	})
	fc, err := wire.DialFailover(p.addrs, "ada", "ada-pw", wire.FailoverOptions{
		Client: wire.Options{
			OpBudget: 20 * time.Millisecond, DialTimeout: time.Second,
			BackoffBase: 8 * time.Millisecond, BackoffMax: 16 * time.Millisecond,
			Jitter: rand.New(rand.NewSource(seed)), Dialer: faults.Dial,
		},
		Cooldown: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	var db *wire.FailoverDB
	for db == nil {
		if db, err = fc.OpenDB("apps/history.nsf"); err != nil && classify(err) == check.Refused {
			t.Fatal(err)
		}
	}

	model := check.NewModel()
	var live []*nsf.Note // documents the client believes exist
	var outcomes [4]int  // by check.Outcome
	pick := func(key uint32) (int, bool) {
		if len(live) == 0 {
			return 0, false
		}
		return int(key % uint32(len(live))), true
	}
	write := func(i int, k kind, key uint32) {
		switch k {
		case create:
			n := nsf.NewNote(nsf.ClassDocument)
			n.SetText("Subject", fmt.Sprintf("history %d op %d", seed, i))
			got, _ := model.Create(reconciled{t, p, db}, n, 250*time.Millisecond)
			outcomes[got]++
			if got != check.Refused {
				live = append(live, n)
			}
		case update:
			k, ok := pick(key)
			if !ok {
				return
			}
			n := live[k].Clone()
			n.SetText("Body", fmt.Sprintf("op %d", i))
			got := classify(db.Update(n))
			outcomes[got]++
			model.Updated(n, got)
			if got == check.Acked {
				live[k] = n
			}
		case remove:
			k, ok := pick(key)
			if !ok {
				return
			}
			got := classify(db.Delete(live[k].OID.UNID))
			outcomes[got]++
			model.Deleted(live[k].OID.UNID, got)
			if got != check.Refused {
				live = append(live[:k], live[k+1:]...)
			}
		}
	}
	for i, o := range ops {
		switch o.kind {
		case create, update, remove:
			write(i, o.kind, o.key)
		case drain:
			for _, s := range p.srvs {
				if err := s.Quiesce(5 * time.Second); err != nil {
					t.Fatal(err)
				}
			}
			// A create goes out once: reading it back would only be shed.
			n := nsf.NewNote(nsf.ClassDocument)
			n.SetText("Subject", fmt.Sprintf("history %d op %d, shed", seed, i))
			got := classify(db.Create(n))
			outcomes[got]++
			model.Created(n, got)
			write(i, update, o.key)
			write(i, remove, o.key)
			for _, s := range p.srvs {
				s.Resume()
			}
		case get:
			if k, ok := pick(o.key); ok {
				if n, err := db.Get(live[k].OID.UNID); err == nil && n.OID.UNID != live[k].OID.UNID {
					t.Errorf("get %s returned %s", live[k].OID.UNID, n.OID.UNID)
				}
			}
		case replicate:
			if _, err := repl.Replicate(p.dbs[o.key%2], &repl.LocalPeer{DB: p.dbs[1-o.key%2]}, repl.Options{PeerName: "mate"}); err != nil {
				t.Fatalf("op %d: replicate: %v", i, err)
			}
		}
	}
	t.Logf("acked %d, ambiguous %d, refused %d; faults %+v", outcomes[check.Acked], outcomes[check.Ambiguous], outcomes[check.Refused], faults.Stats())

	// Quiesce: no more faults, one reconciling round, then the mates must
	// converge on their own.
	faults.Disable()
	if _, err := repl.Replicate(p.dbs[0], &repl.LocalPeer{DB: p.dbs[1]}, repl.Options{PeerName: "mate"}); err != nil {
		t.Fatal(err)
	}
	if _, err := check.WaitConverged(10*time.Second, p.dbs...); err != nil {
		t.Fatal(err)
	}
	if err := check.Identical(p.dbs...); err != nil {
		t.Fatal(err)
	}
	for i, db := range p.dbs {
		if err := model.Durable(db).Err(); err != nil {
			t.Errorf("mate %d: %v", i, err)
		}
	}
	if outcomes[check.Acked] == 0 || outcomes[check.Refused] == 0 {
		t.Error("no write was acknowledged, or none refused: the history checked too little")
	}
}
