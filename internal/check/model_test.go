package check_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/repl"
)

// lostAck is a client of two mates whose first create lands on the first
// mate and loses its ack; every later call goes to the second mate, which
// the first pushes to once the client has read back pushAfter times.
type lostAck struct {
	t                    *testing.T
	first, second        *core.Database
	creates, gets, after int
}

func (c *lostAck) Create(n *nsf.Note) error {
	if c.creates++; c.creates == 1 {
		if err := c.first.Session("ada").Create(n.Clone()); err != nil {
			c.t.Fatal(err)
		}
		return errors.New("connection reset after the request was sent")
	}
	return c.second.Session("ada").Create(n)
}

func (c *lostAck) Get(u nsf.UNID) (*nsf.Note, error) {
	if c.gets++; c.gets == c.after {
		if _, err := repl.Replicate(c.second, &repl.LocalPeer{DB: c.first}, repl.Options{PeerName: "push"}); err != nil {
			c.t.Fatal(err)
		}
	}
	return c.second.Session("ada").Get(u)
}

func openMates(t *testing.T) (a, b *core.Database) {
	t.Helper()
	replica := nsf.NewReplicaID()
	var dbs []*core.Database
	for _, name := range []string{"a.nsf", "b.nsf"} {
		db, err := core.Open(filepath.Join(t.TempDir(), name), core.Options{ReplicaID: replica})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		dbs = append(dbs, db)
	}
	return dbs[0], dbs[1]
}

// TestSafeCreateLandsOnce: a create whose ack is lost on one mate is read
// back from the other until the push surfaces it, and is acked without a
// second landing; the audit of both mates finds it once.
func TestSafeCreateLandsOnce(t *testing.T) {
	a, b := openMates(t)
	c := &lostAck{t: t, first: a, second: b, after: 3}
	model := check.NewModel()
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "acked once")
	if o, retried := model.Create(c, n, time.Second); o != check.Acked || !retried {
		t.Fatalf("outcome %v, retried %v; want acked after a retry", o, retried)
	}
	if c.creates != 1 {
		t.Errorf("create sent %d times, want 1", c.creates)
	}
	if _, err := repl.Replicate(a, &repl.LocalPeer{DB: b}, repl.Options{PeerName: "mate"}); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*core.Database{a, b} {
		if err := model.Durable(db).Err(); err != nil {
			t.Error(err)
		}
	}
	if err := check.Identical(a, b); err != nil {
		t.Error(err)
	}
}

// TestDurableFindsEveryViolation: the audit is not vacuous. Each promise
// broken once on a database is reported once, under its own count.
func TestDurableFindsEveryViolation(t *testing.T) {
	db, _ := openMates(t)
	s := db.Session("ada")
	model := check.NewModel()
	create := func(subject string) *nsf.Note {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", subject)
		return n
	}
	lost := create("acked, never stored")
	model.Created(lost, check.Acked)

	refused := create("refused, stored anyway")
	if err := s.Create(refused); err != nil {
		t.Fatal(err)
	}
	model.Created(refused, check.Refused)

	twice := create("landed twice")
	if err := s.Create(twice); err != nil {
		t.Fatal(err)
	}
	model.Created(twice, check.Acked)
	again := twice.Clone()
	again.OID.UNID = nsf.NewUNID()
	if err := s.Create(again); err != nil {
		t.Fatal(err)
	}

	undeleted := create("acked delete, still live")
	if err := s.Create(undeleted); err != nil {
		t.Fatal(err)
	}
	model.Created(undeleted, check.Acked)
	model.Deleted(undeleted.OID.UNID, check.Acked)

	r := model.Durable(db)
	if r.Lost != 2 || r.Duplicated != 1 || r.Applied != 1 {
		t.Errorf("report %+v, want 2 lost, 1 duplicated, 1 applied", r)
	}
}
