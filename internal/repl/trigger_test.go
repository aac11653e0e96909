package repl

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nsf"
)

func openTriggerDB(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.Open(filepath.Join(t.TempDir(), "trig.nsf"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func expectFire(t *testing.T, tr *ChangeTrigger, what string) {
	t.Helper()
	select {
	case <-tr.C():
	case <-time.After(5 * time.Second):
		t.Fatalf("trigger did not fire: %s", what)
	}
}

func expectQuiet(t *testing.T, db *core.Database, tr *ChangeTrigger, what string) {
	t.Helper()
	db.Refresh() // subscriber has processed everything committed so far
	time.Sleep(20 * time.Millisecond)
	select {
	case <-tr.C():
		t.Fatalf("trigger fired: %s", what)
	default:
	}
}

func TestChangeTriggerFiresOnWrites(t *testing.T) {
	db := openTriggerDB(t)
	tr := NewChangeTrigger(db, 0)
	defer tr.Stop()
	s := db.Session("admin")
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "hello")
	if err := s.Create(n); err != nil {
		t.Fatal(err)
	}
	expectFire(t, tr, "after a document create")
}

func TestChangeTriggerCoalescesBursts(t *testing.T) {
	db := openTriggerDB(t)
	tr := NewChangeTrigger(db, 10*time.Millisecond)
	defer tr.Stop()
	s := db.Session("admin")
	for i := 0; i < 50; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("burst %d", i))
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	expectFire(t, tr, "after a write burst")
	// The whole burst coalesces into at most one extra pending signal; after
	// draining it the channel must go quiet.
	select {
	case <-tr.C():
	default:
	}
	expectQuiet(t, db, tr, "burst produced more than two signals")
}

// TestChangeTriggerIgnoresReplicationBookkeeping is the no-self-retrigger
// property: the history note saved at the end of a replication run (class
// ClassReplFormula) must not wake the replication loop again.
func TestChangeTriggerIgnoresReplicationBookkeeping(t *testing.T) {
	db := openTriggerDB(t)
	tr := NewChangeTrigger(db, 0)
	defer tr.Stop()
	h := &nsf.Note{
		OID:   nsf.OID{UNID: historyUNID("peer"), Seq: 1, SeqTime: db.Clock().Now()},
		Class: nsf.ClassReplFormula,
	}
	h.SetTime("LastPull", db.Clock().Now())
	if err := db.RawPut(h); err != nil {
		t.Fatal(err)
	}
	expectQuiet(t, db, tr, "history save retriggered replication")
}

func TestChangeTriggerStop(t *testing.T) {
	db := openTriggerDB(t)
	tr := NewChangeTrigger(db, 0)
	tr.Stop()
	s := db.Session("admin")
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "after stop")
	if err := s.Create(n); err != nil {
		t.Fatal(err)
	}
	expectQuiet(t, db, tr, "stopped trigger fired")
}

func TestChangeTriggerStopUnsubscribes(t *testing.T) {
	db := openTriggerDB(t)
	before := len(db.Stats().Feed.Subscribers)
	tr := NewChangeTrigger(db, 0)
	if got := len(db.Stats().Feed.Subscribers); got != before+1 {
		t.Fatalf("subscribers after NewChangeTrigger = %d, want %d", got, before+1)
	}
	tr.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for len(db.Stats().Feed.Subscribers) != before {
		if time.Now().After(deadline) {
			t.Fatalf("trigger subscription still registered after Stop: %+v",
				db.Stats().Feed.Subscribers)
		}
		time.Sleep(time.Millisecond)
	}
	tr.Stop() // idempotent
}
