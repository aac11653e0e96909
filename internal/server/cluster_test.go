package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/nsf"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClusterPushReplication(t *testing.T) {
	tn := newTestNet(t)
	replica := nsf.NewReplicaID()
	hubDB, err := tn.hub.OpenDB("apps/clustered.nsf", core.Options{Title: "c", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	spokeDB, err := tn.spoke.OpenDB("apps/clustered.nsf", core.Options{Title: "c", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	hubDB.ACL().Set("spoke", acl.Editor)
	spokeDB.ACL().Set("hub", acl.Editor)
	// Hub pushes events to spoke as they happen.
	tn.hub.EnableClustering(map[string]string{"spoke": tn.spokeAddr})

	sess := hubDB.Session("admin")
	var unids []nsf.UNID
	for i := 0; i < 20; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("pushed %d", i))
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	waitFor(t, "cluster push of creates", func() bool {
		n := 0
		spokeDB.ScanAll(func(x *nsf.Note) bool {
			if x.Class == nsf.ClassDocument && !x.IsStub() {
				n++
			}
			return true
		})
		return n == 20
	})
	// Updates and deletes push too.
	doc, _ := sess.Get(unids[0])
	doc.SetText("Subject", "pushed update")
	if err := sess.Update(doc); err != nil {
		t.Fatal(err)
	}
	if err := sess.Delete(unids[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cluster push of update", func() bool {
		n, err := spokeDB.RawGet(unids[0])
		return err == nil && n.Text("Subject") == "pushed update"
	})
	waitFor(t, "cluster push of delete", func() bool {
		n, err := spokeDB.RawGet(unids[1])
		return err == nil && n.IsStub()
	})
	waitFor(t, "lag 0", func() bool { return tn.hub.pushers()[0].lag() == 0 })
}

func TestClusterDatabaseOpenedAfterEnable(t *testing.T) {
	tn := newTestNet(t)
	replica := nsf.NewReplicaID()
	// Enable clustering before the database exists on the hub.
	tn.hub.EnableClustering(map[string]string{"spoke": tn.spokeAddr})
	spokeDB, err := tn.spoke.OpenDB("apps/late.nsf", core.Options{Title: "late", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	spokeDB.ACL().Set("hub", acl.Editor)
	hubDB, err := tn.hub.OpenDB("apps/late.nsf", core.Options{Title: "late", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "late doc")
	if err := hubDB.Session("admin").Create(n); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "push on late-opened db", func() bool {
		_, err := spokeDB.RawGet(n.OID.UNID)
		return err == nil
	})
}

// writeHistory creates, updates and deletes documents on db through a
// session, numbering subjects from base, and returns the live documents.
func writeHistory(t *testing.T, db *core.Database, base int, live []*nsf.Note) []*nsf.Note {
	t.Helper()
	sess := db.Session("admin")
	for i := 0; i < 12; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("doc %d", base+i))
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
		live = append(live, n)
	}
	for _, n := range live[:4] {
		n.SetText("Body", fmt.Sprintf("edited after %d", base))
		if err := sess.Update(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range live[4:6] {
		if err := sess.Delete(n.OID.UNID); err != nil {
			t.Fatal(err)
		}
	}
	return append(live[:4:4], live[6:]...)
}

// waitIdentical waits for check.Identical to hold between the databases.
func waitIdentical(t *testing.T, dbs ...*core.Database) {
	t.Helper()
	if _, err := check.WaitConverged(10*time.Second, dbs...); err != nil {
		t.Fatal(err)
	}
	if err := check.Identical(dbs...); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPushSurvivesOutage: creates, updates and deletes made while
// the mate is unreachable are pushed once it is back, with no mesh and no
// replicate link — the cursor stood still instead of dropping them — and a
// drain during the outage is not held up by the dead mate.
func TestClusterPushSurvivesOutage(t *testing.T) {
	p := newFailoverPair(t)
	var err error
	if p.hubAddr, err = p.hub.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	outage := faultnet.New(faultnet.Plan{DropProb: 1, SeverProb: 1})
	outage.Disable()
	p.spokeAddr = p.spoke.Serve(outage.Listener(ln))
	p.hub.EnableClustering(map[string]string{"spoke": p.spokeAddr})

	live := writeHistory(t, p.hubDB, 0, nil)
	waitIdentical(t, p.hubDB, p.spokeDB)

	// A mate handler already blocked in a read when the outage starts still
	// reads the next push, and only its reply is severed: push once and
	// wait for that, so the history below meets a mate that is down.
	outage.Enable()
	writeHistory(t, p.hubDB, 50, nil)
	waitFor(t, "the outage to sever the push session", func() bool {
		st := outage.Stats()
		return st.Severs+st.Drops > 0
	})
	writeHistory(t, p.hubDB, 100, live)
	if err := p.hub.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("quiesce with the mate down: %v", err)
	}
	p.hub.Resume()
	if lag := p.hub.pushers()[0].lag(); lag == 0 {
		t.Error("lag 0 while the mate is down")
	}
	report := p.hub.MonitorReport()
	if last := report[len(report)-1]; !strings.Contains(last, "lag[spoke]=") {
		t.Errorf("monitor report %q has no lag for the mate", last)
	}
	if err := check.Converged(p.hubDB, p.spokeDB); err == nil {
		t.Fatal("the mate converged during the outage")
	}

	outage.Disable()
	waitIdentical(t, p.hubDB, p.spokeDB)
	waitFor(t, "lag 0", func() bool { return p.hub.pushers()[0].lag() == 0 })
}

// TestClusterPushSurvivesMateRestart: the mate is closed while home writes
// and pushes, and reopened on the same data directory and address; it
// converges with no mesh and no replicate link.
func TestClusterPushSurvivesMateRestart(t *testing.T) {
	p := newFailoverPair(t)
	p.start(t)
	p.hub.EnableClustering(map[string]string{"spoke": p.spokeAddr})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := p.hubDB.Session("admin")
		for i := 0; i < 200; i++ {
			n := nsf.NewNote(nsf.ClassDocument)
			n.SetText("Subject", fmt.Sprintf("racing %d", i))
			if err := sess.Create(n); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				time.Sleep(5 * time.Millisecond) // let a push get under way
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := p.spoke.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	writeHistory(t, p.hubDB, 1000, nil)

	spoke, err := New(Options{Name: "spoke", DataDir: p.spoke.opts.DataDir, Directory: p.dir, PeerSecret: "spoke-secret"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spoke.Close() })
	spokeDB, err := spoke.OpenDB("apps/db.nsf", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if spokeDB.ReplicaID() != p.replica {
		t.Fatalf("reopened mate holds replica %s, want %s", spokeDB.ReplicaID(), p.replica)
	}
	if _, err := spoke.Start(p.spokeAddr); err != nil {
		t.Fatal(err)
	}
	waitIdentical(t, p.hubDB, spokeDB)
}

// TestClusterPushSkipsOtherReplica: a mate holding an unrelated database
// at the same path gets none of home's notes for it; the refusal is logged
// once, leaves the lag count, and the databases the mate does share keep
// being pushed.
func TestClusterPushSkipsOtherReplica(t *testing.T) {
	tn := newTestNet(t)
	shared := nsf.NewReplicaID()
	open := func(s *Server, path string, replica nsf.ReplicaID) *core.Database {
		db, err := s.OpenDB(path, core.Options{Title: path, ReplicaID: replica})
		if err != nil {
			t.Fatal(err)
		}
		db.ACL().Set("hub", acl.Editor)
		return db
	}
	hubMail := open(tn.hub, "mail/ops.nsf", nsf.NewReplicaID())
	spokeMail := open(tn.spoke, "mail/ops.nsf", nsf.NewReplicaID())
	hubShared := open(tn.hub, "apps/shared.nsf", shared)
	spokeShared := open(tn.spoke, "apps/shared.nsf", shared)
	tn.hub.EnableClustering(map[string]string{"spoke": tn.spokeAddr})

	for i := 0; i < 3; i++ {
		mine := nsf.NewNote(nsf.ClassDocument)
		mine.SetText("Subject", fmt.Sprintf("hub's own mail %d", i))
		if err := hubMail.Session("admin").Create(mine); err != nil {
			t.Fatal(err)
		}
		doc := nsf.NewNote(nsf.ClassDocument)
		doc.SetText("Subject", fmt.Sprintf("shared %d", i))
		if err := hubShared.Session("admin").Create(doc); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "push of the shared database", func() bool {
			_, err := spokeShared.RawGet(doc.OID.UNID)
			return err == nil
		})
		if _, err := spokeMail.RawGet(mine.OID.UNID); err == nil {
			t.Fatalf("note %d of home's mail file landed in the mate's unrelated one", i)
		}
	}
	waitFor(t, "lag 0", func() bool { return tn.hub.pushers()[0].lag() == 0 })
	refusals := 0
	for _, line := range logTexts(t, tn.hub, LogCluster) {
		if strings.Contains(line, "refused mail/ops.nsf") {
			refusals++
		}
	}
	if refusals != 1 {
		t.Errorf("%d refusal log lines, want 1", refusals)
	}
}

func TestCatalogRefresh(t *testing.T) {
	tn := newTestNet(t)
	if _, err := tn.hub.OpenDB("apps/one.nsf", core.Options{Title: "One"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.hub.OpenDB("apps/two.nsf", core.Options{Title: "Two"}); err != nil {
		t.Fatal(err)
	}
	written, err := tn.hub.RefreshCatalog()
	if err != nil {
		t.Fatalf("RefreshCatalog: %v", err)
	}
	// mail.box + ada's mail file (created lazily? not yet) + one + two.
	if written < 3 {
		t.Errorf("catalog wrote %d entries", written)
	}
	cat, ok := tn.hub.DB(CatalogPath)
	if !ok {
		t.Fatal("catalog database missing")
	}
	titles := make(map[string]string)
	cat.ScanAll(func(n *nsf.Note) bool {
		if n.Text("Form") == "Catalog" {
			titles[n.Text("Path")] = n.Text("Title")
		}
		return true
	})
	if titles["apps/one.nsf"] != "One" || titles["apps/two.nsf"] != "Two" {
		t.Errorf("catalog entries = %v", titles)
	}
	// Refresh is idempotent: same entry count, updated in place.
	before := cat.Count()
	if _, err := tn.hub.RefreshCatalog(); err != nil {
		t.Fatal(err)
	}
	if cat.Count() != before {
		t.Errorf("catalog grew on refresh: %d -> %d", before, cat.Count())
	}
}
