package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/nsf"
	"repro/internal/wire"
)

// meshNet is a testNet with a shared replica on both servers and the mesh
// enabled on the hub.
func newMeshNet(t *testing.T) (*testNet, *mesh.Mesh, *core.Database, *core.Database) {
	t.Helper()
	net := newTestNet(t)
	replica := nsf.NewReplicaID()
	hubDB, err := net.hub.OpenDB("apps/meshed.nsf", core.Options{Title: "meshed", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	spokeDB, err := net.spoke.OpenDB("apps/meshed.nsf", core.Options{Title: "meshed", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	hubDB.ACL().Set("spoke", acl.Editor)
	spokeDB.ACL().Set("hub", acl.Editor)
	m, err := net.hub.EnableMesh(mesh.Options{
		Interval: 30 * time.Millisecond,
		Debounce: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("EnableMesh: %v", err)
	}
	return net, m, hubDB, spokeDB
}

// TestMeshOverWire runs a hot mesh link between two real servers over the
// wire protocol and audits that the replicas converge to identical
// (UNID, Seq, SeqTime) fingerprints.
func TestMeshOverWire(t *testing.T) {
	net, m, hubDB, spokeDB := newMeshNet(t)
	if err := m.Add(mesh.Link{Name: "to-spoke", Peer: "spoke", Glob: "apps/*.nsf", Class: mesh.Hot}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	s := hubDB.Session("admin")
	for i := 0; i < 5; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("doc %d", i))
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	// And one the other way, carried by the link's pull half.
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "spoke doc")
	if err := spokeDB.Session("admin").Create(n); err != nil {
		t.Fatal(err)
	}
	if _, err := check.WaitConverged(10*time.Second, hubDB, spokeDB); err != nil {
		t.Fatal(err)
	}

	// The replicas converge while the round that carried the notes is
	// still returning: its counts land after Replicate does.
	sts := m.Status()
	for end := time.Now().Add(10 * time.Second); len(sts) == 1 && time.Now().Before(end) &&
		(sts[0].Rounds == 0 || sts[0].NotesOut == 0 || sts[0].NotesIn == 0); sts = m.Status() {
		time.Sleep(time.Millisecond)
	}
	if len(sts) != 1 || sts[0].Rounds == 0 || sts[0].Failures != 0 {
		t.Errorf("status = %+v", sts)
	}
	if sts[0].NotesOut == 0 || sts[0].NotesIn == 0 {
		t.Errorf("no transfer counted: %+v", sts[0])
	}
	// The monitor report and the catalog both surface the link.
	report := strings.Join(net.hub.MonitorReport(), "\n")
	if !strings.Contains(report, "mesh to-spoke -> spoke") {
		t.Errorf("monitor report lacks mesh line:\n%s", report)
	}
	if _, err := net.hub.RefreshCatalog(); err != nil {
		t.Fatal(err)
	}
	cat, _ := net.hub.DB(CatalogPath)
	found := false
	cat.ScanAll(func(n *nsf.Note) bool {
		if n.Text("Form") == "MeshLink" && n.Text("Link") == "to-spoke" {
			found = true
		}
		return true
	})
	if !found {
		t.Error("catalog lacks the MeshLink document")
	}
}

// TestMeshAdminOverWire drives the mesh admin ops through a wire client:
// status, add (with server-side formula validation), and remove.
func TestMeshAdminOverWire(t *testing.T) {
	net, _, hubDB, spokeDB := newMeshNet(t)
	c, err := wire.Dial(net.hubAddr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if sts, err := c.MeshStatus(); err != nil || len(sts) != 0 {
		t.Fatalf("MeshStatus on empty mesh = %v, %v", sts, err)
	}
	link := mesh.Link{
		Name: "wire-link", Peer: "spoke", Glob: "apps/*.nsf",
		Class: mesh.Cold, Interval: 25 * time.Millisecond,
		Formula: "Subject != \"hidden\"",
	}
	if err := c.MeshAdd(link); err != nil {
		t.Fatalf("MeshAdd: %v", err)
	}
	if err := c.MeshAdd(link); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate add error = %v", err)
	}
	if err := c.MeshAdd(mesh.Link{Name: "bad", Peer: "spoke", Formula: "((("}); err == nil {
		t.Error("bad formula accepted over the wire")
	}
	sts, err := c.MeshStatus()
	if err != nil || len(sts) != 1 {
		t.Fatalf("MeshStatus = %v, %v", sts, err)
	}
	if got := sts[0].Link; got.Name != "wire-link" || got.Formula != link.Formula ||
		got.Class != mesh.Cold || got.Interval != link.Interval {
		t.Errorf("round-tripped link = %+v", got)
	}

	// The added link replicates: selected docs travel, deselected ones
	// land as selection stubs and the fingerprints still converge.
	s := hubDB.Session("admin")
	vis := nsf.NewNote(nsf.ClassDocument)
	vis.SetText("Subject", "visible")
	hid := nsf.NewNote(nsf.ClassDocument)
	hid.SetText("Subject", "hidden")
	if err := s.Create(vis); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(hid); err != nil {
		t.Fatal(err)
	}
	if _, err := check.WaitConverged(10*time.Second, hubDB, spokeDB); err != nil {
		t.Fatal(err)
	}
	got, err := spokeDB.RawGet(hid.OID.UNID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsSelStub() {
		t.Errorf("deselected doc arrived as %+v, want selection stub", got)
	}

	if err := c.MeshRemove("wire-link"); err != nil {
		t.Fatalf("MeshRemove: %v", err)
	}
	if err := c.MeshRemove("wire-link"); err == nil {
		t.Error("removing a removed link succeeded")
	}
	if sts, _ := c.MeshStatus(); len(sts) != 0 {
		t.Errorf("links after remove = %+v", sts)
	}
}

// TestMeshOpsWithoutMesh reports a clean error when the mesh task is not
// enabled (here: the spoke).
func TestMeshOpsWithoutMesh(t *testing.T) {
	net := newTestNet(t)
	c, err := wire.Dial(net.spokeAddr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.MeshStatus(); err == nil || !strings.Contains(err.Error(), "mesh not enabled") {
		t.Errorf("MeshStatus error = %v", err)
	}
	if err := c.MeshAdd(mesh.Link{Name: "x", Peer: "hub"}); err == nil {
		t.Error("MeshAdd succeeded without mesh")
	}
	if err := net.spoke.Close(); err != nil {
		t.Fatal(err)
	}
	// Enabling on a closed server fails; double-enable on the hub fails.
	if _, err := net.spoke.EnableMesh(mesh.Options{}); err == nil {
		t.Error("EnableMesh on closed server succeeded")
	}
	if _, err := net.hub.EnableMesh(mesh.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.hub.EnableMesh(mesh.Options{}); err == nil {
		t.Error("double EnableMesh succeeded")
	}
}
