package server

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/store"
	"repro/internal/view"
	"repro/internal/wire"
)

// testNet is a two-server deployment sharing one directory.
type testNet struct {
	d          *dir.Directory
	hub, spoke *Server
	hubAddr    string
	spokeAddr  string
}

func newTestNet(t *testing.T) *testNet {
	t.Helper()
	d := dir.New()
	d.AddUser(dir.User{Name: "ada", Secret: "ada-pw", MailFile: "mail/ada.nsf"})
	d.AddUser(dir.User{Name: "bob", Secret: "bob-pw", MailFile: "mail/bob.nsf", MailServer: "spoke"})
	d.AddUser(dir.User{Name: "eve", Secret: "eve-pw"})
	d.AddUser(dir.User{Name: "hub", Secret: "hub-secret"})
	d.AddUser(dir.User{Name: "spoke", Secret: "spoke-secret"})

	hub, err := New(Options{
		Name: "hub", DataDir: filepath.Join(t.TempDir(), "hub"),
		Directory: d, PeerSecret: "hub-secret",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	spoke, err := New(Options{
		Name: "spoke", DataDir: filepath.Join(t.TempDir(), "spoke"),
		Directory: d, PeerSecret: "spoke-secret",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spoke.Close() })

	hubAddr, err := hub.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	spokeAddr, err := spoke.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub.opts.Peers = map[string]string{"spoke": spokeAddr}
	spoke.opts.Peers = map[string]string{"hub": hubAddr}
	return &testNet{d: d, hub: hub, spoke: spoke, hubAddr: hubAddr, spokeAddr: spokeAddr}
}

func TestAuthentication(t *testing.T) {
	net := newTestNet(t)
	if _, err := wire.Dial(net.hubAddr, "ada", "wrong"); err == nil {
		t.Error("bad secret accepted")
	}
	if _, err := wire.Dial(net.hubAddr, "ghost", "x"); err == nil {
		t.Error("unknown user accepted")
	}
	c, err := wire.Dial(net.hubAddr, "ada", "ada-pw")
	if err != nil {
		t.Fatalf("valid login failed: %v", err)
	}
	c.Close()
}

func TestRemoteCRUD(t *testing.T) {
	net := newTestNet(t)
	db, err := net.hub.OpenDB("apps/crud.nsf", core.Options{Title: "crud"})
	if err != nil {
		t.Fatal(err)
	}
	db.ACL().Set("ada", acl.Editor)

	c, err := wire.Dial(net.hubAddr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB("apps/crud.nsf")
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	if rdb.Title() != "crud" {
		t.Errorf("title = %q", rdb.Title())
	}
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "over the wire")
	if err := rdb.Create(n); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if n.ID == 0 || n.OID.Seq != 1 {
		t.Errorf("returned note not stamped: id=%d seq=%d", n.ID, n.OID.Seq)
	}
	got, err := rdb.Get(n.OID.UNID)
	if err != nil || got.Text("Subject") != "over the wire" {
		t.Fatalf("Get: %v %v", got, err)
	}
	got.SetText("Subject", "updated remotely")
	if err := rdb.Update(got); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got.OID.Seq != 2 {
		t.Errorf("seq after update = %d", got.OID.Seq)
	}
	if err := rdb.Delete(n.OID.UNID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := rdb.Get(n.OID.UNID); err == nil {
		t.Error("deleted note still readable")
	}
}

func TestOpenDBRequiresAccess(t *testing.T) {
	net := newTestNet(t)
	db, _ := net.hub.OpenDB("apps/private.nsf", core.Options{Title: "private"})
	db.ACL().SetDefault(acl.NoAccess)
	db.ACL().Set("ada", acl.Reader)
	c, _ := wire.Dial(net.hubAddr, "eve", "eve-pw")
	defer c.Close()
	if _, err := c.OpenDB("apps/private.nsf"); err == nil {
		t.Error("no-access user opened database")
	}
	if _, err := c.OpenDB("apps/nonexistent.nsf"); err == nil {
		t.Error("nonexistent database opened")
	}
	if _, err := c.OpenDB("../../etc/passwd"); err == nil {
		t.Error("path traversal accepted")
	}
}

func TestRemoteViewAndSearch(t *testing.T) {
	net := newTestNet(t)
	db, _ := net.hub.OpenDB("apps/v.nsf", core.Options{Title: "v"})
	db.ACL().Set("ada", acl.Editor)
	def, _ := view.NewDefinition("by subject", "SELECT @All",
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err := db.AddView(nil, def); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	s := db.Session("ada")
	for _, subj := range []string{"charlie", "alpha", "bravo"} {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", subj)
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := wire.Dial(net.hubAddr, "ada", "ada-pw")
	defer c.Close()
	rdb, err := c.OpenDB("apps/v.nsf")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := rdb.ViewRows("by subject")
	if err != nil {
		t.Fatalf("ViewRows: %v", err)
	}
	var subjects []string
	for _, r := range rows {
		if len(r.Columns) > 0 {
			subjects = append(subjects, r.Columns[0])
		}
	}
	if strings.Join(subjects, ",") != "alpha,bravo,charlie" {
		t.Errorf("view order = %v", subjects)
	}
	hits, err := rdb.Search("bravo")
	if err != nil || len(hits) != 1 {
		t.Fatalf("Search: %d hits, %v", len(hits), err)
	}
	if _, err := rdb.ViewRows("missing view"); err == nil {
		t.Error("missing view did not error")
	}
	info, err := rdb.Info()
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if info.Title != "v" || info.Notes < 3 || len(info.Views) != 1 || info.Views[0] != "by subject" {
		t.Errorf("Info = %+v", info)
	}
}

func TestServerToServerReplication(t *testing.T) {
	net := newTestNet(t)
	replica := nsf.NewReplicaID()
	hubDB, err := net.hub.OpenDB("apps/shared.nsf", core.Options{Title: "shared", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	spokeDB, err := net.spoke.OpenDB("apps/shared.nsf", core.Options{Title: "shared", ReplicaID: replica})
	if err != nil {
		t.Fatal(err)
	}
	// Server identities need Editor to apply replicated changes.
	hubDB.ACL().Set("spoke", acl.Editor)
	spokeDB.ACL().Set("hub", acl.Editor)

	s := hubDB.Session("admin")
	for i := 0; i < 10; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("hub doc %d", i))
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	s2 := spokeDB.Session("admin")
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "spoke doc")
	if err := s2.Create(n); err != nil {
		t.Fatal(err)
	}

	stats, err := net.hub.ReplicateWith("spoke", net.spokeAddr, "apps/shared.nsf", repl.Options{})
	if err != nil {
		t.Fatalf("ReplicateWith: %v", err)
	}
	if stats.Pull.Added != 1 || stats.Push.Added != 10 {
		t.Errorf("stats = %v", stats)
	}
	if spokeDB.Count() < 11 {
		t.Errorf("spoke has %d notes", spokeDB.Count())
	}
	// Incremental: a second session moves nothing.
	stats, err = net.hub.ReplicateWith("spoke", net.spokeAddr, "apps/shared.nsf", repl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NotesSent != 0 || stats.NotesFetched != 0 {
		t.Errorf("idle wire sync moved notes: %v", stats)
	}
}

func TestReplicationRequiresEditor(t *testing.T) {
	net := newTestNet(t)
	replica := nsf.NewReplicaID()
	db, _ := net.hub.OpenDB("apps/guarded.nsf", core.Options{ReplicaID: replica})
	db.ACL().SetDefault(acl.NoAccess)
	db.ACL().Set("ada", acl.Reader)
	c, _ := wire.Dial(net.hubAddr, "ada", "ada-pw")
	defer c.Close()
	rdb, err := c.OpenDB("apps/guarded.nsf")
	if err != nil {
		t.Fatal(err)
	}
	// Reader can pull summaries but not apply.
	if _, _, err := rdb.Summaries(store.Cursor{}, ""); err != nil {
		t.Errorf("reader Summaries: %v", err)
	}
	note := nsf.NewNote(nsf.ClassDocument)
	note.OID.Seq = 1
	note.OID.SeqTime = 1
	note.SetText("Subject", "injected")
	if _, err := rdb.Apply([][]byte{nsf.EncodeNote(note)}); err == nil {
		t.Error("reader applied notes")
	}
}

func TestCrossServerMail(t *testing.T) {
	net := newTestNet(t)
	// ada (on hub) mails bob (on spoke).
	c, _ := wire.Dial(net.hubAddr, "ada", "ada-pw")
	defer c.Close()
	msg := nsf.NewNote(nsf.ClassDocument)
	msg.SetText(router.ItemSendTo, "ada", "bob")
	msg.SetText(router.ItemFrom, "ada")
	msg.SetText(router.ItemSubject, "cross-server hello")
	if err := c.MailDeposit(msg); err != nil {
		t.Fatalf("MailDeposit: %v", err)
	}
	// Route at hub: delivers ada locally, forwards bob's copy to spoke.
	st, err := net.hub.Router().RouteOnce()
	if err != nil {
		t.Fatalf("hub RouteOnce: %v", err)
	}
	if st.Delivered != 1 || st.Forwarded != 1 {
		t.Errorf("hub stats = %+v", st)
	}
	// Route at spoke: delivers bob.
	st, err = net.spoke.Router().RouteOnce()
	if err != nil {
		t.Fatalf("spoke RouteOnce: %v", err)
	}
	if st.Delivered != 1 {
		t.Errorf("spoke stats = %+v", st)
	}
	adaMail, ok := net.hub.DB("mail/ada.nsf")
	if !ok || adaMail.Count() != 1 {
		t.Error("ada's mail not delivered on hub")
	}
	bobMail, ok := net.spoke.DB("mail/bob.nsf")
	if !ok || bobMail.Count() != 1 {
		t.Error("bob's mail not delivered on spoke")
	}
	var subject string
	bobMail.ScanAll(func(n *nsf.Note) bool {
		subject = n.Text(router.ItemSubject)
		return false
	})
	if subject != "cross-server hello" {
		t.Errorf("bob received %q", subject)
	}
}

func TestUnauthenticatedOpsRejected(t *testing.T) {
	tn := newTestNet(t)
	// Poke the protocol directly: an op before hello must fail.
	conn, err := net.Dial("tcp", tn.hubAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := wire.NewEnc(wire.OpOpenDB).Str("mail.box")
	if err := wire.WriteFrame(conn, req.Bytes()); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) < 2 || payload[1] != wire.StatusError {
		t.Error("pre-auth op did not error")
	}
}

func TestPathValidation(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{"mail/ada.nsf", true},
		{"a.nsf", true},
		{"../escape.nsf", false},
		{"/abs.nsf", false},
		{"a/../../b.nsf", false},
		{"", false},
		{".", false},
	}
	for _, tc := range cases {
		_, err := cleanDBPath(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("cleanDBPath(%q) err=%v, want ok=%v", tc.in, err, tc.ok)
		}
	}
}

func TestErrorsCrossTheWireIntact(t *testing.T) {
	net := newTestNet(t)
	db, _ := net.hub.OpenDB("apps/errs.nsf", core.Options{})
	db.ACL().Set("ada", acl.Editor)
	c, _ := wire.Dial(net.hubAddr, "ada", "ada-pw")
	defer c.Close()
	rdb, _ := c.OpenDB("apps/errs.nsf")
	if _, err := rdb.Get(nsf.NewUNID()); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("Get of missing note: %v", err)
	}
	if _, err := rdb.Search("anything"); err == nil {
		t.Error("search without FT index succeeded")
	}
}
