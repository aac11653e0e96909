package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/dir"
	"repro/internal/nsf"
	"repro/internal/view"
)

func openDB(t *testing.T, opts Options) *Database {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "test.nsf"), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func memo(subject string) *nsf.Note {
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Form", "Memo")
	n.SetWithFlags("Subject", nsf.TextValue(subject), nsf.FlagSummary)
	return n
}

func TestSessionCRUDAndVersioning(t *testing.T) {
	db := openDB(t, Options{Title: "crud"})
	s := db.Session("alice")
	n := memo("hello")
	if err := s.Create(n); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if n.OID.Seq != 1 {
		t.Errorf("Seq after create = %d", n.OID.Seq)
	}
	got, err := s.Get(n.OID.UNID)
	if err != nil || got.Text("Subject") != "hello" {
		t.Fatalf("Get: %v %v", got, err)
	}
	got.SetText("Subject", "changed")
	if err := s.Update(got); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got.OID.Seq != 2 {
		t.Errorf("Seq after update = %d", got.OID.Seq)
	}
	// Item revisions: Subject changed at seq 2, Form unchanged since seq 1.
	subj, _ := got.Item("Subject")
	form, _ := got.Item("Form")
	if subj.Rev != 2 || form.Rev != 1 {
		t.Errorf("item revs: subject=%d form=%d", subj.Rev, form.Rev)
	}
	if err := s.Delete(n.OID.UNID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get(n.OID.UNID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete: %v", err)
	}
	// The stub still exists at the raw level with an advanced version.
	stub, err := db.RawGet(n.OID.UNID)
	if err != nil || !stub.IsStub() || stub.OID.Seq != 3 {
		t.Errorf("stub = %+v, %v", stub, err)
	}
	if len(stub.Items) != 0 {
		t.Errorf("stub kept items: %v", stub.ItemNames())
	}
}

// TestUpdateNeverResurrects: an update that reaches a replica after the
// document's deletion (a request delayed past its client's patience, or
// sent before the deletion replicated in) fails instead of reviving the
// document at a higher Seq, where no replication would ever delete it
// again.
func TestUpdateNeverResurrects(t *testing.T) {
	db := openDB(t, Options{})
	s := db.Session("alice")
	n := memo("doomed")
	if err := s.Create(n); err != nil {
		t.Fatal(err)
	}
	late := n.Clone()
	late.SetText("Subject", "edited too late")
	if err := s.Delete(n.OID.UNID); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(late); !errors.Is(err, ErrNotFound) {
		t.Errorf("update of a deleted document: %v, want ErrNotFound", err)
	}
	if stub, err := db.RawGet(n.OID.UNID); err != nil || !stub.IsStub() || stub.OID.Seq != 2 {
		t.Errorf("after the late update: %+v, %v; want the seq-2 stub", stub, err)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	db := openDB(t, Options{})
	s := db.Session("alice")
	n := memo("dup")
	if err := s.Create(n); err != nil {
		t.Fatalf("Create: %v", err)
	}
	dup := memo("dup2")
	dup.OID.UNID = n.OID.UNID
	if err := s.Create(dup); err == nil {
		t.Error("duplicate create succeeded")
	}
}

func TestACLEnforcement(t *testing.T) {
	d := dir.New()
	d.AddUser(dir.User{Name: "boss"})
	d.AddUser(dir.User{Name: "writer"})
	d.AddUser(dir.User{Name: "lurker"})
	d.AddUser(dir.User{Name: "outsider"})
	db := openDB(t, Options{Directory: d})
	db.ACL().Set("boss", acl.Manager)
	db.ACL().Set("writer", acl.Author)
	db.ACL().Set("lurker", acl.Reader)
	db.ACL().SetDefault(acl.NoAccess)
	if err := db.SaveACL(nil); err != nil {
		t.Fatalf("SaveACL: %v", err)
	}

	writer := db.Session("writer")
	n := memo("by writer")
	if err := writer.Create(n); err != nil {
		t.Fatalf("writer Create: %v", err)
	}
	// Author-level creates get an automatic $Authors item.
	if got, _ := writer.Get(n.OID.UNID); len(got.Authors()) == 0 {
		t.Error("no automatic Authors item")
	}
	// Writer can edit own doc.
	got, _ := writer.Get(n.OID.UNID)
	got.SetText("Subject", "edited")
	if err := writer.Update(got); err != nil {
		t.Errorf("author edit own doc: %v", err)
	}
	// Lurker can read but not edit or create.
	lurker := db.Session("lurker")
	if _, err := lurker.Get(n.OID.UNID); err != nil {
		t.Errorf("reader Get: %v", err)
	}
	if err := lurker.Create(memo("x")); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("reader Create: %v", err)
	}
	got, _ = lurker.Get(n.OID.UNID)
	got.SetText("Subject", "hax")
	if err := lurker.Update(got); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("reader Update: %v", err)
	}
	// Outsider (default NoAccess) can do nothing.
	outsider := db.Session("outsider")
	if _, err := outsider.Get(n.OID.UNID); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("outsider Get: %v", err)
	}
}

func TestACLPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acl.nsf")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db.ACL().Set("alice", acl.Editor)
	db.ACL().SetDefault(acl.NoAccess)
	if err := db.SaveACL(nil); err != nil {
		t.Fatalf("SaveACL: %v", err)
	}
	db.Close()
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	lv, _ := db2.ACL().Access("alice", nil)
	if lv != acl.Editor {
		t.Errorf("alice level after reopen = %v", lv)
	}
	if db2.ACL().Default() != acl.NoAccess {
		t.Errorf("default after reopen = %v", db2.ACL().Default())
	}
}

func TestReaderFieldsFilterEverywhere(t *testing.T) {
	db := openDB(t, Options{})
	db.ACL().Set("alice", acl.Editor)
	db.ACL().Set("bob", acl.Editor)
	db.ACL().SetDefault(acl.NoAccess)

	alice := db.Session("alice")
	secret := memo("for alice only")
	secret.SetWithFlags("DocReaders", nsf.TextValue("alice"), nsf.FlagReaders|nsf.FlagSummary)
	if err := alice.Create(secret); err != nil {
		t.Fatalf("Create: %v", err)
	}
	open := memo("public")
	if err := alice.Create(open); err != nil {
		t.Fatalf("Create: %v", err)
	}
	def, err := view.NewDefinition("all", "SELECT @All",
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err != nil {
		t.Fatalf("NewDefinition: %v", err)
	}
	if err := db.AddView(nil, def); err != nil {
		t.Fatalf("AddView: %v", err)
	}
	if err := db.EnableFullText(); err != nil {
		t.Fatalf("EnableFullText: %v", err)
	}

	bob := db.Session("bob")
	if _, err := bob.Get(secret.OID.UNID); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("bob read restricted doc: %v", err)
	}
	rows, err := bob.Rows("all")
	if err != nil {
		t.Fatalf("Rows: %v", err)
	}
	for _, r := range rows {
		if r.Entry != nil && r.Entry.UNID == secret.OID.UNID {
			t.Error("restricted doc visible in bob's view")
		}
	}
	aliceRows, _ := alice.Rows("all")
	if len(aliceRows) != 2 {
		t.Errorf("alice sees %d rows, want 2", len(aliceRows))
	}
	hits, err := bob.Search("alice")
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	for _, h := range hits {
		if h.UNID == secret.OID.UNID {
			t.Error("restricted doc in bob's search results")
		}
	}
	aliceHits, _ := alice.Search(`"for alice"`)
	if len(aliceHits) != 1 {
		t.Errorf("alice search hits = %d", len(aliceHits))
	}
}

func TestViewsPersistAndMaintain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "views.nsf")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	def, _ := view.NewDefinition("memos", `SELECT Form = "Memo"`,
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err := db.AddView(nil, def); err != nil {
		t.Fatalf("AddView: %v", err)
	}
	s := db.Session("alice")
	for i := 0; i < 5; i++ {
		if err := s.Create(memo(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("Create: %v", err)
		}
	}
	other := nsf.NewNote(nsf.ClassDocument)
	other.SetText("Form", "Task")
	s.Create(other)
	ix, _ := db.View("memos")
	if ix.Len() != 5 {
		t.Errorf("view has %d entries, want 5", ix.Len())
	}
	db.Close()
	// Reopen: view definition loads from its design note and rebuilds.
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	ix2, ok := db2.View("memos")
	if !ok {
		t.Fatalf("view lost after reopen; views = %v", db2.ViewNames())
	}
	if ix2.Len() != 5 {
		t.Errorf("rebuilt view has %d entries", ix2.Len())
	}
	// Incremental maintenance still works after reopen.
	s2 := db2.Session("alice")
	if err := s2.Create(memo("new one")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	db2.Refresh() // maintenance is async; barrier before inspecting the index
	if ix2.Len() != 6 {
		t.Errorf("view did not update incrementally: %d", ix2.Len())
	}
}

func TestAddViewRequiresDesigner(t *testing.T) {
	db := openDB(t, Options{})
	db.ACL().Set("mortal", acl.Editor)
	def, _ := view.NewDefinition("v", "SELECT @All",
		view.Column{Title: "S", ItemName: "Subject", Sorted: true})
	if err := db.AddView(db.Session("mortal"), def); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("editor added a view: %v", err)
	}
}

func TestStubPurge(t *testing.T) {
	db := openDB(t, Options{})
	s := db.Session("alice")
	n := memo("to delete")
	s.Create(n)
	s.Delete(n.OID.UNID)
	mid := db.Clock().Now()
	n2 := memo("deleted later")
	s.Create(n2)
	s.Delete(n2.OID.UNID)
	// Purge stubs deleted before mid: only the first.
	purged, err := db.PurgeStubs(mid)
	if err != nil || purged != 1 {
		t.Fatalf("PurgeStubs = %d, %v", purged, err)
	}
	if _, err := db.RawGet(n.OID.UNID); !errors.Is(err, ErrNotFound) {
		t.Error("purged stub still present")
	}
	if _, err := db.RawGet(n2.OID.UNID); err != nil {
		t.Error("recent stub purged prematurely")
	}
}

func TestOnChangeFires(t *testing.T) {
	db := openDB(t, Options{})
	var events []string
	db.OnChange(func(n *nsf.Note) {
		events = append(events, n.Text("Subject"))
	})
	s := db.Session("alice")
	n := memo("e1")
	s.Create(n)
	n.SetText("Subject", "e2")
	s.Update(n)
	db.Refresh() // callbacks run on a feed subscriber goroutine
	if len(events) != 2 || events[0] != "e1" || events[1] != "e2" {
		t.Errorf("events = %v", events)
	}
}

// TestNotify checks the commit signal: a Put wakes the channel at commit,
// bookkeeping and hard deletes do not, a burst leaves one pending wake, stop
// ends the sends, and neither a commit nor the refresh barrier waits on a
// channel nobody drains.
func TestNotify(t *testing.T) {
	db := openDB(t, Options{})
	s := db.Session("alice")
	c := make(chan struct{}, 1)
	stop := db.Notify(c)
	pending := func() bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}
	n := memo("wake")
	if err := s.Create(n); err != nil {
		t.Fatal(err)
	}
	if !pending() {
		t.Fatal("a Put did not wake the channel")
	}
	h := &nsf.Note{OID: nsf.OID{UNID: nsf.NewUNID(), Seq: 1, SeqTime: db.Clock().Now()}, Class: nsf.ClassReplFormula}
	if err := db.RawPut(h); err != nil {
		t.Fatal(err)
	}
	if err := db.RawDelete(n.OID.UNID); err != nil {
		t.Fatal(err)
	}
	if pending() {
		t.Fatal("a replication-history save or a hard delete woke the channel")
	}
	for i := range 100 {
		if err := s.Create(memo(fmt.Sprint("burst ", i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(c) != 1 || !pending() {
		t.Fatal("a burst of 100 commits did not leave one pending wake")
	}
	stop()
	if err := s.Create(memo("after stop")); err != nil {
		t.Fatal(err)
	}
	if pending() {
		t.Fatal("a commit after stop woke the channel")
	}

	undrained := make(chan struct{})
	defer db.Notify(undrained)()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.Create(memo("nobody listens")); err != nil {
			t.Error(err)
		}
		db.Refresh()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a commit or Refresh waited on an undrained Notify channel")
	}

	// Registrations come and go while writers commit.
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				if err := s.Create(memo(fmt.Sprint("writer ", w, " ", i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range 100 {
		db.Notify(make(chan struct{}, 1))()
	}
	wg.Wait()
}

func TestDepositorCanCreateNotRead(t *testing.T) {
	db := openDB(t, Options{})
	db.ACL().Set("dropbox", acl.Depositor)
	db.ACL().SetDefault(acl.NoAccess)
	s := db.Session("dropbox")
	n := memo("deposited")
	if err := s.Create(n); err != nil {
		t.Fatalf("depositor Create: %v", err)
	}
	if _, err := s.Get(n.OID.UNID); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("depositor read back: %v", err)
	}
}
