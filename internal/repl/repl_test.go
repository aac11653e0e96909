package repl

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/store"
)

// pairedDBs creates two empty replicas of the same database.
func pairedDBs(t *testing.T) (*core.Database, *core.Database) {
	t.Helper()
	replica := nsf.NewReplicaID()
	a, err := core.Open(filepath.Join(t.TempDir(), "a.nsf"), core.Options{Title: "a", ReplicaID: replica})
	if err != nil {
		t.Fatalf("Open a: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := core.Open(filepath.Join(t.TempDir(), "b.nsf"), core.Options{Title: "b", ReplicaID: replica})
	if err != nil {
		t.Fatalf("Open b: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

func createDoc(t *testing.T, db *core.Database, subject string) *nsf.Note {
	t.Helper()
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetWithFlags("Subject", nsf.TextValue(subject), nsf.FlagSummary)
	n.SetText("Body", "body of "+subject)
	if err := db.Session("user").Create(n); err != nil {
		t.Fatalf("Create: %v", err)
	}
	return n
}

// sync replicates a<->b both ways and returns the stats of the session.
func sync(t *testing.T, a, b *core.Database, opts Options) Stats {
	t.Helper()
	if opts.PeerName == "" {
		opts.PeerName = "peer-b"
	}
	st, err := Replicate(a, &LocalPeer{DB: b, Opts: opts.Apply}, opts)
	if err != nil {
		t.Fatalf("Replicate: %v", err)
	}
	return st
}

// docSubjects collects subjects of all live documents.
func docSubjects(t *testing.T, db *core.Database) map[string]int {
	t.Helper()
	out := make(map[string]int)
	err := db.ScanAll(func(n *nsf.Note) bool {
		if n.Class == nsf.ClassDocument && !n.IsStub() {
			out[n.Text("Subject")]++
		}
		return true
	})
	if err != nil {
		t.Fatalf("ScanAll: %v", err)
	}
	return out
}

func TestReplicaIDMismatchRejected(t *testing.T) {
	a, err := core.Open(filepath.Join(t.TempDir(), "a.nsf"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := core.Open(filepath.Join(t.TempDir(), "b.nsf"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := Replicate(a, &LocalPeer{DB: b}, Options{}); err == nil {
		t.Fatal("replication between unrelated databases succeeded")
	}
}

func TestBasicBidirectionalSync(t *testing.T) {
	a, b := pairedDBs(t)
	createDoc(t, a, "from a1")
	createDoc(t, a, "from a2")
	createDoc(t, b, "from b1")
	st := sync(t, a, b, Options{})
	if st.Pull.Added != 1 || st.Push.Added != 2 {
		t.Errorf("stats = %v", st)
	}
	want := map[string]int{"from a1": 1, "from a2": 1, "from b1": 1}
	for _, db := range []*core.Database{a, b} {
		got := docSubjects(t, db)
		for k, v := range want {
			if got[k] != v {
				t.Errorf("db %s: docs = %v, want %v", db.Title(), got, want)
			}
		}
	}
}

func TestIncrementalUsesHistory(t *testing.T) {
	a, b := pairedDBs(t)
	for i := 0; i < 20; i++ {
		createDoc(t, a, fmt.Sprintf("doc %d", i))
	}
	st := sync(t, a, b, Options{})
	if st.Push.Added != 20 {
		t.Fatalf("first sync pushed %d", st.Push.Added)
	}
	// Second sync with nothing changed must transfer (almost) nothing.
	st = sync(t, a, b, Options{})
	if st.NotesSent != 0 || st.NotesFetched != 0 {
		t.Errorf("idle sync transferred notes: %v", st)
	}
	// One update → exactly one note moves.
	n, _ := a.Session("user").Get(firstUNID(t, a))
	n.SetText("Body", "updated")
	if err := a.Session("user").Update(n); err != nil {
		t.Fatal(err)
	}
	st = sync(t, a, b, Options{})
	if st.Push.Updated != 1 || st.NotesSent != 1 {
		t.Errorf("after one update: %v", st)
	}
}

func firstUNID(t *testing.T, db *core.Database) nsf.UNID {
	t.Helper()
	var u nsf.UNID
	found := false
	db.ScanAll(func(n *nsf.Note) bool {
		if n.Class == nsf.ClassDocument && !n.IsStub() {
			u = n.OID.UNID
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no documents")
	}
	return u
}

func TestDeletionStubsReplicate(t *testing.T) {
	a, b := pairedDBs(t)
	n := createDoc(t, a, "doomed")
	sync(t, a, b, Options{})
	if _, err := b.Session("user").Get(n.OID.UNID); err != nil {
		t.Fatalf("doc not at b: %v", err)
	}
	// Delete at a; the stub must propagate and delete at b.
	if err := a.Session("user").Delete(n.OID.UNID); err != nil {
		t.Fatal(err)
	}
	st := sync(t, a, b, Options{})
	if st.Push.Deleted != 1 {
		t.Errorf("stats = %v", st)
	}
	if _, err := b.Session("user").Get(n.OID.UNID); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("doc still live at b: %v", err)
	}
	stub, err := b.RawGet(n.OID.UNID)
	if err != nil || !stub.IsStub() {
		t.Errorf("no stub at b: %v", err)
	}
}

func TestUpdateWinsByOID(t *testing.T) {
	a, b := pairedDBs(t)
	n := createDoc(t, a, "versioned")
	sync(t, a, b, Options{})
	// Two sequential edits at b (seq 2 and 3); a still has seq 1.
	sb := b.Session("user")
	nb, _ := sb.Get(n.OID.UNID)
	nb.SetText("Body", "edit 1")
	sb.Update(nb)
	nb.SetText("Body", "edit 2")
	sb.Update(nb)
	sync(t, a, b, Options{})
	na, _ := a.Session("user").Get(n.OID.UNID)
	if na.Text("Body") != "edit 2" || na.OID.Seq != 3 {
		t.Errorf("a has body %q seq %d", na.Text("Body"), na.OID.Seq)
	}
	got := docSubjects(t, a)
	if got["versioned"] != 1 {
		t.Errorf("duplicate or missing docs: %v", got)
	}
}

func TestConcurrentEditMakesConflictDoc(t *testing.T) {
	a, b := pairedDBs(t)
	n := createDoc(t, a, "contested")
	sync(t, a, b, Options{})
	// Concurrent edits on both replicas: both reach seq 2.
	na, _ := a.Session("user").Get(n.OID.UNID)
	na.SetText("Body", "a's edit")
	a.Session("user").Update(na)
	nb, _ := b.Session("user").Get(n.OID.UNID)
	nb.SetText("Body", "b's edit")
	b.Session("user").Update(nb)

	st := sync(t, a, b, Options{})
	if st.Pull.Conflicts+st.Push.Conflicts == 0 {
		t.Fatalf("no conflict detected: %v", st)
	}
	sync(t, a, b, Options{})
	// Both replicas converge: same winner body, exactly one conflict doc.
	if err := check.Identical(a, b); err != nil {
		t.Error(err)
	}
	for _, db := range []*core.Database{a, b} {
		conflicts := 0
		winnerBody := ""
		db.ScanAll(func(x *nsf.Note) bool {
			if x.IsConflict() {
				conflicts++
			} else if x.OID.UNID == n.OID.UNID {
				winnerBody = x.Text("Body")
			}
			return true
		})
		if conflicts != 1 {
			t.Errorf("db %s: %d conflict docs, want 1", db.Title(), conflicts)
		}
		// The winner is whichever edit has the later sequence time.
		want := "a's edit"
		if nb.OID.SeqTime > na.OID.SeqTime {
			want = "b's edit"
		}
		if winnerBody != want {
			t.Errorf("db %s: winner body %q, want %q", db.Title(), winnerBody, want)
		}
	}
}

func TestFieldMergeResolvesDisjointEdits(t *testing.T) {
	a, b := pairedDBs(t)
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "merge me")
	n.SetText("Owner", "nobody")
	n.SetText("Status", "new")
	if err := a.Session("user").Create(n); err != nil {
		t.Fatal(err)
	}
	sync(t, a, b, Options{})
	// a edits Owner, b edits Status: disjoint item sets.
	na, _ := a.Session("user").Get(n.OID.UNID)
	na.SetText("Owner", "alice")
	a.Session("user").Update(na)
	nb, _ := b.Session("user").Get(n.OID.UNID)
	nb.SetText("Status", "done")
	b.Session("user").Update(nb)

	opts := Options{Apply: ApplyOptions{FieldMerge: true}}
	st := sync(t, a, b, opts)
	if st.Pull.Merged+st.Push.Merged == 0 {
		t.Fatalf("no merge happened: %v", st)
	}
	sync(t, a, b, opts)
	if err := check.Identical(a, b); err != nil {
		t.Error(err)
	}
	for _, db := range []*core.Database{a, b} {
		got, err := db.Session("user").Get(n.OID.UNID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.Text("Owner") != "alice" || got.Text("Status") != "done" {
			t.Errorf("db %s: merged doc = Owner %q Status %q",
				db.Title(), got.Text("Owner"), got.Text("Status"))
		}
		conflicts := 0
		db.ScanAll(func(x *nsf.Note) bool {
			if x.IsConflict() {
				conflicts++
			}
			return true
		})
		if conflicts != 0 {
			t.Errorf("db %s: %d conflict docs despite merge", db.Title(), conflicts)
		}
	}
}

func TestOverlappingEditsStillConflictUnderMerge(t *testing.T) {
	a, b := pairedDBs(t)
	n := createDoc(t, a, "overlap")
	sync(t, a, b, Options{})
	na, _ := a.Session("user").Get(n.OID.UNID)
	na.SetText("Body", "a wrote this")
	a.Session("user").Update(na)
	nb, _ := b.Session("user").Get(n.OID.UNID)
	nb.SetText("Body", "b wrote this")
	b.Session("user").Update(nb)
	opts := Options{Apply: ApplyOptions{FieldMerge: true}}
	st := sync(t, a, b, opts)
	if st.Pull.Conflicts+st.Push.Conflicts == 0 {
		t.Errorf("overlapping edits merged silently: %v", st)
	}
}

func TestDeleteWinsConflict(t *testing.T) {
	a, b := pairedDBs(t)
	n := createDoc(t, a, "delete vs edit")
	sync(t, a, b, Options{})
	// a deletes (stub seq 2); b edits (seq 2).
	a.Session("user").Delete(n.OID.UNID)
	nb, _ := b.Session("user").Get(n.OID.UNID)
	nb.SetText("Body", "still here?")
	b.Session("user").Update(nb)
	sync(t, a, b, Options{})
	sync(t, a, b, Options{})
	for _, db := range []*core.Database{a, b} {
		if _, err := db.Session("user").Get(n.OID.UNID); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("db %s: doc survived delete-vs-edit conflict: %v", db.Title(), err)
		}
		conflicts := 0
		db.ScanAll(func(x *nsf.Note) bool {
			if x.IsConflict() {
				conflicts++
			}
			return true
		})
		if conflicts != 0 {
			t.Errorf("db %s: delete conflict made %d conflict docs", db.Title(), conflicts)
		}
	}
}

func TestDeleteWinsEvenAgainstHigherSeq(t *testing.T) {
	a, b := pairedDBs(t)
	n := createDoc(t, a, "edited a lot offline")
	sync(t, a, b, Options{})
	// a deletes (stub seq 2); b edits twice (seq 3 > stub's 2).
	a.Session("user").Delete(n.OID.UNID)
	sb := b.Session("user")
	nb, _ := sb.Get(n.OID.UNID)
	nb.SetText("Body", "edit one")
	sb.Update(nb)
	nb.SetText("Body", "edit two")
	sb.Update(nb)
	sync(t, a, b, Options{})
	sync(t, a, b, Options{})
	for _, db := range []*core.Database{a, b} {
		if _, err := db.Session("user").Get(n.OID.UNID); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("db %s: doc with higher seq beat the stub: %v", db.Title(), err)
		}
	}
	if err := check.Identical(a, b); err != nil {
		t.Error(err)
	}
}

// TestDeleteWinsWhenTheEditorPulls is TestDeleteWinsEvenAgainstHigherSeq
// with the replica holding the edits starting the session: the stub it
// pulls carries a lower sequence number than its live copy, and must still
// win. Skipped as older, the stub stayed on one side and the edit on the
// other, since the pushed edit cannot beat the stub, and the replicas
// never converged.
func TestDeleteWinsWhenTheEditorPulls(t *testing.T) {
	a, b := pairedDBs(t)
	n := createDoc(t, a, "edited a lot offline")
	sync(t, b, a, Options{})
	a.Session("user").Delete(n.OID.UNID)
	sb := b.Session("user")
	nb, _ := sb.Get(n.OID.UNID)
	for _, body := range []string{"edit one", "edit two"} {
		nb.SetText("Body", body)
		if err := sb.Update(nb); err != nil {
			t.Fatal(err)
		}
	}
	sync(t, b, a, Options{})
	for _, db := range []*core.Database{a, b} {
		if _, err := db.Session("user").Get(n.OID.UNID); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("db %s: doc with higher seq beat the stub: %v", db.Title(), err)
		}
	}
	if err := check.Identical(a, b); err != nil {
		t.Error(err)
	}
}

func TestSelectiveReplication(t *testing.T) {
	a, b := pairedDBs(t)
	urgent := nsf.NewNote(nsf.ClassDocument)
	urgent.SetText("Subject", "urgent thing")
	urgent.SetNumber("Priority", 9)
	a.Session("user").Create(urgent)
	boring := nsf.NewNote(nsf.ClassDocument)
	boring.SetText("Subject", "boring thing")
	boring.SetNumber("Priority", 1)
	a.Session("user").Create(boring)

	sync(t, a, b, Options{Formula: "SELECT Priority > 5"})
	got := docSubjects(t, b)
	if got["urgent thing"] != 1 || got["boring thing"] != 0 {
		t.Errorf("selective replication at b: %v", got)
	}
}

// TestSelectiveSummariesReadAuthors: Summaries projects notes for its
// selection formula, and @Authors finds its items by the Authors flag, not
// by name. A formula on @Authors must see them: a document whose Authors
// item names bob is listed live, the other as a selection stub, and a
// selective pull receives the first.
func TestSelectiveSummariesReadAuthors(t *testing.T) {
	a, b := pairedDBs(t)
	const formula = `SELECT @Contains(@Authors; "bob")`
	for _, author := range []string{"bob", "carol"} {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", "by "+author)
		n.SetWithFlags("DocAuthors", nsf.TextValue(author), nsf.FlagAuthors)
		if err := a.Session("user").Create(n); err != nil {
			t.Fatal(err)
		}
	}
	sums, _, err := (&LocalPeer{DB: a}).Summaries(store.Cursor{}, formula)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, s := range sums {
		if s.Class == nsf.ClassDocument && !s.SelStub {
			live++
		}
	}
	if live != 1 {
		t.Errorf("Summaries(%s) listed %d documents live, want the one bob authored: %+v", formula, live, sums)
	}
	sync(t, b, a, Options{Formula: formula}) // b pulls a's Summaries
	if got := docSubjects(t, b); got["by bob"] != 1 || got["by carol"] != 0 {
		t.Errorf("selective pull on @Authors at b: %v", got)
	}
}

func TestThreeWayConvergence(t *testing.T) {
	replica := nsf.NewReplicaID()
	dbs := make([]*core.Database, 3)
	for i := range dbs {
		db, err := core.Open(filepath.Join(t.TempDir(), fmt.Sprintf("r%d.nsf", i)),
			core.Options{Title: fmt.Sprintf("r%d", i), ReplicaID: replica})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		dbs[i] = db
	}
	for i, db := range dbs {
		for j := 0; j < 5; j++ {
			createDoc(t, db, fmt.Sprintf("r%d-doc%d", i, j))
		}
	}
	// Ring replication, two rounds.
	for round := 0; round < 2; round++ {
		for i := range dbs {
			j := (i + 1) % len(dbs)
			_, err := Replicate(dbs[i], &LocalPeer{DB: dbs[j]},
				Options{PeerName: fmt.Sprintf("r%d", j)})
			if err != nil {
				t.Fatalf("Replicate: %v", err)
			}
		}
	}
	want := docSubjects(t, dbs[0])
	if len(want) != 15 {
		t.Fatalf("r0 has %d docs", len(want))
	}
	for i := 1; i < len(dbs); i++ {
		if err := check.Identical(dbs[0], dbs[i]); err != nil {
			t.Error(err)
		}
	}
}

func TestFullCopyBaseline(t *testing.T) {
	a, b := pairedDBs(t)
	for i := 0; i < 10; i++ {
		createDoc(t, a, fmt.Sprintf("doc %d", i))
	}
	st, err := FullCopy(b, &LocalPeer{DB: a})
	if err != nil {
		t.Fatalf("FullCopy: %v", err)
	}
	if st.Pull.Added != 10 {
		t.Errorf("FullCopy stats = %v", st)
	}
	// Running it again transfers everything again (that's the point of the
	// baseline) but changes nothing.
	st, err = FullCopy(b, &LocalPeer{DB: a})
	if err != nil {
		t.Fatal(err)
	}
	if st.NotesFetched != 10 {
		t.Errorf("baseline should refetch all notes, got %d", st.NotesFetched)
	}
	if st.Pull.Total() != 0 {
		t.Errorf("idempotent re-copy changed state: %v", st)
	}
}

func TestStubPurgeResurrection(t *testing.T) {
	// The documented Notes anomaly: if a stub is purged before an offline
	// replica syncs, the deleted document comes back.
	a, b := pairedDBs(t)
	n := createDoc(t, a, "lazarus")
	sync(t, a, b, Options{})
	a.Session("user").Delete(n.OID.UNID)
	// Purge the stub at a before b ever hears about the delete.
	purged, err := a.PurgeStubs(a.Clock().Now() + 1)
	if err != nil || purged != 1 {
		t.Fatalf("PurgeStubs = %d, %v", purged, err)
	}
	sync(t, a, b, Options{})
	// b still has the doc and pushes it back to a: resurrection.
	if _, err := a.Session("user").Get(n.OID.UNID); err != nil {
		t.Errorf("expected resurrection at a, got %v", err)
	}
}

func TestACLReplicates(t *testing.T) {
	a, b := pairedDBs(t)
	a.ACL().Set("alice", 6) // Manager
	a.ACL().SetDefault(2)   // Reader
	if err := a.SaveACL(nil); err != nil {
		t.Fatal(err)
	}
	sync(t, a, b, Options{})
	lv, _ := b.ACL().Access("alice", nil)
	if int(lv) != 6 {
		t.Errorf("alice level at b = %v", lv)
	}
	if int(b.ACL().Default()) != 2 {
		t.Errorf("default at b = %v", b.ACL().Default())
	}
}

func TestViewDesignReplicates(t *testing.T) {
	a, b := pairedDBs(t)
	createDoc(t, a, "indexed doc")
	if err := addSubjectView(a); err != nil {
		t.Fatal(err)
	}
	sync(t, a, b, Options{})
	ix, ok := b.View("by subject")
	if !ok {
		t.Fatalf("view did not replicate; b views = %v", b.ViewNames())
	}
	if ix.Len() != 1 {
		t.Errorf("replicated view has %d entries", ix.Len())
	}
}

func addSubjectView(db *core.Database) error {
	def, err := newSubjectDef()
	if err != nil {
		return err
	}
	return db.AddView(nil, def)
}
