package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/acl"
	"repro/internal/formula"
	"repro/internal/nsf"
	"repro/internal/view"
)

// viewRows renders every view of db, by name, as a reader allowed every
// entry sees it.
func viewRows(db *Database) map[string][]view.Row {
	out := make(map[string][]view.Row)
	for _, name := range db.ViewNames() {
		ix, _ := db.View(name)
		out[name], _ = ix.RowsRange(nil, 0, 0)
	}
	return out
}

// addViews defines the views TestOpenEqualsIncremental churns: a
// selection on a text item, a categorized view with totals, a
// ShowResponses view, and a view whose selection and column formulas
// divide (Qty = 0 fails them).
func addViews(t *testing.T, db *Database) {
	t.Helper()
	defs := []struct {
		name, sel string
		cols      []view.Column
	}{
		{"memos", `SELECT Form = "Memo"`, []view.Column{
			{Title: "Subject", ItemName: "Subject", Sorted: true},
			{Title: "From", ItemName: "From"}}},
		{"bycat", "SELECT @All", []view.Column{
			{Title: "Cat", ItemName: "Cat", Categorized: true, Sorted: true},
			{Title: "Subject", ItemName: "Subject", Sorted: true, Descending: true},
			{Title: "Amt", ItemName: "Amt", Totals: true}}},
		{"threads", "SELECT @All", []view.Column{
			{Title: "Subject", ItemName: "Subject", Sorted: true}}},
		{"ratios", "SELECT Amt / Qty >= 0", []view.Column{
			{Title: "Ratio", Formula: formula.MustCompile("Amt / Qty"), Sorted: true},
			{Title: "Subject", ItemName: "Subject"}}},
	}
	for _, d := range defs {
		def, err := view.NewDefinition(d.name, d.sel, d.cols...)
		if err != nil {
			t.Fatal(err)
		}
		def.ShowResponses = d.name == "threads"
		if err := db.AddView(nil, def); err != nil {
			t.Fatalf("AddView %s: %v", d.name, err)
		}
	}
}

// TestOpenEqualsIncremental churns a corpus through views maintained while
// the database stays open, then reopens it: every view Open builds must
// render as the maintained one did.
func TestOpenEqualsIncremental(t *testing.T) {
	path := filepath.Join(t.TempDir(), "churn.nsf")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	addViews(t, db)
	s := db.Session("alice")
	var docs []*nsf.Note
	for i := 0; i < 300; i++ {
		n := memo(fmt.Sprintf("Subject %03d", i*7%300))
		n.SetText("From", fmt.Sprintf("sender %d", i%13))
		n.SetText("Cat", fmt.Sprintf("cat %d", i%5))
		n.SetNumber("Amt", float64(i%17))
		n.SetNumber("Qty", float64(1+i%4))
		if i%10 == 3 {
			n.SetText("$Ref", docs[i-3].OID.UNID.String()) // a response
		}
		if i%25 == 0 {
			n.SetWithFlags("Readers", nsf.TextValue("alice", "bob"), nsf.FlagReaders|nsf.FlagSummary)
		}
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, n)
	}
	// Updates that move documents out of the text selection, deletes, and a
	// purge of some of the stubs.
	for i := 1; i < 300; i += 9 {
		docs[i].SetText("Form", "Other")
		if err := s.Update(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i < 300; i += 11 {
		if err := s.Delete(docs[i].OID.UNID); err != nil {
			t.Fatal(err)
		}
		if i == 101 {
			if _, err := db.PurgeStubs(db.Clock().Now() + 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A document the ratios view's formulas fail on, a folder and an ACL
	// change.
	bad := docs[150]
	bad.SetNumber("Qty", 0)
	if err := s.Update(bad); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateFolder(nil, "kept"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddToFolder("kept", docs[0].OID.UNID); err != nil {
		t.Fatal(err)
	}
	db.ACL().Set("bob", acl.Reader)
	if err := db.SaveACL(nil); err != nil {
		t.Fatal(err)
	}
	maintained := viewRows(db)
	if len(maintained) != 4 || len(maintained["ratios"]) == 0 {
		t.Fatalf("maintained views: %d, ratios rows %d", len(maintained), len(maintained["ratios"]))
	}
	for _, r := range maintained["ratios"] {
		if r.Entry != nil && r.Entry.UNID == bad.OID.UNID {
			t.Fatal("the ratios view holds the document its formulas fail on")
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	reopened := viewRows(db)
	for name, want := range maintained {
		if got := reopened[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("view %s: Open built %d rows, upkeep kept %d, and they differ", name, len(got), len(want))
		}
	}
	if len(reopened) != len(maintained) {
		t.Errorf("Open built views %v", db.ViewNames())
	}
	if lv := db.Session("bob").Identity().Level; lv != acl.Reader {
		t.Errorf("bob's access after reopen is %v, want Reader", lv)
	}
	if folders, err := db.Folders(); err != nil || !reflect.DeepEqual(folders, []string{"kept"}) {
		t.Errorf("folders after reopen: %v, %v", folders, err)
	}
}

// TestReopenOverFormulaErrorDocument opens a database holding a document
// a view's formulas fail on: the view leaves it out at Open, as upkeep
// does, and a view added over it leaves it out too.
func TestReopenOverFormulaErrorDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ratio.nsf")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := view.NewDefinition("ratio", "SELECT @All",
		view.Column{Title: "Ratio", Formula: formula.MustCompile("Amt / Qty"), Sorted: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddView(nil, def); err != nil {
		t.Fatal(err)
	}
	s := db.Session("alice")
	for _, qty := range []float64{2, 0} {
		n := memo("ratio")
		n.SetNumber("Amt", 6)
		n.SetNumber("Qty", qty)
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	if ix, _ := db.View("ratio"); ix.Len() != 1 {
		t.Fatalf("the open view holds %d entries, want 1", ix.Len())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	if ix, _ := db.View("ratio"); ix.Len() != 1 {
		t.Fatalf("the reopened view holds %d entries, want 1", ix.Len())
	}
	sel, err := view.NewDefinition("selective", "SELECT Amt / Qty > 1",
		view.Column{Title: "Subject", ItemName: "Subject"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddView(nil, sel); err != nil {
		t.Fatalf("AddView over a document the selection fails on: %v", err)
	}
	if ix, _ := db.View("selective"); ix.Len() != 1 {
		t.Fatalf("the added view holds %d entries, want 1", ix.Len())
	}
}

// TestReplicatedDesignNoteThatDoesNotApply stores, as replication does, a
// view note whose selection does not compile and an ACL note that does
// not parse. The view note is skipped, at the apply and at Open; the ACL
// note makes Open fail, since skipping it would open the database to
// everyone.
func TestReplicatedDesignNoteThatDoesNotApply(t *testing.T) {
	version := func(db *Database, n *nsf.Note) {
		n.OID.Seq, n.OID.SeqTime, n.Modified = 1, db.Clock().Now(), db.Clock().Now()
	}
	t.Run("view", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "view.nsf")
		db, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		addAllView(t, db, "memos")
		if err := db.Session("alice").Create(memo("kept")); err != nil {
			t.Fatal(err)
		}
		n := nsf.NewNote(nsf.ClassView)
		n.SetText(itemViewTitle, "broken")
		n.SetText(itemViewSel, "SELECT (")
		version(db, n)
		if err := db.RawPut(n); err != nil {
			t.Fatalf("RawPut: %v", err)
		}
		if got := db.ViewNames(); !reflect.DeepEqual(got, []string{"memos"}) {
			t.Fatalf("views after the apply: %v", got)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen over a view note that does not compile: %v", err)
		}
		defer db.Close()
		if got := db.ViewNames(); !reflect.DeepEqual(got, []string{"memos"}) {
			t.Fatalf("views after reopen: %v", got)
		}
		if ix, _ := db.View("memos"); ix.Len() != 1 {
			t.Fatalf("memos holds %d entries, want 1", ix.Len())
		}
	})
	t.Run("acl", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "acl.nsf")
		db, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := &nsf.Note{OID: nsf.OID{UNID: aclNoteUNID(db.ReplicaID())}}
		restricted := acl.New(acl.NoAccess)
		restricted.Set("alice", acl.Manager)
		restricted.WriteNote(n)
		n.SetNumber("$ACLLevels") // a name with no level
		version(db, n)
		if err := db.RawPut(n); err != nil {
			t.Fatalf("RawPut: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err := Open(path, Options{}); err == nil {
			db.Close()
			t.Fatal("Open accepted a database whose ACL note does not parse")
		}
	})
}

// TestOpenAllocsPerView opens the same 2,000 documents under 1 and under 4
// views: Open decodes each note once whatever the number of views, so an
// extra view costs its entries (3 allocations each), not another decode
// of every note.
func TestOpenAllocsPerView(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects, so pooling allocates")
	}
	const docs = 2000
	openAllocs := func(views int) float64 {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("views%d.nsf", views))
		db, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < views; i++ {
			addTwoColumnView(t, db, fmt.Sprintf("view %d", i), "SELECT @All")
		}
		batch := make([]*nsf.Note, docs)
		for i := range batch {
			batch[i] = memo(fmt.Sprintf("subject %d", i))
			batch[i].SetText("From", fmt.Sprintf("sender %d", i))
			batch[i].SetText("Body", "a body no view shows")
		}
		if _, err := db.Session("alice").PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			db, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ix, _ := db.ViewStale("view 0"); ix.Len() != docs {
				t.Fatalf("view holds %d entries, want %d", ix.Len(), docs)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, four := openAllocs(1), openAllocs(4)
	perView := (four - one) / 3 / docs
	t.Logf("Open: %.0f allocations with 1 view, %.0f with 4: %.2f per extra view per document", one, four, perView)
	if perView > 4 {
		t.Errorf("each extra view cost %.2f allocations per document at Open, want at most 4 (3 per entry)", perView)
	}
}

// TestAddViewRacesWriters adds a view while 4 writers create, update and
// delete documents: after the refresh barrier, the view must equal what a
// fresh Open builds. A view and full text are already open, so the
// maintainer decodes every change into its own note and arena while the
// rebuild decodes into another.
func TestAddViewRacesWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.nsf")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	addTwoColumnView(t, db, "all", "SELECT @All")
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	s := db.Session("alice")
	for i := 0; i < 200; i++ {
		if err := s.Create(memo(fmt.Sprintf("seed %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	const writers, ops = 4, 150
	var wg sync.WaitGroup
	started := make(chan struct{}, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*nsf.Note
			for i := 0; i < ops; i++ {
				switch {
				case i%5 == 3 && len(mine) > 0:
					n := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := s.Delete(n.OID.UNID); err != nil {
						t.Error(err)
						return
					}
				case i%5 == 1 && len(mine) > 0:
					n := mine[i%len(mine)]
					n.SetText("Form", []string{"Memo", "Other"}[i%2])
					n.SetText("Subject", fmt.Sprintf("writer %d edit %d", w, i))
					if err := s.Update(n); err != nil {
						t.Error(err)
						return
					}
				default:
					n := memo(fmt.Sprintf("writer %d doc %d", w, i))
					if err := s.Create(n); err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, n)
				}
				if i == 0 {
					started <- struct{}{}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		<-started
	}
	addAllView(t, db, "memos")
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	want := viewRows(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for name, rows := range viewRows(db) {
		if !reflect.DeepEqual(rows, want[name]) {
			t.Errorf("view %s under writers has %d rows, a fresh Open builds %d, and they differ", name, len(want[name]), len(rows))
		}
	}
}
