package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/view"
)

// addAllView defines a view selecting every memo.
func addAllView(t *testing.T, db *Database, name string) {
	t.Helper()
	def, err := view.NewDefinition(name, `SELECT Form = "Memo"`,
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddView(nil, def); err != nil {
		t.Fatalf("AddView: %v", err)
	}
}

// TestReadYourWritesUnderConcurrency runs writers and readers concurrently;
// each writer must see its own document in the view immediately after the
// write, through the refresh barrier in Session.Rows.
func TestReadYourWritesUnderConcurrency(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session(fmt.Sprintf("user%d", w))
			for i := 0; i < perWriter; i++ {
				subject := fmt.Sprintf("w%d-m%d", w, i)
				if err := s.Create(memo(subject)); err != nil {
					errs <- err
					return
				}
				rows, err := s.Rows("all")
				if err != nil {
					errs <- err
					return
				}
				found := false
				for _, r := range rows {
					if r.Entry != nil && len(r.Entry.Values) > 0 && r.Entry.Values[0].String() == subject {
						found = true
						break
					}
				}
				if !found {
					errs <- fmt.Errorf("writer %d did not read its own write %q", w, subject)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ix, _ := db.View("all")
	if ix.Len() != writers*perWriter {
		t.Errorf("view has %d entries, want %d", ix.Len(), writers*perWriter)
	}
}

// TestWaitForUSNReadYourWrites exercises the explicit barrier: after
// WaitForUSN on the write's USN, even the stale (barrier-free) view handle
// must contain the document.
func TestWaitForUSNReadYourWrites(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	s := db.Session("alice")
	if err := s.Create(memo("barrier me")); err != nil {
		t.Fatal(err)
	}
	usn := db.LastUSN()
	db.WaitForUSN(usn)
	ix, _ := db.ViewStale("all")
	if ix.Len() != 1 {
		t.Errorf("after WaitForUSN(%d) view has %d entries, want 1", usn, ix.Len())
	}
}

// stalledChanges is how many changes the stalled-maintainer tests commit
// behind it: more than a ring of the last 8,192 changes would have held.
const stalledChanges = 8292

// TestFeedOverflowCatchesUpFromStore commits stalledChanges documents while
// the maintainer is stalled, and asserts that the stats show the lag and
// that the view converges to the correct contents anyway.
func TestFeedOverflowCatchesUpFromStore(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	s := db.Session("alice")
	if err := s.Create(memo("pre")); err != nil {
		t.Fatal(err)
	}
	db.Refresh()
	// Stall the maintainer: applyToViews needs db.mu.RLock, which blocks
	// while the test holds the write lock. Commits (wmu + store only) keep
	// flowing.
	db.mu.Lock()
	const n = stalledChanges
	for i := 0; i < n; i++ {
		if err := s.Create(memo(fmt.Sprintf("burst%d", i))); err != nil {
			db.mu.Unlock()
			t.Fatal(err)
		}
	}
	lag := db.Stats().Feed.MaxLag
	db.mu.Unlock()
	if lag < n {
		t.Errorf("stalled maintainer reports a lag of %d, want at least %d", lag, n)
	}
	db.Refresh()
	ix, _ := db.ViewStale("all")
	if ix.Len() != n+1 {
		t.Errorf("view has %d entries after the stall, want %d", ix.Len(), n+1)
	}
	sub, ok := feedSubscriber(db, "views")
	if !ok {
		t.Fatal("no views consumer in feed stats")
	}
	if sub.Dropped {
		t.Error("views consumer was dropped")
	}
	if lag := db.Stats().Feed.MaxLag; lag != 0 {
		t.Errorf("after Refresh the maintainer lags %d USNs", lag)
	}
}

// feedSubscriber returns the named consumer's feed stats.
func feedSubscriber(db *Database, name string) (ConsumerStats, bool) {
	for _, sub := range db.Stats().Feed.Subscribers {
		if sub.Name == name {
			return sub, true
		}
	}
	return ConsumerStats{}, false
}

// TestOverflowCatchUpEqualsRebuild stalls the maintainer, with views, full
// text and an OnChange callback, while stalledChanges changes are committed
// behind it. Among them are a hard delete (a stub purged, so it leaves no
// USN to scan) and an update that moves a document out of the view's
// selection. After the catch-up the view must equal a rebuilt view, full
// text a rebuilt index, and the callback must have seen every document
// created meanwhile.
func TestOverflowCatchUpEqualsRebuild(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	s := db.Session("alice")
	doomed, mover := memo("doomed ghost"), memo("mover")
	for _, n := range []*nsf.Note{doomed, mover} {
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	db.Refresh()
	release := make(chan struct{})
	var mu sync.Mutex
	seen := make(map[nsf.UNID]bool)
	db.OnChange(func(n *nsf.Note) {
		<-release
		mu.Lock()
		seen[n.OID.UNID] = true
		mu.Unlock()
	})

	// Stall: the views consumer blocks on db.mu, and the OnChange callback
	// on release. The first change is a create, so the maintainer is stuck
	// inside it before the delete and the move.
	var created []nsf.UNID
	create := func(i int) {
		n := memo(fmt.Sprintf("burst%d %s", i, []string{"alpha", "beta", "gamma"}[i%3]))
		if err := s.Create(n); err != nil {
			t.Error(err)
		}
		created = append(created, n.OID.UNID)
	}
	db.mu.Lock()
	create(0)
	if err := s.Delete(doomed.OID.UNID); err != nil {
		t.Error(err)
	}
	if _, err := db.PurgeStubs(db.Clock().Now() + 1); err != nil {
		t.Error(err)
	}
	mover.SetText("Form", "Other")
	if err := s.Update(mover); err != nil {
		t.Error(err)
	}
	for i := 1; i < stalledChanges; i++ {
		create(i)
	}
	db.mu.Unlock()
	close(release)
	if t.Failed() {
		t.FailNow()
	}
	db.Refresh()

	ix, _ := db.ViewStale("all")
	rebuilt := view.NewIndex(ix.Definition())
	if err := db.rebuildViews(rebuilt); err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Rows(nil), rebuilt.Rows(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("caught-up view has %d rows, rebuilt view %d, and they differ", len(got), len(want))
	}
	fresh := ft.NewIndex()
	if err := db.ScanAll(func(n *nsf.Note) bool { fresh.Update(n); return true }); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"ghost", "mover", "alpha", "beta AND burst7", "burst8191", "pre"} {
		got, err1 := db.FullText().Search(q)
		want, err2 := fresh.Search(q)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(hitSet(got), hitSet(want)) {
			t.Errorf("search %q: caught up %d hits (%v), rebuilt %d (%v)", q, len(got), err1, len(want), err2)
		}
	}
	if got, want := db.FullText().DocCount(), fresh.DocCount(); got != want {
		t.Errorf("caught-up full text holds %d documents, rebuilt %d", got, want)
	}
	mu.Lock()
	missed := 0
	for _, u := range created {
		if !seen[u] {
			missed++
		}
	}
	mu.Unlock()
	if missed > 0 {
		t.Errorf("OnChange missed %d of %d documents created while it was stalled", missed, len(created))
	}
	for _, name := range []string{"views", "fulltext", "onchange-1"} {
		sub, ok := feedSubscriber(db, name)
		if !ok || sub.Dropped {
			t.Errorf("consumer %s: %+v (present %v), want it present and not dropped", name, sub, ok)
		}
	}
}

// hitSet is the set of documents a search hit.
func hitSet(hits []ft.Result) map[nsf.UNID]bool {
	out := make(map[nsf.UNID]bool, len(hits))
	for _, h := range hits {
		out[h.UNID] = true
	}
	return out
}

// TestEveryWriteSharesTheStoreUSN calls every write API in turn: each must
// advance the store's USN and wake the maintainer, whose cursor reaches
// that USN at the next Refresh (bookkeeping notes and hard deletes too).
func TestEveryWriteSharesTheStoreUSN(t *testing.T) {
	db := openDB(t, Options{})
	archive := openDB(t, Options{})
	s := db.Session("ada")
	var last uint64
	check := func(op string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		db.Refresh()
		st := db.Stats()
		if st.LastUSN <= last {
			t.Fatalf("%s left the store at USN %d", op, st.LastUSN)
		}
		if st.Feed.LastUSN != st.LastUSN || st.Feed.MaxLag != 0 {
			t.Fatalf("after %s and Refresh the feed is at USN %d, %d behind; the store at %d", op, st.Feed.LastUSN, st.Feed.MaxLag, st.LastUSN)
		}
		last = st.LastUSN
	}
	a, b := memo("a"), memo("b")
	check("Create", s.Create(a))
	a.SetText("Subject", "a2")
	check("Update", s.Update(a))
	check("Create", s.Create(b))
	check("Delete", s.Delete(b.OID.UNID))
	_, err := s.PutBatch([]*nsf.Note{memo("c"), memo("d")})
	check("PutBatch", err)
	raw := memo("raw")
	raw.OID = nsf.OID{UNID: nsf.NewUNID(), Seq: 1, SeqTime: db.Clock().Now()}
	check("RawPut", db.RawPut(raw))
	check("RawDelete", db.RawDelete(raw.OID.UNID))
	_, err = db.PurgeStubs(db.Clock().Now() + 1)
	check("PurgeStubs", err)
	check("SaveACL", db.SaveACL(nil))
	def, err := view.NewDefinition("all", `SELECT Form = "Memo"`, view.Column{Title: "Subject", ItemName: "Subject"})
	if err != nil {
		t.Fatal(err)
	}
	check("AddView", db.AddView(nil, def))
	check("CreateFolder", db.CreateFolder(nil, "inbox"))
	check("AddToFolder", s.AddToFolder("inbox", a.OID.UNID))
	_, err = s.RemoveFromFolder("inbox", a.OID.UNID)
	check("RemoveFromFolder", err)
	p, err := s.Profile("prefs", "")
	check("Profile", err)
	p.SetText("Color", "blue")
	check("SaveProfile", s.SaveProfile(p))
	check("MarkRead", s.MarkRead(a.OID.UNID))
	check("MarkUnread", s.MarkUnread(a.OID.UNID))
	_, err = db.ArchiveTo(archive, db.Clock().Now()+1)
	check("ArchiveTo", err)
}

// TestPanickingOnChangeSubscriberIsIsolated registers a callback that
// panics on every event. The writer must be unaffected, the barrier must
// not wedge, and the views and a healthy callback, on the same maintainer
// goroutine, keep receiving changes.
func TestPanickingOnChangeSubscriberIsIsolated(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	db.OnChange(func(n *nsf.Note) { panic("subscriber bug") })
	var mu sync.Mutex
	var healthy int
	db.OnChange(func(n *nsf.Note) {
		mu.Lock()
		healthy++
		mu.Unlock()
	})
	s := db.Session("alice")
	for i := 0; i < 3; i++ {
		if err := s.Create(memo(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("Create after subscriber panic: %v", err)
		}
	}
	done := make(chan struct{})
	go func() { db.Refresh(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Refresh wedged on a panicked subscriber")
	}
	mu.Lock()
	defer mu.Unlock()
	if healthy != 3 {
		t.Errorf("healthy subscriber saw %d events, want 3", healthy)
	}
	if ix, _ := db.ViewStale("all"); ix.Len() != 3 {
		t.Errorf("view holds %d documents, want 3", ix.Len())
	}
	for _, sub := range db.Stats().Feed.Subscribers {
		if sub.Dropped != (sub.Name == "onchange-1") {
			t.Errorf("consumer %s: dropped %v", sub.Name, sub.Dropped)
		}
	}
}

// TestWritePathDoesNotAliasCallerNote mutates the note after Create
// returns; the view and full-text index must hold the values as committed,
// because the maintainer reads the stored version.
func TestWritePathDoesNotAliasCallerNote(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	s := db.Session("alice")
	n := memo("committed subject")
	if err := s.Create(n); err != nil {
		t.Fatal(err)
	}
	// Hostile caller: scribble on the note the indexes were handed.
	n.SetText("Subject", "scribbled")
	n.SetText("Form", "NotAMemo")
	db.Refresh()
	ix, _ := db.ViewStale("all")
	if ix.Len() != 1 {
		t.Fatalf("view has %d entries, want 1 (selection must use committed Form)", ix.Len())
	}
	rows := ix.Rows(nil)
	got := ""
	for _, r := range rows {
		if r.Entry != nil && len(r.Entry.Values) > 0 {
			got = r.Entry.Values[0].String()
		}
	}
	if got != "committed subject" {
		t.Errorf("view column = %q, want the committed value", got)
	}
	if hits, err := s.Search("committed"); err != nil || len(hits) != 1 {
		t.Errorf("search for committed text: %d hits, %v", len(hits), err)
	}
	if hits, _ := s.Search("scribbled"); len(hits) != 0 {
		t.Errorf("search found post-commit scribble: %d hits", len(hits))
	}
}

// TestWriteLatencyIndependentOfConsumers is a smoke check that a Put never
// waits on a slow consumer.
func TestWriteLatencyIndependentOfConsumers(t *testing.T) {
	db := openDB(t, Options{})
	release := make(chan struct{})
	var once sync.Once
	db.OnChange(func(n *nsf.Note) { <-release }) // wedged consumer
	defer once.Do(func() { close(release) })
	s := db.Session("alice")
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := s.Create(memo(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("writes blocked on a wedged subscriber: %v", d)
	}
	once.Do(func() { close(release) })
}

// blockOn registers an OnChange callback that, on the document with the
// given subject, signals entered and waits for release: the maintainer is
// then stuck inside a pass.
func blockOn(db *Database, subject string) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	db.OnChange(func(n *nsf.Note) {
		if n.Text("Subject") == subject {
			close(entered)
			<-release
		}
	})
	return entered, release
}

// TestPassCoversHardDeleteThenRecreate hard-deletes a document and creates
// it again under the same UNID while the maintainer is stuck, so one pass
// covers both: the document must stay in the view and in full text.
func TestPassCoversHardDeleteThenRecreate(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	s := db.Session("alice")
	phoenix := memo("phoenix ashes")
	if err := s.Create(phoenix); err != nil {
		t.Fatal(err)
	}
	entered, release := blockOn(db, "blocker")
	if err := s.Create(memo("blocker")); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := db.RawDelete(phoenix.OID.UNID); err != nil {
		t.Fatal(err)
	}
	reborn := memo("phoenix reborn")
	reborn.OID.UNID = phoenix.OID.UNID
	if err := s.Create(reborn); err != nil {
		t.Fatal(err)
	}
	close(release)
	db.Refresh()
	ix, _ := db.ViewStale("all")
	if e, ok := viewEntry(ix, phoenix.OID.UNID); !ok || e.Values[0].String() != "phoenix reborn" {
		t.Errorf("view entry of the re-created document: %+v, present %v", e, ok)
	}
	for q, want := range map[string]int{"reborn": 1, "ashes": 0} {
		if hits, err := db.FullText().Search(q); err != nil || len(hits) != want {
			t.Errorf("search %q: %d hits (%v), want %d", q, len(hits), err, want)
		}
	}
}

// viewEntry returns the entry ix holds for unid.
func viewEntry(ix *view.Index, unid nsf.UNID) (*view.Entry, bool) {
	for _, e := range ix.Entries() {
		if e.UNID == unid {
			return e, true
		}
	}
	return nil, false
}

// TestWaitForUSNCoversHardDelete hard-deletes documents, each while the
// maintainer may be in a pass: WaitForUSN on the delete's USN must return
// only once the document has left the view, full text and unread marks.
func TestWaitForUSNCoversHardDelete(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	s := db.Session("alice")
	for i := 0; i < 50; i++ {
		n := memo(fmt.Sprintf("doomed%d", i))
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
		if err := s.MarkRead(n.OID.UNID); err != nil {
			t.Fatal(err)
		}
		if err := db.RawDelete(n.OID.UNID); err != nil {
			t.Fatal(err)
		}
		db.WaitForUSN(db.LastUSN())
		ix, _ := db.ViewStale("all")
		if _, ok := viewEntry(ix, n.OID.UNID); ok {
			t.Fatalf("delete %d: still in the view after WaitForUSN", i)
		}
		if hits, _ := db.FullText().Search(fmt.Sprintf("doomed%d", i)); len(hits) != 0 {
			t.Fatalf("delete %d: still in full text after WaitForUSN", i)
		}
		marks, err := db.unreadFor("alice")
		if err != nil {
			t.Fatal(err)
		}
		marks.mu.Lock()
		_, marked := marks.read[n.OID.UNID]
		marks.mu.Unlock()
		if marked {
			t.Fatalf("delete %d: read mark kept after WaitForUSN", i)
		}
	}
}

// TestOnChangeSeesCommitsInOrder commits a run of notes: the callback
// gets every one of them, in commit order.
func TestOnChangeSeesCommitsInOrder(t *testing.T) {
	db := openDB(t, Options{})
	s := db.Session("alice")
	var got []string
	db.OnChange(func(n *nsf.Note) { got = append(got, n.Text("Subject")) })
	var want []string
	for i := 0; i < 50; i++ {
		subject := fmt.Sprintf("m%d", i)
		if err := s.Create(memo(subject)); err != nil {
			t.Fatal(err)
		}
		want = append(want, subject)
	}
	db.Refresh()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("callback saw %q, want %q", got, want)
	}
}

// TestOnChangeStartsAtHead registers a callback after some commits: it
// gets only the notes committed after it.
func TestOnChangeStartsAtHead(t *testing.T) {
	db := openDB(t, Options{})
	s := db.Session("alice")
	for i := 0; i < 5; i++ {
		if err := s.Create(memo(fmt.Sprintf("before%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	db.OnChange(func(n *nsf.Note) { got = append(got, n.Text("Subject")) })
	if err := s.Create(memo("after")); err != nil {
		t.Fatal(err)
	}
	db.Refresh()
	if want := []string{"after"}; !reflect.DeepEqual(got, want) {
		t.Errorf("late callback saw %q, want %q (only the post-register commit)", got, want)
	}
}

// TestCloseDrainsConsumers closes a database right after a burst of
// commits: every one reaches the callback before Close returns.
func TestCloseDrainsConsumers(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "drain.nsf"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := 0
	db.OnChange(func(*nsf.Note) {
		mu.Lock()
		seen++
		mu.Unlock()
	})
	s := db.Session("alice")
	for i := 0; i < 100; i++ {
		if err := s.Create(memo(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen != 100 {
		t.Errorf("callback saw %d of 100 commits before Close returned", seen)
	}
}

// TestOnChangeRegistersDuringPasses registers callbacks while a writer
// keeps the maintainer busy: each must get every commit after it.
func TestOnChangeRegistersDuringPasses(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	s := db.Session("alice")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := s.Create(memo(fmt.Sprintf("busy%d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var mu sync.Mutex
	last := make([]string, 20)
	for i := range last {
		db.OnChange(func(n *nsf.Note) {
			mu.Lock()
			last[i] = n.Text("Subject")
			mu.Unlock()
		})
	}
	<-done
	if err := s.Create(memo("final")); err != nil {
		t.Fatal(err)
	}
	db.Refresh()
	mu.Lock()
	defer mu.Unlock()
	for i, subject := range last {
		if subject != "final" {
			t.Errorf("callback %d last saw %q, want the final commit", i, subject)
		}
	}
}

// createAll creates a memo for each subject.
func createAll(t *testing.T, s *Session, subjects ...string) {
	t.Helper()
	for _, subject := range subjects {
		if err := s.Create(memo(subject)); err != nil {
			t.Fatal(err)
		}
	}
}

// fillers returns n memo subjects: committed behind a document the walk
// stops on, they put more than one latch hold's batch of the walk between
// it and what follows.
func fillers(n int) []string {
	subjects := make([]string, n)
	for i := range subjects {
		subjects[i] = fmt.Sprintf("filler%d", i)
	}
	return subjects
}

// TestBarrierCoversNoteCommittedAgainInPass updates a document after the
// walk's first latch hold and before the walk reaches it: the first
// version leaves the USN index unread, so no cursor may cover it until the
// second version is in the view.
func TestBarrierCoversNoteCommittedAgainInPass(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	s := db.Session("alice")
	gate, openGate := blockOn(db, "gate")
	halt, resume := blockOn(db, "halt")
	stall, unstall := blockOn(db, "stall")
	createAll(t, s, "gate")
	<-gate
	createAll(t, s, "halt")
	createAll(t, s, fillers(300)...)
	x := memo("x v1")
	if err := s.Create(x); err != nil {
		t.Fatal(err)
	}
	created := db.LastUSN()
	close(openGate)
	<-halt
	createAll(t, s, "stall")
	x.SetWithFlags("Subject", nsf.TextValue("x v2"), nsf.FlagSummary)
	if err := s.Update(x); err != nil {
		t.Fatal(err)
	}
	close(resume)
	<-stall // the walk is past x's first version and before its second
	fs := db.Stats().Feed
	ix, _ := db.ViewStale("all")
	if cursor := fs.LastUSN - fs.MaxLag; cursor >= created {
		if _, ok := viewEntry(ix, x.OID.UNID); !ok {
			t.Errorf("cursor %d covers the create at %d, but the view lacks the document", cursor, created)
		}
	}
	close(unstall)
	db.WaitForUSN(created)
	ix, _ = db.ViewStale("all")
	if e, ok := viewEntry(ix, x.OID.UNID); !ok || e.Values[0].String() != "x v2" {
		t.Errorf("view entry after the barrier: %+v, present %v; want x v2", e, ok)
	}
}

// TestFailedWalkReleasesBarrier fails the maintainer's walk between two
// latch holds, here by closing the store under it: every consumer is
// dropped and the barrier returns rather than waiting for a cursor that
// no longer moves.
func TestFailedWalkReleasesBarrier(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	s := db.Session("alice")
	gate, openGate := blockOn(db, "gate")
	halt, resume := blockOn(db, "halt")
	createAll(t, s, "gate")
	<-gate
	createAll(t, s, "halt")
	createAll(t, s, fillers(300)...)
	close(openGate)
	<-halt
	if err := db.st.Close(); err != nil {
		t.Fatal(err)
	}
	close(resume)
	done := make(chan struct{})
	go func() {
		db.WaitForUSN(db.LastUSN())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("barrier still waiting after the walk failed")
	}
	for _, c := range db.Stats().Feed.Subscribers {
		if !c.Dropped {
			t.Errorf("consumer %s not dropped after the walk failed", c.Name)
		}
	}
}

// TestOnChangeRegisteredMidWalk registers a callback while the maintainer
// is stuck in a walk with more than a batch still to go, then commits: the
// same walk reaches the commit and must hand it to the new callback.
func TestOnChangeRegisteredMidWalk(t *testing.T) {
	db := openDB(t, Options{})
	s := db.Session("alice")
	gate, openGate := blockOn(db, "gate")
	halt, resume := blockOn(db, "halt")
	createAll(t, s, "gate")
	<-gate
	createAll(t, s, "halt")
	createAll(t, s, fillers(300)...)
	close(openGate)
	<-halt
	var got []string
	db.OnChange(func(n *nsf.Note) { got = append(got, n.Text("Subject")) })
	createAll(t, s, "late")
	close(resume)
	db.Refresh()
	if want := []string{"late"}; !reflect.DeepEqual(got, want) {
		t.Errorf("callback registered mid-walk saw %q, want %q", got, want)
	}
}
