package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/changefeed"
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

// TestFeedOverflowCatchesUpFromStore laps the feed while the view
// maintainer is stalled, forcing the resync (catch-up) path, and asserts the
// view converges to the correct contents anyway.
func TestFeedOverflowCatchesUpFromStore(t *testing.T) {
	db := openDB(t, Options{})
	addAllView(t, db, "all")
	s := db.Session("alice")
	if err := s.Create(memo("pre")); err != nil {
		t.Fatal(err)
	}
	db.Refresh()
	// Stall the maintainers: applyToViews needs db.mu.RLock, which blocks
	// while the test holds the write lock. Appends (wmu + store only) keep
	// flowing, so the ring is lapped.
	db.mu.Lock()
	const n = changefeed.DefaultCapacity + 100
	for i := 0; i < n; i++ {
		if err := s.Create(memo(fmt.Sprintf("burst%d", i))); err != nil {
			db.mu.Unlock()
			t.Fatal(err)
		}
	}
	db.mu.Unlock()
	db.Refresh()
	ix, _ := db.ViewStale("all")
	if ix.Len() != n+1 {
		t.Errorf("view has %d entries after overflow, want %d", ix.Len(), n+1)
	}
	sub, ok := feedSubscriber(db, "views")
	if !ok {
		t.Fatal("no views subscriber in feed stats")
	}
	if sub.Dropped {
		t.Error("views maintainer was dropped")
	}
	if sub.Resyncs == 0 {
		t.Error("overflow did not trigger a view resync (catch-up)")
	}
}

// feedSubscriber returns the named subscriber's feed stats.
func feedSubscriber(db *Database, name string) (changefeed.SubscriberStats, bool) {
	for _, sub := range db.Stats().Feed.Subscribers {
		if sub.Name == name {
			return sub, true
		}
	}
	return changefeed.SubscriberStats{}, false
}

// TestOverflowCatchUpEqualsRebuild stalls the view, full-text and OnChange
// consumers while more than a ring of changes laps the feed. Among them are
// a hard delete (a stub purged, so it leaves no USN to scan) and an update
// that moves a document out of the view's selection. After the catch-up
// the view must equal a rebuilt view, full text a rebuilt index, and the
// OnChange subscriber must have seen every document created meanwhile.
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

	// Stall: the OnChange callback blocks on release, and the view and
	// full-text maintainers block on db.mu. The first change is a create,
	// so each consumer is stuck inside it before the delete and the move.
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
	for i := 1; i < changefeed.DefaultCapacity+100; i++ {
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
	if err := db.rebuildView(rebuilt); err != nil {
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
		if !ok || sub.Dropped || sub.Resyncs == 0 {
			t.Errorf("subscriber %s: %+v (present %v), want resynced and not dropped", name, sub, ok)
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
// advance the store's USN and append that same USN to the changefeed.
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
		st := db.Stats()
		if st.LastUSN <= last {
			t.Fatalf("%s left the store at USN %d", op, st.LastUSN)
		}
		if st.Feed.LastUSN != st.LastUSN {
			t.Fatalf("after %s the feed is at USN %d, the store at %d", op, st.Feed.LastUSN, st.LastUSN)
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
// not wedge, and a healthy callback keeps receiving events.
func TestPanickingOnChangeSubscriberIsIsolated(t *testing.T) {
	db := openDB(t, Options{})
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
	dropped := false
	for _, sub := range db.Stats().Feed.Subscribers {
		if sub.Dropped {
			dropped = true
		}
	}
	if !dropped {
		t.Error("panicked subscriber not marked dropped in stats")
	}
}

// TestWritePathDoesNotAliasCallerNote mutates the note after Create
// returns; the view and full-text index must hold the values as committed,
// because the feed carries a private clone.
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

// TestWriteLatencyIndependentOfConsumers is a smoke check of the tentpole
// property: a Put must not block on a slow subscriber.
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
