package repl

import (
	"errors"
	"fmt"
	"math/rand"
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

	// A 400-document pair, settled by two syncs: a round that changes 1%,
	// 10% or 50% of it sends exactly the changed notes, and its bytes track
	// them, not the database a full copy moves.
	a, b = pairedDBs(t)
	var unids []nsf.UNID
	for i := 0; i < 400; i++ {
		unids = append(unids, createDoc(t, a, fmt.Sprintf("doc %d", i)).OID.UNID)
	}
	sync(t, a, b, Options{})
	sync(t, a, b, Options{})
	fc, err := FullCopy(b, &LocalPeer{DB: a})
	if err != nil {
		t.Fatal(err)
	}
	full := fc.BytesIn + fc.BytesOut
	var roundBytes []int64
	for _, pct := range []int{1, 10, 50} {
		changed := len(unids) * pct / 100
		for _, u := range unids[:changed] {
			n, err := a.Session("user").Get(u)
			if err != nil {
				t.Fatal(err)
			}
			n.SetText("Body", fmt.Sprintf("changed in the %d%% round", pct))
			if err := a.Session("user").Update(n); err != nil {
				t.Fatal(err)
			}
		}
		st := sync(t, a, b, Options{})
		t.Logf("%d%% changed: %d notes, %d bytes; a full copy moves %d", pct, st.NotesSent, st.BytesIn+st.BytesOut, full)
		if st.NotesSent != changed || st.NotesFetched != 0 || st.Push.Updated != changed {
			t.Errorf("%d%% changed: the round moved %v, want exactly the %d changed notes", pct, st, changed)
		}
		roundBytes = append(roundBytes, st.BytesIn+st.BytesOut)
	}
	if roundBytes[0]*50 > full {
		t.Errorf("a 1%% round moved %d bytes, over 2%% of a full copy's %d", roundBytes[0], full)
	}
	if roundBytes[1] < 5*roundBytes[0] {
		t.Errorf("rounds moved %d bytes at 1%% and %d at 10%%, want at least 5x more", roundBytes[0], roundBytes[1])
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

// TestFieldMergeResolvesDisjointEdits edits each of 60 documents on both
// replicas at once: a seeded third of them on the same item, the rest on
// disjoint items. Without field merge each makes a conflict document. With
// it the disjoint edits merge, and only the same-item edits conflict.
func TestFieldMergeResolvesDisjointEdits(t *testing.T) {
	const docs = 60
	rng := rand.New(rand.NewSource(12))
	sameItem, overlaps := make([]bool, docs), 0
	for i := range sameItem {
		if sameItem[i] = rng.Intn(3) == 0; sameItem[i] {
			overlaps++
		}
	}
	for _, merge := range []bool{false, true} {
		t.Run(fmt.Sprintf("merge=%v", merge), func(t *testing.T) {
			a, b := pairedDBs(t)
			var unids []nsf.UNID
			for i := 0; i < docs; i++ {
				n := nsf.NewNote(nsf.ClassDocument)
				n.SetText("Subject", fmt.Sprintf("merge me %d", i))
				n.SetText("Owner", "nobody")
				n.SetText("Status", "new")
				if err := a.Session("user").Create(n); err != nil {
					t.Fatal(err)
				}
				unids = append(unids, n.OID.UNID)
			}
			sync(t, a, b, Options{})
			edit := func(db *core.Database, unid nsf.UNID, item, value string) {
				n, err := db.Session("user").Get(unid)
				if err != nil {
					t.Fatal(err)
				}
				n.SetText(item, value)
				if err := db.Session("user").Update(n); err != nil {
					t.Fatal(err)
				}
			}
			for i, u := range unids {
				edit(a, u, "Owner", "alice")
				if sameItem[i] {
					edit(b, u, "Owner", "bob")
				} else {
					edit(b, u, "Status", "done")
				}
			}
			opts := Options{Apply: ApplyOptions{FieldMerge: merge}}
			st := sync(t, a, b, opts)
			st2 := sync(t, a, b, opts)
			merged := st.Pull.Merged + st.Push.Merged + st2.Pull.Merged + st2.Push.Merged
			if err := check.Identical(a, b); err != nil {
				t.Error(err)
			}
			conflicts := 0
			a.ScanAll(func(x *nsf.Note) bool {
				if x.IsConflict() {
					conflicts++
				}
				return true
			})
			wantConflicts, wantMerged := docs, 0
			if merge {
				wantConflicts, wantMerged = overlaps, docs-overlaps
			}
			t.Logf("%d conflict documents, %d merged of %d (%d same-item)", conflicts, merged, docs, overlaps)
			if conflicts != wantConflicts || merged != wantMerged {
				t.Errorf("%d conflict documents and %d merges, want %d and %d", conflicts, merged, wantConflicts, wantMerged)
			}
			if !merge {
				return
			}
			for i, u := range unids {
				if sameItem[i] {
					continue
				}
				for _, db := range []*core.Database{a, b} {
					got, err := db.Session("user").Get(u)
					if err != nil {
						t.Fatalf("Get: %v", err)
					}
					if got.Text("Owner") != "alice" || got.Text("Status") != "done" {
						t.Errorf("db %s: merged doc = Owner %q Status %q", db.Title(), got.Text("Owner"), got.Text("Status"))
					}
				}
			}
		})
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

// TestThreeWayConvergence replicates rings of 3 and 8 replicas and a hub
// with 7 spokes, 5 documents each, round after round until every replica
// is identical. A change cascades within a round, so the ring of 3
// converges in one round (its last session closes the ring) and the others
// in two, the ring of 8 paying more sessions than the hub.
func TestThreeWayConvergence(t *testing.T) {
	for _, tc := range []struct {
		name             string
		replicas         int
		hub              bool
		rounds, sessions int
	}{
		{"ring of 3", 3, false, 1, 3},
		{"ring of 8", 8, false, 2, 16},
		{"hub and 7 spokes", 8, true, 2, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			replica := nsf.NewReplicaID()
			dbs := make([]*core.Database, tc.replicas)
			for i := range dbs {
				db, err := core.Open(filepath.Join(t.TempDir(), fmt.Sprintf("r%d.nsf", i)),
					core.Options{Title: fmt.Sprintf("r%d", i), ReplicaID: replica})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				dbs[i] = db
				for j := 0; j < 5; j++ {
					createDoc(t, db, fmt.Sprintf("r%d-doc%d", i, j))
				}
			}
			identical := func() bool {
				for _, db := range dbs[1:] {
					if check.Identical(dbs[0], db) != nil {
						return false
					}
				}
				return true
			}
			rounds, sessions := 0, 0
			for ; rounds < 10 && !identical(); rounds++ {
				for i := range dbs {
					local, peer := i, (i+1)%len(dbs)
					if tc.hub {
						if i == 0 {
							continue
						}
						local, peer = 0, i
					}
					if _, err := Replicate(dbs[local], &LocalPeer{DB: dbs[peer]},
						Options{PeerName: fmt.Sprintf("r%d", peer)}); err != nil {
						t.Fatalf("Replicate: %v", err)
					}
					sessions++
				}
			}
			t.Logf("%d rounds, %d sessions", rounds, sessions)
			if rounds != tc.rounds || sessions != tc.sessions || len(docSubjects(t, dbs[0])) != 5*tc.replicas {
				t.Errorf("%d rounds and %d sessions to converge on %d documents, want %d, %d and %d",
					rounds, sessions, len(docSubjects(t, dbs[0])), tc.rounds, tc.sessions, 5*tc.replicas)
			}
		})
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

// TestStubPurgeResurrection: while a replica is offline, the source
// deletes 12 of 24 documents, and the replica edits each of the 12 twice, so
// its version carries a higher sequence number than the stub. With the
// stubs kept, every deletion wins. Purged before the replica syncs, which
// is the documented Notes anomaly, every deleted document comes back.
func TestStubPurgeResurrection(t *testing.T) {
	const docs, deletes = 24, 12
	for _, purge := range []bool{false, true} {
		t.Run(fmt.Sprintf("purge=%v", purge), func(t *testing.T) {
			a, b := pairedDBs(t)
			var unids []nsf.UNID
			for i := 0; i < docs; i++ {
				unids = append(unids, createDoc(t, a, fmt.Sprintf("doc %d", i)).OID.UNID)
			}
			sync(t, a, b, Options{})
			sb := b.Session("user")
			for _, u := range unids[:deletes] {
				if err := a.Session("user").Delete(u); err != nil {
					t.Fatal(err)
				}
				nb, err := sb.Get(u)
				if err != nil {
					t.Fatal(err)
				}
				for _, body := range []string{"edit one", "edit two"} {
					nb.SetText("Body", body)
					if err := sb.Update(nb); err != nil {
						t.Fatal(err)
					}
				}
			}
			wantStubs, wantResurrected := deletes, 0
			if purge {
				if purged, err := a.PurgeStubs(a.Clock().Now() + 1); err != nil || purged != deletes {
					t.Fatalf("PurgeStubs = %d, %v", purged, err)
				}
				wantStubs, wantResurrected = 0, deletes
			}
			sync(t, a, b, Options{})
			sync(t, a, b, Options{})
			stubs, resurrected := 0, 0
			for _, u := range unids[:deletes] {
				switch n, err := a.RawGet(u); {
				case err != nil:
				case n.IsStub():
					stubs++
				default:
					resurrected++
				}
			}
			t.Logf("%d stubs, %d of %d deleted documents resurrected", stubs, resurrected, deletes)
			if stubs != wantStubs || resurrected != wantResurrected {
				t.Errorf("%d stubs and %d resurrected, want %d and %d", stubs, resurrected, wantStubs, wantResurrected)
			}
			if got := len(docSubjects(t, a)); got != docs-deletes+resurrected {
				t.Errorf("%d live documents, want %d", got, docs-deletes+resurrected)
			}
			if err := check.Identical(a, b); err != nil {
				t.Error(err)
			}
		})
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
