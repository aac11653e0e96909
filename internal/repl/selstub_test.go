package repl

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/store"
)

// rawNote fetches a note bypassing stub filtering; nil when absent.
func rawNote(t *testing.T, db *core.Database, unid nsf.UNID) *nsf.Note {
	t.Helper()
	n, err := db.RawGet(unid)
	if errors.Is(err, core.ErrNotFound) {
		return nil
	}
	if err != nil {
		t.Fatalf("RawGet: %v", err)
	}
	return n
}

// unidSet collects the (UNID, Seq, SeqTime) triples of all document-class
// notes, stubs included — the convergence fingerprint domain.
func unidSet(t *testing.T, db *core.Database) map[nsf.OID]bool {
	t.Helper()
	out := make(map[nsf.OID]bool)
	err := db.ScanAll(func(n *nsf.Note) bool {
		if n.Class == nsf.ClassDocument {
			out[n.OID] = true
		}
		return true
	})
	if err != nil {
		t.Fatalf("ScanAll: %v", err)
	}
	return out
}

func prioDoc(t *testing.T, db *core.Database, subject string, prio float64) *nsf.Note {
	t.Helper()
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetWithFlags("Subject", nsf.TextValue(subject), nsf.FlagSummary)
	n.SetNumber("Priority", prio)
	if err := db.Session("user").Create(n); err != nil {
		t.Fatalf("Create: %v", err)
	}
	return n
}

// A document that falls out of the link's selection mid-life must turn into
// a selection stub at the destination, not stay frozen at its last matching
// version.
func TestSelectionChangeCreatesStubAtDestination(t *testing.T) {
	a, b := pairedDBs(t)
	opts := Options{Formula: "SELECT Priority > 5"}
	n := prioDoc(t, a, "hot topic", 9)
	sync(t, a, b, opts)
	if got := docSubjects(t, b); got["hot topic"] != 1 {
		t.Fatalf("doc did not replicate: %v", got)
	}

	// Edit at a so the document leaves the selection.
	sa := a.Session("user")
	na, _ := sa.Get(n.OID.UNID)
	na.SetNumber("Priority", 1)
	sa.Update(na)

	st := sync(t, a, b, opts)
	if st.Push.Deleted != 1 {
		t.Errorf("push stats = %v, want one deletion", st)
	}
	if got := docSubjects(t, b); got["hot topic"] != 0 {
		t.Errorf("destination still holds the deselected doc: %v", got)
	}
	stub := rawNote(t, b, n.OID.UNID)
	if stub == nil || !stub.IsSelStub() || !stub.IsStub() {
		t.Fatalf("destination note = %+v, want a selection stub", stub)
	}
	if stub.OID.Seq != 2 {
		t.Errorf("stub seq = %d, want 2 (the withheld version)", stub.OID.Seq)
	}

	// The stub must not delete the source copy on the next exchange, and the
	// exchange must be quiescent.
	st = sync(t, a, b, opts)
	if total := st.Pull.Total() + st.Push.Total(); total != 0 {
		t.Errorf("stub bounced back as a change: %v", st)
	}
	if got := docSubjects(t, a); got["hot topic"] != 1 {
		t.Errorf("source lost the live doc to its own selection stub: %v", got)
	}
}

// A document that re-enters the selection resurrects at the destination:
// selection stubs carry no deletion authority against a newer live version.
func TestSelectionReentryResurrects(t *testing.T) {
	a, b := pairedDBs(t)
	opts := Options{Formula: "SELECT Priority > 5"}
	n := prioDoc(t, a, "flapping", 9)
	sync(t, a, b, opts)

	sa := a.Session("user")
	na, _ := sa.Get(n.OID.UNID)
	na.SetNumber("Priority", 1)
	sa.Update(na)
	sync(t, a, b, opts) // b now holds a selection stub at seq 2

	na, _ = sa.Get(n.OID.UNID)
	na.SetNumber("Priority", 8)
	sa.Update(na)
	st := sync(t, a, b, opts)
	if st.Push.Added != 1 {
		t.Errorf("push stats = %v, want one resurrection", st)
	}
	nb := rawNote(t, b, n.OID.UNID)
	if nb == nil || nb.IsStub() || nb.Number("Priority") != 8 || nb.OID.Seq != 3 {
		t.Fatalf("destination note = %+v, want live seq-3 version", nb)
	}
}

// Widening the selection re-advertises the exact withheld version (same
// OID): the destination's selection stub must be replaced by the content,
// not skipped as "already have this version".
func TestSelectionWideningRefetchesContent(t *testing.T) {
	a, b := pairedDBs(t)
	n := prioDoc(t, a, "backfill", 1)
	sync(t, a, b, Options{Formula: "SELECT Priority > 5", PeerName: "narrow"})
	if stub := rawNote(t, b, n.OID.UNID); stub == nil || !stub.IsSelStub() {
		t.Fatalf("destination note = %+v, want a selection stub", stub)
	}

	// Same databases, wider link. Distinct PeerName: a changed selection
	// resets the cursors (the mesh keys history by formula hash for exactly
	// this reason).
	st := sync(t, a, b, Options{PeerName: "wide"})
	if st.Push.Added != 1 {
		t.Errorf("push stats = %v, want one backfill", st)
	}
	nb := rawNote(t, b, n.OID.UNID)
	if nb == nil || nb.IsStub() || nb.Text("Subject") != "backfill" {
		t.Fatalf("destination note = %+v, want live content", nb)
	}
	if nb.OID != n.OID {
		t.Errorf("backfill changed the version: %v != %v", nb.OID, n.OID)
	}
}

// Selective and full replicas converge to identical (UNID, Seq, SeqTime)
// sets: documents outside the selection exist at the selective replica as
// selection stubs with the withheld version's OID.
func TestSelectionStubsConvergeUNIDSets(t *testing.T) {
	a, b := pairedDBs(t)
	prioDoc(t, a, "kept", 9)
	prioDoc(t, a, "filtered", 1)
	sync(t, a, b, Options{Formula: "SELECT Priority > 5"})
	gotA, gotB := unidSet(t, a), unidSet(t, b)
	if len(gotA) != 2 || len(gotB) != 2 {
		t.Fatalf("UNID sets: a=%d b=%d, want 2 each", len(gotA), len(gotB))
	}
	for oid := range gotA {
		if !gotB[oid] {
			t.Errorf("OID %v missing at b", oid)
		}
	}
	if got := docSubjects(t, b); got["filtered"] != 0 || got["kept"] != 1 {
		t.Errorf("live docs at b: %v", got)
	}
}

// ApplyNote-level guarantee: a stale selection stub never deletes a newer
// live version, while a true deletion stub does ("deletions win").
func TestSelectionStubHasNoDeletionAuthority(t *testing.T) {
	a, _ := pairedDBs(t)
	n := createDoc(t, a, "durable")
	live, _ := a.RawGet(n.OID.UNID)

	stale := SelectionStub(live)
	stale.OID.Seq = live.OID.Seq // equal version: the shadowed one
	if st, err := ApplyNote(a, stale, ApplyOptions{}); err != nil || st.Skipped != 1 {
		t.Errorf("equal-version selstub: st=%v err=%v, want skip", st, err)
	}
	stale.OID.Seq = live.OID.Seq - 1 // pretend an older withheld version
	stale.OID.SeqTime--
	if st, err := ApplyNote(a, stale, ApplyOptions{}); err != nil || st.Skipped != 1 {
		t.Errorf("stale selstub: st=%v err=%v, want skip", st, err)
	}
	if cur := rawNote(t, a, n.OID.UNID); cur == nil || cur.IsStub() {
		t.Fatalf("live version was deleted by a selection stub: %+v", cur)
	}

	// A true deletion stub — even one losing the OID comparison — still
	// wins: deletions beat sequence numbers.
	del := live.Clone()
	del.Items = nil
	del.Flags |= nsf.FlagDeleted
	del.OID.SeqTime--
	if st, err := ApplyNote(a, del, ApplyOptions{}); err != nil || st.Deleted != 1 {
		t.Errorf("true stub: st=%v err=%v, want deletion", st, err)
	}
}

// Direction combinations under a selection formula: stubs (true deletions)
// always pass the filter in both directions, and each direction moves only
// its own phase.
func TestDirectionCombosWithFormula(t *testing.T) {
	formula := "SELECT Priority > 5"

	t.Run("PullOnly", func(t *testing.T) {
		a, b := pairedDBs(t)
		prioDoc(t, b, "b hot", 9)
		prioDoc(t, b, "b cold", 1)
		prioDoc(t, a, "a hot", 9)
		st := sync(t, a, b, Options{Formula: formula, PullOnly: true})
		if st.Push.Total() != 0 || st.Pull.Added != 1 || st.Pull.Deleted != 1 {
			t.Errorf("stats = %v, want pull-only with one live + one selstub", st)
		}
		if got := docSubjects(t, a); got["b hot"] != 1 || got["b cold"] != 0 {
			t.Errorf("a docs = %v", got)
		}
		if got := docSubjects(t, b); got["a hot"] != 0 {
			t.Errorf("push leaked in pull-only mode: %v", got)
		}
	})

	t.Run("PushOnly", func(t *testing.T) {
		a, b := pairedDBs(t)
		prioDoc(t, a, "a hot", 9)
		prioDoc(t, a, "a cold", 1)
		prioDoc(t, b, "b hot", 9)
		st := sync(t, a, b, Options{Formula: formula, PushOnly: true})
		if st.Pull.Total() != 0 || st.Push.Added != 1 || st.Push.Deleted != 1 {
			t.Errorf("stats = %v, want push-only with one live + one selstub", st)
		}
		if got := docSubjects(t, b); got["a hot"] != 1 || got["a cold"] != 0 {
			t.Errorf("b docs = %v", got)
		}
		if got := docSubjects(t, a); got["b hot"] != 0 {
			t.Errorf("pull leaked in push-only mode: %v", got)
		}
	})

	t.Run("FullWithDeletions", func(t *testing.T) {
		a, b := pairedDBs(t)
		hot := prioDoc(t, a, "doomed hot", 9)
		cold := prioDoc(t, a, "doomed cold", 1)
		sync(t, a, b, Options{Formula: formula})
		// Delete both at a. The hot doc's stub and the cold doc's stub must
		// both land at b — deletion stubs bypass the selection entirely.
		if err := a.Session("user").Delete(hot.OID.UNID); err != nil {
			t.Fatal(err)
		}
		if err := a.Session("user").Delete(cold.OID.UNID); err != nil {
			t.Fatal(err)
		}
		st := sync(t, a, b, Options{Formula: formula, Full: true})
		if st.Push.Deleted == 0 {
			t.Errorf("stats = %v, want deletions pushed", st)
		}
		for _, u := range []nsf.UNID{hot.OID.UNID, cold.OID.UNID} {
			nb := rawNote(t, b, u)
			if nb == nil || !nb.IsStub() {
				t.Errorf("note %v at b = %+v, want deletion stub", u, nb)
			}
			if nb != nil && nb.IsSelStub() && nb.OID.UNID == hot.OID.UNID {
				t.Errorf("true deletion downgraded to selection stub: %+v", nb)
			}
		}
	})
}

// A bad selection formula is a typed configuration error, surfaced before
// any wire work — by Prepare at construction time and by Replicate/the
// source-side summary scan otherwise.
func TestBadFormulaTypedError(t *testing.T) {
	a, b := pairedDBs(t)
	bad := Options{Formula: "SELECT ((("}

	var fe *FormulaError
	if err := bad.Prepare(); !errors.As(err, &fe) {
		t.Errorf("Prepare error = %v, want *FormulaError", err)
	} else if fe.Source != bad.Formula {
		t.Errorf("FormulaError.Source = %q", fe.Source)
	}

	fe = nil
	if _, err := Replicate(a, &LocalPeer{DB: b}, bad); !errors.As(err, &fe) {
		t.Errorf("Replicate error = %v, want *FormulaError", err)
	}

	fe = nil
	if _, _, err := (&LocalPeer{DB: b}).Summaries(store.Cursor{}, bad.Formula); !errors.As(err, &fe) {
		t.Errorf("Summaries error = %v, want *FormulaError", err)
	}

	good := Options{Formula: "SELECT Priority > 5"}
	if err := good.Prepare(); err != nil {
		t.Fatalf("Prepare(good): %v", err)
	}
	if f, err := good.selection(); err != nil || f == nil {
		t.Errorf("selection after Prepare: f=%v err=%v", f, err)
	}
}

// CompileSelection memoizes: two compiles of the same source share the
// compiled formula.
func TestCompileSelectionMemoizes(t *testing.T) {
	f1, err := CompileSelection("SELECT Priority > 5")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := CompileSelection("SELECT Priority > 5")
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("same source compiled twice")
	}
	if f, err := CompileSelection(""); f != nil || err != nil {
		t.Errorf("empty source: f=%v err=%v, want nil,nil", f, err)
	}
}
