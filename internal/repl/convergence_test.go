package repl

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/nsf"
)

// TestRandomizedConvergence drives N replicas through random local writes
// interleaved with random pairwise replications, then finishes with enough
// full passes for every change to reach everywhere, and asserts that all
// replicas converge to identical states. This is the system-level
// correctness property of epidemic replication: arbitrary interleavings of
// edits, deletes, and syncs must settle into one agreed state.
func TestRandomizedConvergence(t *testing.T) {
	for _, merge := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			name := fmt.Sprintf("merge=%v/seed=%d", merge, seed)
			t.Run(name, func(t *testing.T) {
				runConvergence(t, seed, merge)
			})
		}
	}
}

func runConvergence(t *testing.T, seed int64, merge bool) {
	const (
		nReplicas = 4
		nOps      = 250
	)
	rng := rand.New(rand.NewSource(seed))
	replica := nsf.NewReplicaID()
	dbs := make([]*core.Database, nReplicas)
	for i := range dbs {
		db, err := core.Open(filepath.Join(t.TempDir(), fmt.Sprintf("r%d.nsf", i)),
			core.Options{Title: fmt.Sprintf("r%d", i), ReplicaID: replica})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		dbs[i] = db
	}
	opts := func() Options {
		return Options{Apply: ApplyOptions{FieldMerge: merge}}
	}
	// Universe of documents each replica may act on (UNIDs shared so
	// replicas contend on the same logical documents).
	var universe []nsf.UNID

	for op := 0; op < nOps; op++ {
		r := rng.Intn(nReplicas)
		db := dbs[r]
		sess := db.Session(fmt.Sprintf("user%d", r))
		switch action := rng.Intn(10); {
		case action < 4: // create
			n := nsf.NewNote(nsf.ClassDocument)
			n.SetText("Subject", fmt.Sprintf("doc-%d-by-r%d", op, r))
			n.SetText("Body", fmt.Sprintf("body %d", rng.Intn(1000)))
			if err := sess.Create(n); err != nil {
				t.Fatal(err)
			}
			universe = append(universe, n.OID.UNID)
		case action < 7: // update, if this replica holds the doc
			if len(universe) == 0 {
				continue
			}
			u := universe[rng.Intn(len(universe))]
			n, err := sess.Get(u)
			if err != nil {
				continue // not here yet, or deleted
			}
			// Touch one of three items so merge paths get exercised.
			switch rng.Intn(3) {
			case 0:
				n.SetText("Body", fmt.Sprintf("edit %d by r%d", op, r))
			case 1:
				n.SetNumber("Priority", float64(rng.Intn(10)))
			default:
				n.SetText("Owner", fmt.Sprintf("user%d", r))
			}
			if err := sess.Update(n); err != nil {
				t.Fatal(err)
			}
		case action < 8: // delete
			if len(universe) == 0 {
				continue
			}
			u := universe[rng.Intn(len(universe))]
			if err := sess.Delete(u); err != nil {
				continue
			}
		default: // replicate with a random peer
			p := rng.Intn(nReplicas)
			if p == r {
				continue
			}
			o := opts()
			o.PeerName = fmt.Sprintf("conv-peer-%d", p)
			if _, err := Replicate(db, &LocalPeer{DB: dbs[p], Opts: o.Apply}, o); err != nil {
				t.Fatalf("mid-run replicate r%d<->r%d: %v", r, p, err)
			}
		}
	}

	// Settle: enough full ring passes for everything to propagate. Each
	// pass moves information at least one hop; conflicts materialize
	// deterministic conflict docs which themselves need to propagate.
	for pass := 0; pass < nReplicas+2; pass++ {
		for i := 0; i < nReplicas; i++ {
			j := (i + 1) % nReplicas
			o := opts()
			o.PeerName = fmt.Sprintf("settle-%d", j)
			if _, err := Replicate(dbs[i], &LocalPeer{DB: dbs[j], Opts: o.Apply}, o); err != nil {
				t.Fatalf("settle replicate: %v", err)
			}
		}
	}
	for i := 1; i < nReplicas; i++ {
		if err := check.Identical(dbs[0], dbs[i]); err != nil {
			t.Error(err)
		}
		if t.Failed() {
			t.Fatalf("replica %d diverged (seed %d, merge %v)", i, seed, merge)
		}
	}
	// Sanity: a settled system stays settled — one more pass moves nothing.
	for i := 0; i < nReplicas; i++ {
		j := (i + 1) % nReplicas
		o := opts()
		o.PeerName = fmt.Sprintf("settle-%d", j)
		st, err := Replicate(dbs[i], &LocalPeer{DB: dbs[j], Opts: o.Apply}, o)
		if err != nil {
			t.Fatal(err)
		}
		if st.Pull.Total()+st.Push.Total() != 0 {
			t.Errorf("post-convergence sync still changed state: %v", st)
		}
	}
}
