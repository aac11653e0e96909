package repl

import (
	"fmt"
	"runtime"
	gosync "sync"
	"testing"

	"repro/internal/store"
)

// TestSaveHistoryConcurrentSeq is the regression test for the unlocked
// history read-modify-write: overlapping sessions against one peer (the
// scheduler plus a change trigger, say) could both read the history note at
// Seq=N and both stamp N+1, forking its version chain. Serialized, N
// concurrent saves advance Seq by exactly N.
func TestSaveHistoryConcurrentSeq(t *testing.T) {
	// Widen the scheduler so preemption can land inside the history
	// read-modify-write; at GOMAXPROCS=1 the pre-fix race almost never
	// fires.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a, _ := pairedDBs(t)
	const (
		savers = 8
		rounds = 10
	)
	var wg gosync.WaitGroup
	for s := 0; s < savers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h := history{
					LastPull: store.Cursor{USN: uint64(s*rounds + i)},
					LastPush: store.Cursor{USN: uint64(s*rounds + i)},
				}
				if err := saveHistory(a, "peer", h); err != nil {
					t.Errorf("saveHistory: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	n, err := a.RawGet(historyUNID("peer"))
	if err != nil {
		t.Fatalf("RawGet history: %v", err)
	}
	// The first save creates the note at Seq=1 and advances it to 2; each
	// further save adds one. N saves total land on Seq = N+1.
	if want := uint32(savers*rounds + 1); n.OID.Seq != want {
		t.Errorf("history Seq = %d after %d concurrent saves, want %d — duplicate sequence numbers were stamped",
			n.OID.Seq, savers*rounds, want)
	}
	if problems := a.Verify(); len(problems) > 0 {
		t.Fatalf("Verify: %v", problems)
	}
	// Distinct peers must not interfere (they may share a lock stripe, which
	// only over-serializes).
	if err := saveHistory(a, fmt.Sprintf("other-%d", 1), history{}); err != nil {
		t.Fatalf("saveHistory other peer: %v", err)
	}
	if n, err := a.RawGet(historyUNID("other-1")); err != nil || n.OID.Seq != 2 {
		t.Fatalf("other peer history: %v, Seq=%d, want 2", err, n.OID.Seq)
	}
}
