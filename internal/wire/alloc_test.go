package wire

import (
	"net"
	"testing"

	"repro/internal/nsf"
)

// TestEncPoolingSteadyStateAllocFree asserts the encoder pool works: in
// steady state, building a response payload (get → append fields → Bytes →
// Release) performs zero heap allocations. This is the regression guard for
// the per-message Enc and buffer churn the pool exists to remove.
func TestEncPoolingSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	warm := func() {
		e := NewResp(OpGetNote, StatusOK).U32(7).Str("subject").U64(99).
			Blob([]byte("0123456789abcdef"))
		_ = e.Bytes()
		e.Release()
	}
	for i := 0; i < 16; i++ {
		warm() // grow pooled buffers past the working size
	}
	if avg := testing.AllocsPerRun(200, warm); avg >= 1 {
		t.Errorf("pooled response encode allocates %.1f times per op, want 0", avg)
	}
}

// TestEncNotePooledScratch asserts the note-serialization scratch buffer is
// reused: appending a note to a pooled encoder settles to zero allocations
// per message.
func TestEncNotePooledScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "steady state")
	n.SetNumber("Priority", 2)
	run := func() {
		e := NewResp(OpGetNote, StatusOK).Note(n)
		_ = e.Bytes()
		e.Release()
	}
	for i := 0; i < 16; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg >= 1 {
		t.Errorf("pooled note encode allocates %.1f times per op, want 0", avg)
	}
}

// BenchmarkEncResponse measures pooled response encoding (allocs/op should
// report 0 in steady state).
func BenchmarkEncResponse(b *testing.B) {
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewResp(OpGetNote, StatusOK).Note(n)
		_ = e.Bytes()
		e.Release()
	}
}

// TestFailoverGetAllocs pins the whole client path of a point read through
// a failover session — codec, attempt loop, routing policy, frame I/O and
// note decode, plus the scripted mate's own frame read — at the 12 the
// two-loop client measured in this rig. AllocsPerRun counts process-wide,
// which is why the mate's allocation is in the figure.
func TestFailoverGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "steady state")
	resp := NewResp(OpGetNote, StatusOK).Note(n).Bytes()
	addr := scriptServer(t, func(conn net.Conn, _ int, payload []byte) bool {
		switch Op(payload[0]) {
		case OpOpenDB:
			return openOK(conn, payload)
		case OpGetNote:
			return WriteFrame(conn, resp) == nil
		}
		return WriteFrame(conn, NewResp(Op(payload[0]), StatusError).Str("no").Bytes()) == nil
	})
	fc, err := DialFailover([]string{addr}, "u", "s", failoverTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	get := func() {
		if _, err := db.Get(n.OID.UNID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		get()
	}
	if avg := testing.AllocsPerRun(200, get); avg > 12 {
		t.Errorf("FailoverDB.Get allocates %.1f times per call, want at most 12", avg)
	}
}
