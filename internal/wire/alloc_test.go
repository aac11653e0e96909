package wire

import (
	"fmt"
	"net"
	"reflect"
	"strings"
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

// noteSink keeps decoded notes alive, so a decode cannot be optimised into
// stack allocations the client's Get does not get.
var noteSink *nsf.Note

// TestNoteReplyDecodeAllocs pins the decode of a Get reply, as RemoteDB.Get
// runs it, at no more than 6 allocations whatever the note's item and text
// entry counts: one string of the blob, the note, its items and one array
// per kind of value it holds (text, numbers and times here). The decoded
// note equals DecodeNote's.
func TestNoteReplyDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	allocs := map[int]float64{}
	for _, items := range []int{6, 200} {
		n := nsf.NewNote(nsf.ClassDocument)
		for i := 0; len(n.Items) < items; i++ {
			switch i % 3 {
			case 0:
				n.SetText(fmt.Sprintf("T%d", i), strings.Split(strings.Repeat("entry,", i%7+1), ",")...)
			case 1:
				n.SetNumber(fmt.Sprintf("N%d", i), float64(i), 1)
			default:
				n.SetTime(fmt.Sprintf("D%d", i), nsf.Timestamp(i))
			}
		}
		body := NewResp(OpGetNote, StatusOK).Note(n).Bytes()[2:]
		decode := func() {
			d := Dec{buf: body}
			got := new(nsf.Note)
			if err := d.ownedNote(got); err != nil {
				t.Fatal(err)
			}
			noteSink = got
		}
		decode()
		if want, _ := nsf.DecodeNote(nsf.EncodeNote(n)); !reflect.DeepEqual(noteSink, want) {
			t.Fatalf("%d items: reply decodes to %+v, want %+v", items, noteSink, want)
		}
		allocs[items] = testing.AllocsPerRun(100, decode)
	}
	t.Logf("allocations per reply decode: %.1f for 6 items, %.1f for 200", allocs[6], allocs[200])
	if allocs[200] != allocs[6] || allocs[200] > 6 {
		t.Errorf("a reply of 6 items decoded in %.1f allocations and one of 200 in %.1f, want the same and at most 6", allocs[6], allocs[200])
	}
}
