package wire

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/nsf"
)

// writeCounter counts Write calls and keeps what they wrote.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestOneWritePerFrame: a frame leaves in exactly one Write, header and
// payload together, with and without a budget envelope.
func TestOneWritePerFrame(t *testing.T) {
	payload := NewEnc(OpGetNote).U32(1).Str("db.nsf").Bytes()
	for _, budgetMs := range []uint32{0, 250} {
		var w writeCounter
		for i := 0; i < 3; i++ {
			if err := writeFrame(&w, budgetMs, payload); err != nil {
				t.Fatal(err)
			}
		}
		if w.writes != 3 {
			t.Errorf("budget %d: 3 frames took %d writes", budgetMs, w.writes)
		}
		for i := 0; i < 3; i++ {
			frame, err := ReadFrame(&w.Buffer)
			if err != nil {
				t.Fatal(err)
			}
			got, inner, err := SplitBudget(frame)
			if err != nil || got != budgetMs || !bytes.Equal(inner, payload) {
				t.Fatalf("budget %d: frame %d read back (%d, %x, %v)", budgetMs, i, got, inner, err)
			}
		}
	}
}

// TestRedialAfterMidFrameBreak: a connection that breaks in the middle of a
// response frame takes its buffered bytes with it, and the redialed
// connection reads the next response cleanly.
func TestRedialAfterMidFrameBreak(t *testing.T) {
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "after the break")
	resp := NewResp(OpGetNote, StatusOK).Note(n).Bytes()
	var gets atomic.Int32
	addr := scriptServer(t, func(conn net.Conn, _ int, payload []byte) bool {
		switch Op(payload[0]) {
		case OpOpenDB:
			return openOK(conn, payload)
		case OpGetNote:
			if gets.Add(1) == 2 {
				// Half a response, then the connection dies.
				var frame bytes.Buffer
				WriteFrame(&frame, resp)
				conn.Write(frame.Bytes()[:frame.Len()/2])
				return false
			}
			return WriteFrame(conn, resp) == nil
		}
		return WriteFrame(conn, NewResp(Op(payload[0]), StatusError).Str("no").Bytes()) == nil
	})
	c, err := DialOptions(addr, "u", "s", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := db.Get(n.OID.UNID)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if got.Text("Subject") != "after the break" {
			t.Fatalf("get %d read %q", i, got.Text("Subject"))
		}
	}
	if gets.Load() != 5 {
		t.Errorf("server saw %d gets, want 5 (one broken, retried once)", gets.Load())
	}
}
