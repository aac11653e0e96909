package server

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/wire"
)

func batchDoc(i int) *nsf.Note {
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", fmt.Sprintf("batch-doc-%d", i))
	n.SetNumber("Seq", float64(i))
	return n
}

// TestPutBatchEndToEnd drives the pipelined batch put through the full
// client/server stack: bulk create, then create-or-update on a second
// batch reusing some UNIDs.
func TestPutBatchEndToEnd(t *testing.T) {
	net := newTestNet(t)
	db, err := net.hub.OpenDB("apps/bulk.nsf", core.Options{Title: "bulk"})
	if err != nil {
		t.Fatal(err)
	}
	db.ACL().Set("ada", acl.Editor)

	c, err := wire.Dial(net.hubAddr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB("apps/bulk.nsf")
	if err != nil {
		t.Fatal(err)
	}

	notes := make([]*nsf.Note, 50)
	for i := range notes {
		notes[i] = batchDoc(i)
	}
	stored, err := rdb.PutBatch(notes)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if stored != 50 {
		t.Fatalf("stored %d, want 50", stored)
	}
	if got := db.Stats().Notes; got != 50 {
		t.Fatalf("server has %d notes, want 50", got)
	}

	// Second batch: 10 updates (reusing UNIDs PutBatch assigned) plus 10
	// fresh creates, in one pipelined round trip.
	mixed := make([]*nsf.Note, 0, 20)
	for i := 0; i < 10; i++ {
		upd := batchDoc(i)
		upd.OID = notes[i].OID
		upd.SetText("Subject", fmt.Sprintf("updated-%d", i))
		mixed = append(mixed, upd)
	}
	for i := 50; i < 60; i++ {
		mixed = append(mixed, batchDoc(i))
	}
	stored, err = rdb.PutBatch(mixed)
	if err != nil {
		t.Fatalf("second PutBatch: %v", err)
	}
	if stored != 20 {
		t.Fatalf("stored %d, want 20", stored)
	}
	if got := db.Stats().Notes; got != 60 {
		t.Fatalf("server has %d notes, want 60 (50 + 10 creates)", got)
	}
	sess := db.Session("ada")
	n, err := sess.Get(notes[0].OID.UNID)
	if err != nil {
		t.Fatal(err)
	}
	if n.Text("Subject") != "updated-0" {
		t.Fatalf("update did not apply: Subject = %q", n.Text("Subject"))
	}
	if n.OID.Seq < 2 {
		t.Fatalf("update did not advance version: Seq = %d", n.OID.Seq)
	}

	// Empty batch is a no-op, not a protocol error.
	if stored, err := rdb.PutBatch(nil); err != nil || stored != 0 {
		t.Fatalf("empty batch: stored %d, err %v", stored, err)
	}
}

// TestPutBatchPartialFailure sends a batch whose middle document is
// rejected and requires the applied prefix to be stored and reported.
func TestPutBatchPartialFailure(t *testing.T) {
	net := newTestNet(t)
	db, err := net.hub.OpenDB("apps/partial.nsf", core.Options{Title: "partial"})
	if err != nil {
		t.Fatal(err)
	}
	db.ACL().Set("ada", acl.Editor)
	c, err := wire.Dial(net.hubAddr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB("apps/partial.nsf")
	if err != nil {
		t.Fatal(err)
	}
	notes := []*nsf.Note{batchDoc(0), batchDoc(1), nsf.NewNote(nsf.ClassView), batchDoc(3)}
	stored, err := rdb.PutBatch(notes)
	if err == nil {
		t.Fatal("batch with a design note succeeded; want a per-document rejection")
	}
	var se *wire.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a ServerError", err)
	}
	if stored != 2 {
		t.Fatalf("stored %d, want the 2 before the bad document", stored)
	}
	if got := db.Stats().Notes; got != 2 {
		t.Fatalf("server has %d notes, want 2", got)
	}
}

// rawBatchConn is a hand-driven wire connection for replay tests: it lets
// the test re-send a batch with the SAME session key and base sequence,
// which the real client only does during retry-after-reconnect.
type rawBatchConn struct {
	t      *testing.T
	conn   net.Conn
	handle uint32
}

func dialRawBatch(t *testing.T, addr, user, secret, dbPath string) *rawBatchConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := &rawBatchConn{t: t, conn: conn}
	d := r.roundTrip(wire.NewEnc(wire.OpHello).U32(wire.ProtocolVersion).Str(user).Str(secret), wire.OpHello)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	d = r.roundTrip(wire.NewEnc(wire.OpOpenDB).Str(dbPath), wire.OpOpenDB)
	r.handle = d.U32()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rawBatchConn) roundTrip(req *wire.Enc, op wire.Op) *wire.Dec {
	r.t.Helper()
	if err := wire.WriteFrame(r.conn, req.Bytes()); err != nil {
		r.t.Fatal(err)
	}
	payload, err := wire.ReadFrame(r.conn)
	if err != nil {
		r.t.Fatal(err)
	}
	if len(payload) < 2 || payload[0] != byte(op)|0x80 {
		r.t.Fatalf("bad response envelope % x", payload[:2])
	}
	if payload[1] != wire.StatusOK {
		r.t.Fatalf("status %d: %s", payload[1], wire.NewDec(payload[2:]).Str())
	}
	return wire.NewDec(payload[2:])
}

// sendBatch sends notes as one OpPutBatch with an explicit session key and
// base sequence and returns (cursor, applied, skipped, ok).
func (r *rawBatchConn) sendBatch(key string, base uint64, notes []*nsf.Note) (uint64, int, int, byte) {
	r.t.Helper()
	req := wire.NewEnc(wire.OpPutBatch).U32(r.handle).Str(key).U64(base).U32(uint32(len(notes)))
	for _, n := range notes {
		req.Note(n)
	}
	d := r.roundTrip(req, wire.OpPutBatch)
	cursor := d.U64()
	applied := int(d.U32())
	skipped := int(d.U32())
	ok := d.U8()
	if ok == 0 {
		r.t.Logf("batch error: %s", d.Str())
	}
	if err := d.Err(); err != nil {
		r.t.Fatal(err)
	}
	return cursor, applied, skipped, ok
}

// TestPutBatchExactlyOnceOnResend replays batches the way a reconnecting
// client would — same session key, same base sequence — and requires the
// server's durable cursor to skip exactly the already-applied prefix, so
// no document is ever stored twice.
func TestPutBatchExactlyOnceOnResend(t *testing.T) {
	net := newTestNet(t)
	db, err := net.hub.OpenDB("apps/replay.nsf", core.Options{Title: "replay"})
	if err != nil {
		t.Fatal(err)
	}
	db.ACL().Set("ada", acl.Editor)
	r := dialRawBatch(t, net.hubAddr, "ada", "ada-pw", "apps/replay.nsf")

	notes := make([]*nsf.Note, 5)
	for i := range notes {
		notes[i] = batchDoc(i)
	}
	cursor, applied, skipped, ok := r.sendBatch("sess-1", 1, notes)
	if cursor != 5 || applied != 5 || skipped != 0 || ok != 1 {
		t.Fatalf("first send: cursor=%d applied=%d skipped=%d ok=%d", cursor, applied, skipped, ok)
	}

	// Full replay (response was lost, client re-sent everything).
	cursor, applied, skipped, ok = r.sendBatch("sess-1", 1, notes)
	if cursor != 5 || applied != 0 || skipped != 5 || ok != 1 {
		t.Fatalf("full replay: cursor=%d applied=%d skipped=%d ok=%d", cursor, applied, skipped, ok)
	}
	if got := db.Stats().Notes; got != 5 {
		t.Fatalf("replay duplicated documents: %d notes, want 5", got)
	}

	// Overlapping replay: seqs 4-7 where 4 and 5 already applied. The
	// fresh tail (6, 7) must apply; the overlap must not.
	overlap := []*nsf.Note{notes[3], notes[4], batchDoc(6), batchDoc(7)}
	cursor, applied, skipped, ok = r.sendBatch("sess-1", 4, overlap)
	if cursor != 7 || applied != 2 || skipped != 2 || ok != 1 {
		t.Fatalf("overlap replay: cursor=%d applied=%d skipped=%d ok=%d", cursor, applied, skipped, ok)
	}
	if got := db.Stats().Notes; got != 7 {
		t.Fatalf("after overlap replay: %d notes, want 7", got)
	}

	// A different session key shares no cursor: same base applies fresh.
	other := []*nsf.Note{batchDoc(100)}
	cursor, applied, skipped, ok = r.sendBatch("sess-2", 1, other)
	if cursor != 1 || applied != 1 || skipped != 0 || ok != 1 {
		t.Fatalf("other session: cursor=%d applied=%d skipped=%d ok=%d", cursor, applied, skipped, ok)
	}

	// The versions stored for replayed documents must not have advanced:
	// exactly-once means the overlap did not re-put them.
	sess := db.Session("ada")
	n, err := sess.Get(notes[3].OID.UNID)
	if err != nil {
		t.Fatal(err)
	}
	if n.OID.Seq != 1 {
		t.Fatalf("replayed document re-applied: Seq = %d, want 1", n.OID.Seq)
	}
}

// TestPutBatchAccessDenied requires reader-level users to be refused with
// nothing stored.
func TestPutBatchAccessDenied(t *testing.T) {
	net := newTestNet(t)
	db, err := net.hub.OpenDB("apps/locked.nsf", core.Options{Title: "locked"})
	if err != nil {
		t.Fatal(err)
	}
	db.ACL().Set("ada", acl.Reader)
	c, err := wire.Dial(net.hubAddr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB("apps/locked.nsf")
	if err != nil {
		t.Fatal(err)
	}
	stored, err := rdb.PutBatch([]*nsf.Note{batchDoc(0)})
	if err == nil {
		t.Fatal("reader-level PutBatch succeeded")
	}
	if stored != 0 {
		t.Fatalf("stored %d, want 0", stored)
	}
	if got := db.Stats().Notes; got != 0 {
		t.Fatalf("server has %d notes, want 0", got)
	}
}
