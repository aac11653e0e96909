package wire

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/store"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{},
		{1},
		bytes.Repeat([]byte("x"), 100000),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %d vs %d bytes", len(got), len(want))
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized write accepted")
	}
	// A hostile header claiming an enormous frame must be rejected before
	// allocation.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hostile)); err == nil {
		t.Error("hostile frame header accepted")
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("hello world"))
	raw := buf.Bytes()[:8] // header + partial body
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream error = %v, want EOF", io.EOF)
	}
}

func TestCodecScalars(t *testing.T) {
	e := NewEnc(OpHello)
	e.U8(7).U32(0xDEADBEEF).U64(1<<62 + 5).Str("héllo").Blob([]byte{1, 2, 3})
	u := nsf.NewUNID()
	e.UNID(u).Raw([]byte{9, 9})
	payload := e.Bytes()
	if Op(payload[0]) != OpHello {
		t.Fatalf("op byte = %#x", payload[0])
	}
	d := NewDec(payload[1:])
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<62+5 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.Str(); got != "héllo" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := d.UNID(); got != u {
		t.Errorf("UNID = %v", got)
	}
	if got := d.Raw(2); !bytes.Equal(got, []byte{9, 9}) {
		t.Errorf("Raw = %v", got)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Errorf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestCodecNoteAndSummary(t *testing.T) {
	n := nsf.NewNote(nsf.ClassDocument)
	n.ID = 12
	n.OID.Seq = 3
	n.OID.SeqTime = 999
	n.SetText("Subject", "wire trip")
	s := repl.SummaryOf(n)
	st := repl.ApplyStats{Added: 1, Updated: 2, Deleted: 3, Conflicts: 4, Merged: 5, Skipped: 6}

	e := NewEnc(OpApply).Note(n).Summary(s).ApplyStats(st)
	d := NewDec(e.Bytes()[1:])
	gotN := d.Note()
	gotS := d.Summary()
	gotSt := d.ApplyStats()
	if d.Err() != nil {
		t.Fatalf("decode: %v", d.Err())
	}
	if gotN.Text("Subject") != "wire trip" || gotN.OID != n.OID || gotN.ID != n.ID {
		t.Errorf("note mismatch: %+v", gotN)
	}
	if gotS != s {
		t.Errorf("summary = %+v, want %+v", gotS, s)
	}
	if gotSt != st {
		t.Errorf("stats = %+v, want %+v", gotSt, st)
	}
}

func TestDecErrorsStickAndPropagate(t *testing.T) {
	d := NewDec([]byte{1})
	_ = d.U32() // too short: sets the error
	if d.Err() == nil {
		t.Fatal("short read did not error")
	}
	// All subsequent reads return zero values without panicking.
	if d.U8() != 0 || d.U64() != 0 || d.Str() != "" || d.Blob() != nil || d.Note() != nil {
		t.Error("reads after error returned data")
	}
}

func TestDecRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		d := NewDec(buf)
		// Exercise every reader; none may panic.
		d.U8()
		d.Str()
		d.Summary()
		d.Note()
		d.ApplyStats()
	}
}

func TestDecBlobRejectsHugeLength(t *testing.T) {
	// A uvarint length far beyond the frame cap must error cleanly.
	e := NewEnc(OpHello)
	e.buf = append(e.buf, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	d := NewDec(e.Bytes()[1:])
	if d.Blob() != nil || d.Err() == nil {
		t.Error("huge blob length accepted")
	}
}

func TestStrHandlesLongStrings(t *testing.T) {
	long := strings.Repeat("a", 1<<16)
	e := NewEnc(OpHello).Str(long)
	d := NewDec(e.Bytes()[1:])
	if got := d.Str(); got != long {
		t.Errorf("long string corrupted: %d bytes", len(got))
	}
}

// TestGoldenFrames pins protocol version 3 byte for byte: for one op of
// every family, the exact request frame the client puts on the wire and a
// hand-assembled response frame it must decode. The expectations are
// spelled out as literal bytes (not built with Enc), so a codec change that
// alters the format fails here even if client and server change together.
// Only exported client API is used, so the same test passes on any peer
// build that speaks version 3. Notes travel as opaque nsf blobs.
func TestGoldenFrames(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	str := func(s string) []byte { return append([]byte{byte(len(s))}, s...) } // uvarint length < 128
	unid := nsf.UNID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	note := &nsf.Note{OID: nsf.OID{UNID: unid, Seq: 2, SeqTime: 77}, Class: nsf.ClassDocument, Created: 70, Modified: 77}
	note.SetText("Subject", "golden")
	noteBlob := nsf.AppendNote(nil, note)
	noteBlob = cat([]byte{byte(len(noteBlob))}, noteBlob)
	handle := []byte{7, 0, 0, 0}

	var viewPage ViewPage
	var searchPage SearchPage
	var scanPage ScanPage
	var avail AvailabilityInfo
	var placed ResolveInfo
	var got *nsf.Note
	var stored int
	var next store.Cursor
	created := note.Clone()
	steps := []struct {
		name      string
		do        func(c *Client, db *RemoteDB) error
		req, resp []byte
	}{
		{"GetNote", func(_ *Client, db *RemoteDB) (err error) { got, err = db.Get(unid); return },
			cat([]byte{0x03}, handle, unid[:]),
			cat([]byte{0x83, 0x00}, noteBlob)},
		{"CreateNote", func(_ *Client, db *RemoteDB) error { return db.Create(created) },
			cat([]byte{0x04}, handle, noteBlob),
			cat([]byte{0x84, 0x00}, noteBlob)},
		{"DeleteNote", func(_ *Client, db *RemoteDB) error { return db.Delete(unid) },
			cat([]byte{0x06}, handle, unid[:]),
			[]byte{0x86, 0x00}},
		{"ViewRows", func(_ *Client, db *RemoteDB) (err error) { viewPage, err = db.ViewPage("By Subject", 5, 10); return },
			cat([]byte{0x07}, handle, str("By Subject"), []byte{5, 0, 0, 0, 10, 0, 0, 0}),
			cat([]byte{0x87, 0x00, 2, 0, 0, 0, 5, 0, 0, 0},
				[]byte{2}, str("cat"), []byte{0, 0, 0, 0}, // category row, indent 0
				[]byte{1, 1, 0, 0, 0}, unid[:], []byte{1, 0, 0, 0}, str("hello"), // document row, indent 1, one column
				[]byte{0, 1, 7, 0, 0, 0})}, // end of rows, more, next 7
		{"Search", func(_ *Client, db *RemoteDB) (err error) {
			searchPage, err = db.SearchPage("q", []string{"Subject"}, 0, 3)
			return
		},
			cat([]byte{0x08}, handle, str("q"), []byte{0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0}, str("Subject")),
			cat([]byte{0x88, 0x00, 1, 0, 0, 0, 0, 0, 0, 0},
				[]byte{1}, unid[:], []byte{0, 0, 0, 0, 0, 0, 0xF8, 0x3F}, []byte{0}, // hit, score 1.5, column absent
				[]byte{0, 0, 1, 0, 0, 0})}, // end of hits, no more, next 1
		{"Scan", func(_ *Client, db *RemoteDB) (err error) {
			scanPage, err = db.ScanPage(ScanOptions{Formula: "SELECT @All", Limit: 2}, []byte{0xAA, 0xBB})
			return
		},
			cat([]byte{0x15}, handle, str("SELECT @All"), []byte{2, 0, 0, 0, 0, 0, 0, 0}, []byte{2, 0xAA, 0xBB}),
			cat([]byte{0x95, 0x00}, []byte{1, 9, 0, 0, 0}, unid[:], []byte{0, 1}, []byte{1, 0xCC})},
		{"Summaries", func(_ *Client, db *RemoteDB) (err error) {
			_, next, err = db.Summaries(store.Cursor{Incarnation: 0x0304, USN: 0x0102}, "")
			return
		},
			cat([]byte{0x0A}, handle, []byte{4, 3, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0}, str("")),
			[]byte{0x8A, 0x00, 4, 3, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"PutBatch", func(_ *Client, db *RemoteDB) (err error) { stored, err = db.PutBatch([]*nsf.Note{note}); return },
			nil, // carries a random session key: checked piecewise below
			[]byte{0x90, 0x00, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}},
		{"Availability", func(c *Client, _ *RemoteDB) (err error) { avail, err = c.Availability(); return },
			[]byte{0x0F},
			[]byte{0x8F, 0x00, 0, 100, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0xDC, 5, 0, 0, 0, 0, 0, 0}},
		{"Resolve", func(c *Client, _ *RemoteDB) (err error) { placed, err = c.Resolve("apps/x.nsf"); return },
			cat([]byte{0x11}, str("apps/x.nsf")),
			cat([]byte{0x91, 0x00, 1, 0, 0, 0}, str("apps/x.nsf"), []byte{3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0}, str("hub"), str("h:1"))},
		{"MeshRemove", func(c *Client, _ *RemoteDB) error { return c.MeshRemove("l1") },
			cat([]byte{0x14}, str("l1")),
			[]byte{0x94, 0x00}},
	}

	// The peer: records every request frame and answers from the script —
	// hello and open first, then one response per step.
	resps := [][]byte{
		{0x81, 0x00},
		cat([]byte{0x82, 0x00}, handle, []byte{1, 1, 1, 1, 1, 1, 1, 1}, str("T")),
	}
	for _, s := range steps {
		resps = append(resps, s.resp)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frames := make(chan []byte, len(resps))
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for _, resp := range resps {
			req, err := ReadFrame(conn)
			if err != nil {
				return
			}
			frames <- req
			if WriteFrame(conn, resp) != nil {
				return
			}
		}
	}()

	c, err := DialOptions(ln.Addr().String(), "ada", "pw", Options{MaxRetries: -1, OpTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if want := cat([]byte{0x01, 3, 0, 0, 0}, str("ada"), str("pw")); !bytes.Equal(<-frames, want) {
		t.Errorf("hello frame differs from %x", want)
	}
	db, err := c.OpenDB("apps/x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	if want := cat([]byte{0x02}, str("apps/x.nsf")); !bytes.Equal(<-frames, want) {
		t.Errorf("open frame differs from %x", want)
	}
	for _, s := range steps {
		if err := s.do(c, db); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		req := <-frames
		if s.req == nil {
			// PutBatch: [op][handle][Str key][base u64 = 1][count u32 = 1][note].
			head, tail := cat([]byte{0x10}, handle), cat([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}, noteBlob)
			keyLen := len(req) - len(head) - len(tail) - 1
			if keyLen <= 0 || !bytes.HasPrefix(req, head) || !bytes.HasSuffix(req, tail) || int(req[len(head)]) != keyLen {
				t.Errorf("PutBatch request %x does not frame a session key between %x and %x", req, head, tail)
			}
			continue
		}
		if !bytes.Equal(req, s.req) {
			t.Errorf("%s request\n got %x\nwant %x", s.name, req, s.req)
		}
	}

	if got == nil || got.OID != note.OID || got.Text("Subject") != "golden" {
		t.Errorf("Get decoded %+v", got)
	}
	if created.OID != note.OID {
		t.Errorf("Create did not adopt the stored note: %+v", created.OID)
	}
	if len(viewPage.Rows) != 2 || !viewPage.Rows[0].IsCategory || viewPage.Rows[0].Category != "cat" ||
		viewPage.Rows[1].UNID != unid || viewPage.Rows[1].Indent != 1 || viewPage.Rows[1].Columns[0] != "hello" ||
		viewPage.Total != 2 || viewPage.Start != 5 || viewPage.Next != 7 || !viewPage.More {
		t.Errorf("ViewPage decoded %+v", viewPage)
	}
	if len(searchPage.Hits) != 1 || searchPage.Hits[0].UNID != unid || searchPage.Hits[0].Score != 1.5 ||
		len(searchPage.Hits[0].Values) != 1 || searchPage.Total != 1 || searchPage.Next != 1 || searchPage.More {
		t.Errorf("SearchPage decoded %+v", searchPage)
	}
	if len(scanPage.Rows) != 1 || scanPage.Rows[0].NoteID != 9 || scanPage.Rows[0].UNID != unid ||
		!scanPage.More || !bytes.Equal(scanPage.Cursor, []byte{0xCC}) {
		t.Errorf("ScanPage decoded %+v", scanPage)
	}
	if stored != 1 {
		t.Errorf("PutBatch stored = %d, want 1", stored)
	}
	if next != (store.Cursor{Incarnation: 0x0304, USN: 9}) {
		t.Errorf("Summaries decoded cursor %+v", next)
	}
	if avail.State != StateOpen || avail.Index != 100 || avail.InFlight != 1 || avail.Queued != 2 || avail.Latency != 1500*time.Microsecond {
		t.Errorf("Availability decoded %+v", avail)
	}
	if placed.Path != "apps/x.nsf" || placed.Generation != 3 || placed.Replicas != 2 ||
		len(placed.Homes) != 1 || placed.Homes[0] != (HomeAddr{Name: "hub", Addr: "h:1"}) {
		t.Errorf("Resolve decoded %+v", placed)
	}
}
