package server

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/mesh"
	"repro/internal/nsf"
	"repro/internal/router"
	"repro/internal/store"
	"repro/internal/view"
	"repro/internal/wire"
)

// FuzzDecodeScanCursor throws arbitrary cursors at the scan handler's
// cursor parser: a cursor is opaque to the client, so whatever comes back
// is untrusted. It must never panic, and a cursor it accepts begins with
// the cursor this server would mint for the NoteID it yields.
func FuzzDecodeScanCursor(f *testing.F) {
	f.Add(encodeScanCursor("hub", 42))
	f.Add(encodeScanCursor("other", 7))
	f.Add([]byte{})
	f.Add([]byte{scanCursorVersion})
	// A name length of 2^64-1, which wraps a length check that adds 4.
	f.Add(append(binary.AppendUvarint([]byte{scanCursorVersion}, ^uint64(0)), 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, cursor []byte) {
		id, err := decodeScanCursor(cursor, "hub")
		if err != nil || len(cursor) == 0 {
			return
		}
		if mint := encodeScanCursor("hub", id); !bytes.HasPrefix(cursor, mint) {
			t.Fatalf("cursor %x accepted as NoteID %d, which mints %x", cursor, id, mint)
		}
	})
}

// fuzzServer is a server, never started, holding apps/db.nsf with a
// categorized view, a full-text index and one document, which ada may
// edit. The mesh stays disabled, so the mesh ops decode their requests and
// answer that it is: a fuzzed link would start a scheduler of its own.
func fuzzServer(tb testing.TB) (*Server, nsf.UNID) {
	tb.Helper()
	d := dir.New()
	d.AddUser(dir.User{Name: "ada", Secret: "ada-pw"})
	s, err := New(Options{Name: "hub", DataDir: filepath.Join(tb.TempDir(), "hub"), Directory: d})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	db, err := s.OpenDB("apps/db.nsf", core.Options{Title: "db"})
	if err != nil {
		tb.Fatal(err)
	}
	db.ACL().Set("ada", acl.Editor)
	def, err := view.NewDefinition("by cat", "SELECT @All",
		view.Column{Title: "Category", ItemName: "Category", Categorized: true},
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.AddView(nil, def); err != nil {
		tb.Fatal(err)
	}
	if err := db.EnableFullText(); err != nil {
		tb.Fatal(err)
	}
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Category", "seeds")
	n.SetText("Subject", "seed")
	if err := db.Session("ada").Create(n); err != nil {
		tb.Fatal(err)
	}
	return s, n.OID.UNID
}

// serveOpSeeds is one valid request per op, each encoded as a client
// encodes it: the op byte, then the body, addressing handle 1 where the op
// takes one.
func serveOpSeeds(unid nsf.UNID) [][]byte {
	note := nsf.NewNote(nsf.ClassDocument)
	note.SetText("Subject", "fuzz")
	mail := nsf.NewNote(nsf.ClassDocument)
	mail.SetText(router.ItemSendTo, "ada")
	mail.SetText(router.ItemSubject, "fuzz")
	req := func(op wire.Op) *wire.Enc { return wire.NewEnc(op) }
	onDB := func(op wire.Op) *wire.Enc { return wire.NewEnc(op).U32(1) }
	link := mesh.Link{Name: "l1", Peer: "spoke", Glob: "apps/*.nsf", Direction: mesh.Pull}
	var seeds [][]byte
	for _, e := range []*wire.Enc{
		req(wire.OpHello).U32(wire.ProtocolVersion).Str("ada").Str("ada-pw"),
		req(wire.OpOpenDB).Str("apps/db.nsf"),
		onDB(wire.OpGetNote).UNID(unid),
		onDB(wire.OpCreateNote).Note(note),
		onDB(wire.OpUpdateNote).Note(note),
		onDB(wire.OpDeleteNote).UNID(unid),
		onDB(wire.OpViewRows).Str("by cat").U32(0).U32(10),
		onDB(wire.OpSearch).Str("seed").U32(0).U32(10).Columns([]string{"Subject"}),
		onDB(wire.OpReplicaID),
		onDB(wire.OpSummaries).Cursor(store.Cursor{}).Str(""),
		onDB(wire.OpFetch).U32(1).UNID(unid),
		onDB(wire.OpApply).U32(1).Note(note),
		req(wire.OpMailDeposit).Note(mail),
		onDB(wire.OpDBInfo),
		req(wire.OpAvailability),
		onDB(wire.OpPutBatch).Str("key").U64(1).U32(1).Note(note),
		req(wire.OpResolve).Str("apps/db.nsf"),
		req(wire.OpMeshStatus),
		req(wire.OpMeshAdd).MeshLink(link),
		req(wire.OpMeshRemove).Str("l1"),
		onDB(wire.OpScan).Str("SELECT @All").U32(10).Columns([]string{"Subject"}).Blob(nil),
	} {
		seeds = append(seeds, append([]byte(nil), e.Bytes()...))
	}
	return seeds
}

// serveOp dispatches one request on a fresh authenticated connection with
// apps/db.nsf open as handle 1, through the panic recovery a connection
// runs every request under.
func serveOp(t *testing.T, s *Server, req []byte) *wire.Enc {
	c := &connState{s: s, user: "ada", handles: map[uint32]*handleState{}, nextH: 1}
	if resp := c.safeDispatch(wire.OpOpenDB, 0, wire.NewEnc(wire.OpOpenDB).Str("apps/db.nsf").Bytes()[1:]); resp == nil || resp.Bytes()[1] != wire.StatusOK {
		t.Fatal("opening apps/db.nsf failed")
	}
	return c.safeDispatch(wire.Op(req[0]), 0, req[1:])
}

// TestServeOpSeedsReachEveryOp: FuzzServeOp's seeds hold a request for
// every op the protocol defines, and each is served: answered OK, but for
// the mesh ops, which answer that the mesh is disabled.
func TestServeOpSeedsReachEveryOp(t *testing.T) {
	s, unid := fuzzServer(t)
	seeded := map[wire.Op]bool{}
	for _, req := range serveOpSeeds(unid) {
		op := wire.Op(req[0])
		seeded[op] = true
		resp := serveOp(t, s, req)
		if resp == nil {
			t.Fatalf("%v seed: the handler panicked", op)
		}
		mesh := op == wire.OpMeshStatus || op == wire.OpMeshAdd || op == wire.OpMeshRemove
		if b := resp.Bytes(); b[0] != byte(op)|0x80 || (b[1] == wire.StatusOK) == mesh {
			t.Errorf("%v seed answered %q", op, b)
		}
	}
	for _, info := range wire.Ops() {
		if !seeded[info.Op] {
			t.Errorf("no seed request for %v", info.Op)
		}
	}
}

// FuzzServeOp throws arbitrary requests at the server's dispatch, on an
// authenticated connection with a database open: every request body is
// untrusted client bytes. No handler may panic (a recovered panic closes
// the connection and counts in Health), and every request is answered with
// its op's response byte and a status the protocol defines.
func FuzzServeOp(f *testing.F) {
	s, unid := fuzzServer(f)
	for _, seed := range serveOpSeeds(unid) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		if len(req) == 0 {
			return
		}
		panics := s.Health().Panics
		resp := serveOp(t, s, req)
		if got := s.Health().Panics; resp == nil || got != panics {
			t.Fatalf("request %x: the handler panicked", req)
		}
		b := resp.Bytes()
		if len(b) < 2 || b[0] != req[0]|0x80 || b[1] > wire.StatusDeadlineExceeded {
			t.Fatalf("request %x answered with %x", req, b)
		}
		resp.Release()
	})
}
