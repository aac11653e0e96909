package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestEveryOpHasOneHandler ties the server's handler table to wire's op
// table: an op added to one and not the other fails here, before any peer
// meets an "unknown operation". (The handler table is an array literal
// keyed by op, so two handlers for one op do not compile.)
func TestEveryOpHasOneHandler(t *testing.T) {
	inTable := map[wire.Op]bool{}
	for _, info := range wire.Ops() {
		inTable[info.Op] = true
		if int(info.Op) >= len(handlers) || handlers[info.Op] == nil {
			t.Errorf("op %v is in wire's op table but has no server handler", info.Op)
		}
	}
	for code, h := range handlers {
		if h != nil && !inTable[wire.Op(code)] {
			t.Errorf("handler for op %#x has no row in wire's op table", code)
		}
	}
}

// TestHelloRefusesOtherVersions: a hello carrying any version but
// wire.ProtocolVersion is answered with StatusError (the client's
// ServerError) and nothing else happens — the same connection then
// authenticates with a correct hello and serves requests.
func TestHelloRefusesOtherVersions(t *testing.T) {
	tn := newTestNet(t)
	conn, err := net.Dial("tcp", tn.hubAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	exchange := func(req *wire.Enc) (status byte, body *wire.Dec) {
		t.Helper()
		if err := wire.WriteFrame(conn, req.Bytes()); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) < 2 || payload[0] != req.Bytes()[0]|0x80 {
			t.Fatalf("bad response envelope % x", payload)
		}
		return payload[1], wire.NewDec(payload[2:])
	}
	hello := func(version uint32) *wire.Enc {
		return wire.NewEnc(wire.OpHello).U32(version).Str("ada").Str("ada-pw")
	}
	for _, v := range []uint32{0, 1, wire.ProtocolVersion + 1, 1 << 31} {
		status, body := exchange(hello(v))
		if msg := body.Str(); status != wire.StatusError || !strings.Contains(msg, "unsupported protocol version") {
			t.Errorf("hello v%d: status %d %q, want StatusError naming the version", v, status, msg)
		}
		// Still unauthenticated: the refused hello must not have logged in.
		if _, body := exchange(wire.NewEnc(wire.OpMeshStatus)); !strings.Contains(body.Str(), "not authenticated") {
			t.Errorf("a hello v%d opened a session", v)
		}
	}
	if status, body := exchange(hello(wire.ProtocolVersion)); status != wire.StatusOK {
		t.Fatalf("correct hello after refusals: status %d %q", status, body.Str())
	}
	if status, body := exchange(wire.NewEnc(wire.OpResolve).Str("apps/none.nsf")); status != wire.StatusOK {
		t.Errorf("connection unusable after the version refusals: status %d %q", status, body.Str())
	}
	// An authenticated op, not just a pre-auth one.
	if status, body := exchange(wire.NewEnc(wire.OpMeshStatus)); status != wire.StatusError ||
		!strings.Contains(body.Str(), "mesh not enabled") {
		t.Errorf("authenticated op after hello: status %d, want the mesh-not-enabled application error", status)
	}
}
