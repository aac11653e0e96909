package server

import (
	"context"
	"math/rand"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/wire"
)

// newFaultServer starts a server with one database and short conn
// deadlines, returning the server and its address.
func newFaultServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	d := dir.New()
	d.AddUser(dir.User{Name: "ada", Secret: "ada-pw"})
	opts.Name = "hub"
	opts.DataDir = filepath.Join(t.TempDir(), "hub")
	opts.Directory = d
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.OpenDB("apps/db.nsf", core.Options{Title: "db"}); err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, addr
}

// checkServes asserts a well-behaved client can still complete a full
// round trip against the server.
func checkServes(t *testing.T, addr string) {
	t.Helper()
	c, err := wire.Dial(addr, "ada", "ada-pw")
	if err != nil {
		t.Fatalf("healthy client cannot connect: %v", err)
	}
	defer c.Close()
	db, err := c.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatalf("healthy client cannot open db: %v", err)
	}
	if _, err := db.Info(); err != nil {
		t.Fatalf("healthy client cannot query: %v", err)
	}
}

// TestDispatchSurvivesGarbage throws seeded random request payloads at the
// dispatcher for every opcode (and invalid ones): it must return error
// responses, never panic.
func TestDispatchSurvivesGarbage(t *testing.T) {
	s, _ := newFaultServer(t, Options{})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		st := &connState{s: s, handles: make(map[uint32]*handleState), nextH: 1}
		if rng.Intn(2) == 0 {
			st.user = "ada" // exercise both pre- and post-auth paths
		}
		op := wire.Op(rng.Intn(40)) // includes ops beyond the defined range
		body := make([]byte, rng.Intn(128))
		rng.Read(body)
		resp := st.dispatch(context.Background(), op, wire.NewDec(body))
		if resp == nil {
			t.Fatalf("dispatch(%#x) returned nil response", byte(op))
		}
	}
}

// TestServerSurvivesRawCorruption sends malformed byte streams straight at
// the listener: oversized length prefixes, truncated frames, and garbage
// bodies. The server must drop the offender and keep serving others.
func TestServerSurvivesRawCorruption(t *testing.T) {
	_, addr := newFaultServer(t, Options{})
	send := func(raw []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write(raw)
		// Read whatever comes back (error response or close); bounded.
		conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}
	send([]byte{0xFF, 0xFF, 0xFF, 0xFF})                      // 4 GiB frame claim
	send([]byte{0xFF, 0xFF, 0x00, 0x00})                      // 64 KiB claim, no body
	send([]byte{0x08, 0x00, 0x00, 0x00, 0xDE, 0xAD})          // truncated body
	send([]byte{0x04, 0x00, 0x00, 0x00, 0x99, 0x98, 0x97, 1}) // garbage op
	send([]byte{0x00, 0x00, 0x00, 0x00})                      // empty frame
	garbage := make([]byte, 2048)
	rand.New(rand.NewSource(7)).Read(garbage)
	send(append([]byte{0x00, 0x08, 0x00, 0x00}, garbage...)) // 2 KiB of noise
	checkServes(t, addr)
}

// TestServerIdleTimeoutUnblocksHandler proves a half-sent frame cannot pin
// a handler goroutine: the deadline fires and the server drops the conn.
func TestServerIdleTimeoutUnblocksHandler(t *testing.T) {
	_, addr := newFaultServer(t, Options{idleTimeout: 200 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte{0x10, 0x00}) // half a header, then silence
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a stalled connection alive")
	}
	checkServes(t, addr)
}

// TestReplicaIDRoundTrip exercises the OpReplicaID RPC end to end.
func TestReplicaIDRoundTrip(t *testing.T) {
	s, addr := newFaultServer(t, Options{})
	local, _ := s.DB("apps/db.nsf")
	c, err := wire.Dial(addr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := db.ReplicaID()
	if err != nil {
		t.Fatalf("ReplicaID: %v", err)
	}
	if rid != local.ReplicaID() {
		t.Errorf("remote replica %v != local %v", rid, local.ReplicaID())
	}
}
