package wire

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nsf"
)

// fastOpts are client options tuned so failing tests fail in milliseconds,
// not default production backoffs.
func fastOpts() Options {
	return Options{
		DialTimeout: 2 * time.Second,
		OpTimeout:   500 * time.Millisecond,
		MaxRetries:  3,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Jitter:      rand.New(rand.NewSource(1)),
	}
}

func noRetryOpts() Options {
	o := fastOpts()
	o.MaxRetries = -1
	return o
}

// scriptServer runs a minimal wire server whose behavior after a
// successful hello is decided per-connection by script(conn, opNumber,
// payload) returning false to kill the connection.
func scriptServer(t *testing.T, script func(conn net.Conn, opNum int, payload []byte) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				// Hello exchange: accept anything — except an availability
				// probe, which (like a real server) is answered pre-auth:
				// open and idle.
				first, err := ReadFrame(conn)
				if err != nil {
					return
				}
				if len(first) > 0 && Op(first[0]) == OpAvailability {
					WriteFrame(conn, NewResp(OpAvailability, StatusOK).U8(StateOpen).U32(100).U32(0).U32(0).U64(0).Bytes())
					return
				}
				if err := WriteFrame(conn, NewResp(OpHello, StatusOK).Bytes()); err != nil {
					return
				}
				for opNum := 0; ; opNum++ {
					payload, err := ReadFrame(conn)
					if err != nil {
						return
					}
					if !script(conn, opNum, payload) {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// openOK answers OpOpenDB requests with a fixed handle so scripts can get
// a client past OpenDB.
func openOK(conn net.Conn, payload []byte) bool {
	var replica nsf.ReplicaID
	resp := NewResp(OpOpenDB, StatusOK).U32(7).Raw(replica[:]).Str("scripted")
	return WriteFrame(conn, resp.Bytes()) == nil
}

func TestClientTimeoutOnSilentServer(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		// Swallow every op after hello: never respond, hold the conn.
		time.Sleep(10 * time.Second)
		return false
	})
	c, err := DialOptions(addr, "u", "s", noRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.OpenDB("x.nsf")
	if err == nil {
		t.Fatal("silent server did not time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("operation blocked %v, deadline did not bound it", elapsed)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %v is not a timeout", err)
	}
	if !Retryable(err) {
		t.Error("timeout classified non-retryable")
	}
}

func TestClientRejectsTruncatedResponse(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		// Claim an 80-byte frame, deliver 10, die.
		hdr := []byte{80, 0, 0, 0}
		conn.Write(hdr)
		conn.Write(make([]byte, 10))
		return false
	})
	c, err := DialOptions(addr, "u", "s", noRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenDB("x.nsf"); err == nil {
		t.Fatal("truncated response accepted")
	} else if !Retryable(err) {
		t.Errorf("mid-frame EOF %v classified non-retryable", err)
	}
}

func TestClientRejectsOversizedLengthPrefix(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB frame claim
		return false
	})
	c, err := DialOptions(addr, "u", "s", noRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenDB("x.nsf"); err == nil {
		t.Fatal("hostile length prefix accepted")
	}
}

func TestClientRejectsGarbageAndWrongOp(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"one byte":  {0x41},
		"wrong op":  NewResp(OpSearch, StatusOK).Bytes(),
		"no status": {byte(OpOpenDB) | respBit},
		"garbage":   {0xDE, 0xAD, 0xBE, 0xEF, 0x99, 0x1, 0x2, 0x3},
	}
	for name, resp := range cases {
		t.Run(name, func(t *testing.T) {
			addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
				return WriteFrame(conn, resp) == nil
			})
			c, err := DialOptions(addr, "u", "s", noRetryOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.OpenDB("x.nsf"); err == nil {
				t.Fatal("corrupt response accepted")
			}
		})
	}
}

func TestClientRetriesThroughSeveredConnections(t *testing.T) {
	// The server kills the connection on the first two data requests, then
	// behaves. With retries enabled the caller never notices.
	var kills atomic.Int32
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		if kills.Load() < 2 && Op(payload[0]) == OpDeleteNote {
			kills.Add(1)
			return false // sever instead of answering
		}
		switch Op(payload[0]) {
		case OpOpenDB:
			return openOK(conn, payload)
		case OpDeleteNote:
			return WriteFrame(conn, NewResp(OpDeleteNote, StatusOK).Bytes()) == nil
		}
		return false
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
	if err := db.Delete(nsf.NewUNID()); err != nil {
		t.Fatalf("retryable op failed despite retries: %v", err)
	}
	if kills.Load() != 2 {
		t.Fatalf("server killed %d connections, want 2", kills.Load())
	}
}

func TestClientDoesNotResendNonIdempotentOps(t *testing.T) {
	// Create must NOT be re-sent after a mid-trip sever: the server may
	// have executed it. The script counts create attempts and always
	// severs, so a retrying client would show attempts > 1.
	var creates atomic.Int32
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		switch Op(payload[0]) {
		case OpOpenDB:
			return openOK(conn, payload)
		case OpCreateNote:
			creates.Add(1)
			return false
		}
		return false
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
	n := nsf.NewNote(nsf.ClassDocument)
	if err := db.Create(n); err == nil {
		t.Fatal("severed create reported success")
	}
	if got := creates.Load(); got != 1 {
		t.Fatalf("non-idempotent create sent %d times", got)
	}
}

func TestClientReconnectReopensHandles(t *testing.T) {
	// Track per-connection opens: after a sever, the next Delete must be
	// preceded by a fresh hello + OpOpenDB on the new connection.
	var opens atomic.Int32
	severed := atomic.Bool{}
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		switch Op(payload[0]) {
		case OpOpenDB:
			opens.Add(1)
			return openOK(conn, payload)
		case OpDeleteNote:
			if !severed.Load() {
				severed.Store(true)
				return false
			}
			return WriteFrame(conn, NewResp(OpDeleteNote, StatusOK).Bytes()) == nil
		}
		return false
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
	if err := db.Delete(nsf.NewUNID()); err != nil {
		t.Fatalf("delete after sever: %v", err)
	}
	if got := opens.Load(); got != 2 {
		t.Fatalf("handle opened %d times, want 2 (initial + rebind)", got)
	}
}

func TestServerErrorsAreNotRetried(t *testing.T) {
	var attempts atomic.Int32
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		attempts.Add(1)
		resp := NewResp(Op(payload[0]), StatusError).Str("no such database")
		return WriteFrame(conn, resp.Bytes()) == nil
	})
	c, err := DialOptions(addr, "u", "s", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.OpenDB("missing.nsf")
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a ServerError", err)
	}
	if Retryable(err) {
		t.Error("server error classified retryable")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("server error retried: %d attempts", got)
	}
}

func TestClosedClientFailsFast(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		return openOK(conn, payload)
	})
	c, err := DialOptions(addr, "u", "s", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := db.Delete(nsf.NewUNID()); !errors.Is(err, ErrClosed) {
		t.Fatalf("op on closed client = %v, want ErrClosed", err)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{&net.OpError{Op: "read", Err: errors.New("reset")}, true},
		{&ServerError{Op: OpOpenDB, Msg: "denied"}, false},
		{protoErrorf("desync"), true},
		{errors.New("some app error"), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
