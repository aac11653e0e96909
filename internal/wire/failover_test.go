package wire

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nsf"
)

// busyResp builds a scripted StatusBusy response for the request in payload.
func busyResp(payload []byte, state byte, avail uint32) []byte {
	return NewResp(Op(payload[0]), StatusBusy).U8(state).U32(avail).Bytes()
}

// TestBusyShedRetriesNonIdempotent: a shed request provably never executed,
// so the client may re-send it even though creates are not idempotent. The
// scripted server sheds the first create and accepts the retry.
func TestBusyShedRetriesNonIdempotent(t *testing.T) {
	var sheds atomic.Int32
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		switch opNum {
		case 0:
			return openOK(conn, payload)
		case 1:
			sheds.Add(1)
			return WriteFrame(conn, busyResp(payload, StateOpen, 55)) == nil
		default:
			n := nsf.NewNote(nsf.ClassDocument)
			resp := NewResp(OpCreateNote, StatusOK).Note(n)
			return WriteFrame(conn, resp.Bytes()) == nil
		}
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
	if err := db.Create(nsf.NewNote(nsf.ClassDocument)); err != nil {
		t.Fatalf("create after shed: %v", err)
	}
	if sheds.Load() != 1 {
		t.Errorf("sheds = %d, want 1", sheds.Load())
	}
}

// TestBusyErrorCarriesAvailability: with retries disabled, a shed surfaces
// as a BusyError carrying the server's state and availability index, is
// recognized by errors.Is(err, ErrServerBusy), and counts as retryable.
func TestBusyErrorCarriesAvailability(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		if opNum == 0 {
			return openOK(conn, payload)
		}
		return WriteFrame(conn, busyResp(payload, StateRestricted, 7)) == nil
	})
	c, err := DialOptions(addr, "u", "s", noRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Info()
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want BusyError", err)
	}
	if !errors.Is(err, ErrServerBusy) {
		t.Error("BusyError is not ErrServerBusy")
	}
	if be.State != StateRestricted || be.Availability != 7 {
		t.Errorf("BusyError = state %d avail %d, want restricted/7", be.State, be.Availability)
	}
	if !Retryable(err) {
		t.Error("shed response not classified retryable")
	}
}

func failoverTestOpts() FailoverOptions {
	o := noRetryOpts()
	return FailoverOptions{Client: o, Cooldown: 50 * time.Millisecond}
}

// TestFailoverBusyRedirect: a mate that sheds everything drives the client
// to the next mate, and the shed's availability index is remembered against
// the busy mate.
func TestFailoverBusyRedirect(t *testing.T) {
	busyAddr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		return WriteFrame(conn, busyResp(payload, StateOpen, 10)) == nil
	})
	okAddr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		return openOK(conn, payload)
	})
	fc, err := DialFailover([]string{busyAddr, okAddr}, "u", "s", failoverTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := fc.OpenDB("x.nsf"); err != nil {
		t.Fatalf("open across busy redirect: %v", err)
	}
	if cur, _ := fc.Current(); cur != okAddr {
		t.Errorf("current mate = %s, want the non-busy one %s", cur, okAddr)
	}
	if st := fc.Stats(); st.BusyRedirects == 0 {
		t.Errorf("stats = %+v, want BusyRedirects > 0", st)
	}
}

// TestFailoverDeadMateAtDial: an unreachable first mate must not fail the
// session — the dial falls through to the live one.
func TestFailoverDeadMateAtDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	okAddr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		return openOK(conn, payload)
	})
	fc, err := DialFailover([]string{deadAddr, okAddr}, "u", "s", failoverTestOpts())
	if err != nil {
		t.Fatalf("dial with one dead mate: %v", err)
	}
	defer fc.Close()
	if cur, _ := fc.Current(); cur != okAddr {
		t.Errorf("current mate = %s, want %s", cur, okAddr)
	}
}

// TestFailoverMidSessionRebindsHandles: the mate dies between operations on
// an open handle; an idempotent operation retries on the survivor, against a
// handle transparently re-opened there.
func TestFailoverMidSessionRebindsHandles(t *testing.T) {
	dieAddr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		if opNum == 0 {
			return openOK(conn, payload)
		}
		return false // kill the connection on the first real op
	})
	var served atomic.Int32
	okAddr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		if Op(payload[0]) == OpOpenDB {
			return openOK(conn, payload)
		}
		served.Add(1)
		n := nsf.NewNote(nsf.ClassDocument)
		return WriteFrame(conn, NewResp(OpGetNote, StatusOK).Note(n).Bytes()) == nil
	})
	fc, err := DialFailover([]string{dieAddr, okAddr}, "u", "s", failoverTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(nsf.UNID{}); err != nil {
		t.Fatalf("get across mate death: %v", err)
	}
	if served.Load() == 0 {
		t.Error("survivor never served the retried op")
	}
	if cur, _ := fc.Current(); cur != okAddr {
		t.Errorf("current mate = %s, want survivor %s", cur, okAddr)
	}
	if st := fc.Stats(); st.Failovers == 0 {
		t.Errorf("stats = %+v, want Failovers > 0", st)
	}
}

// stalledServer accepts connections and never answers anything — not the
// hello, not an availability probe.
func stalledServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { <-done; conn.Close() }()
		}
	}()
	return ln.Addr().String()
}

// TestFailoverStalledFirstMate: a mate that accepts and then stalls sorts
// first (unknown availability, configured order) but must cost only its own
// session budget — never the budget of the healthy mate behind it, and never
// that mate's breaker. Both on a fresh dial and when a live session on the
// healthy mate is severed while the other one stalls.
func TestFailoverStalledFirstMate(t *testing.T) {
	stalled := stalledServer(t)
	var sever atomic.Bool
	healthy := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		_, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		switch Op(inner[0]) {
		case OpOpenDB:
			return openOK(conn, inner)
		case OpGetNote:
			if sever.Swap(false) {
				return false
			}
			return WriteFrame(conn, NewResp(OpGetNote, StatusOK).Note(nsf.NewNote(nsf.ClassDocument)).Bytes()) == nil
		default: // the eager placement resolve
			return WriteFrame(conn, NewResp(Op(inner[0]), StatusError).Str("no").Bytes()) == nil
		}
	})
	opts := failoverTestOpts()
	opts.Client.OpBudget = 100 * time.Millisecond
	start := time.Now()
	fc, err := DialFailover([]string{stalled, healthy}, "u", "s", opts)
	if err != nil {
		t.Fatalf("dial behind a stalled first mate: %v", err)
	}
	defer fc.Close()
	if cur, _ := fc.Current(); cur != healthy {
		t.Fatalf("current mate = %s, want the healthy one %s", cur, healthy)
	}
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	// Sever the live session once: the reconnect walks past the stalled mate
	// again. The op whose budget that walk outlasts may expire, ambiguously:
	// the severed attempt was in flight and may have executed. Every later
	// op must find the session on the healthy mate.
	sever.Store(true)
	failures := 0
	for i := 0; i < 20; i++ {
		if _, err := db.Get(nsf.UNID{}); err != nil {
			failures++
			var de *DeadlineError
			if !errors.As(err, &de) || !de.Ambiguous {
				t.Errorf("get %d: %v, want an ambiguous expiry", i, err)
			}
		}
	}
	if failures > 1 {
		t.Errorf("%d of 20 gets failed after one severed session, want at most 1", failures)
	}
	if cur, _ := fc.Current(); cur != healthy {
		t.Errorf("current mate = %s, want the healthy one %s", cur, healthy)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("took %v — the stalled mate was fed more than its own session budgets", elapsed)
	}
}

// TestBreakerCountsSpentTurns pins what a mate's turn costs and when its
// breaker opens: a turn is the first attempt plus MaxRetries in-place
// re-sends, the breaker hears of it once, and defaultFailThreshold turns open
// it.
func TestBreakerCountsSpentTurns(t *testing.T) {
	opts := FailoverOptions{Client: fastOpts(), Cooldown: time.Minute}
	opts.Client.MaxRetries = 1

	// A mate that dies under every read: two turns of two attempts each, then
	// the breaker is open and the op lands on the other mate.
	var dyingGets atomic.Int32
	dying := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		if Op(payload[0]) == OpOpenDB {
			return openOK(conn, payload)
		}
		if Op(payload[0]) == OpGetNote {
			dyingGets.Add(1)
			return false
		}
		return WriteFrame(conn, NewResp(Op(payload[0]), StatusError).Str("no").Bytes()) == nil
	})
	ok := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		if Op(payload[0]) == OpOpenDB {
			return openOK(conn, payload)
		}
		return WriteFrame(conn, NewResp(OpGetNote, StatusOK).Note(nsf.NewNote(nsf.ClassDocument)).Bytes()) == nil
	})
	fc, err := DialFailover([]string{dying, ok}, "u", "s", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(nsf.UNID{}); err != nil {
		t.Fatalf("get across a dying mate: %v", err)
	}
	if got := dyingGets.Load(); got != 4 {
		t.Errorf("dying mate saw %d gets, want 4 (defaultFailThreshold 2 turns x (1 + MaxRetries 1) attempts)", got)
	}
	if st := fc.Stats(); st.Failovers != 2 {
		t.Errorf("Failovers = %d, want 2 (one per spent turn)", st.Failovers)
	}
	if cur, _ := fc.Current(); cur != ok {
		t.Errorf("current mate = %s, want %s", cur, ok)
	}

	// A cluster-wide shed: every mate refuses. The op is bounded at
	// 2 x mates moves, i.e. 2N+1 turns and 2N reconnects.
	var sheds, conns atomic.Int32
	shedding := func() string {
		return scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
			if opNum == 0 {
				conns.Add(1)
			}
			sheds.Add(1)
			return WriteFrame(conn, busyResp(payload, StateOpen, 10)) == nil
		})
	}
	busy, err := DialFailover([]string{shedding(), shedding()}, "u", "s", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if _, err := busy.Availability(); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("err = %v, want the shed surfaced", err)
	}
	if s, c := sheds.Load(), conns.Load(); s != 10 || c != 5 {
		t.Errorf("cluster-wide shed cost %d sends on %d sessions, want 10 on 5 ((2N+1) turns x 2 attempts)", s, c)
	}
	if st := busy.Stats(); st.BusyRedirects != 5 {
		t.Errorf("BusyRedirects = %d, want 5 (one per spent turn)", st.BusyRedirects)
	}
}
