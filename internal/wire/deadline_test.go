package wire

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nsf"
)

// deadlineResp builds a scripted StatusDeadlineExceeded response for the
// (inner) request payload, with the given stage byte.
func deadlineResp(inner []byte, stage byte) []byte {
	return NewResp(Op(inner[0]), StatusDeadlineExceeded).U8(stage).Bytes()
}

// TestDeadlineExceededNotResent: a deadline expiry mid-op is ambiguous —
// the server may or may not have executed the write — so the client must
// NOT auto-resend a non-idempotent create, even with retries enabled. A
// busy shed on the very same connection (provably never executed) still
// is resent: the contrast is the point.
func TestDeadlineExceededNotResent(t *testing.T) {
	var creates atomic.Int32
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		_, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		switch {
		case Op(inner[0]) == OpOpenDB:
			return openOK(conn, inner)
		case creates.Add(1) == 1:
			// First create: the deadline died mid-op. Ambiguous.
			return WriteFrame(conn, deadlineResp(inner, DeadlineAborted)) == nil
		default:
			n := nsf.NewNote(nsf.ClassDocument)
			return WriteFrame(conn, NewResp(OpCreateNote, StatusOK).Note(n).Bytes()) == nil
		}
	})
	c, err := DialOptions(addr, "u", "s", fastOpts()) // retries ON
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	err = db.Create(nsf.NewNote(nsf.ClassDocument))
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("create after deadline expiry: err = %v, want DeadlineError", err)
	}
	if !de.Remote || !de.Ambiguous {
		t.Errorf("DeadlineError = %+v, want Remote and Ambiguous", de)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Error("DeadlineError does not match ErrDeadline")
	}
	if Retryable(err) {
		t.Error("ambiguous deadline expiry classified retryable")
	}
	if got := creates.Load(); got != 1 {
		t.Errorf("server saw %d creates, want 1 (no auto-resend)", got)
	}
	// Contrast: a second create succeeds — the connection is healthy, the
	// client just refused to guess about the first one.
	if err := db.Create(nsf.NewNote(nsf.ClassDocument)); err != nil {
		t.Fatalf("create after deadline error: %v", err)
	}
}

// TestDeadlineRefusedIsUnambiguous: a DeadlineRefused response (the server
// shed the request before executing it) surfaces as a non-ambiguous
// DeadlineError — the caller knows the op never ran.
func TestDeadlineRefusedIsUnambiguous(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		_, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		if Op(inner[0]) == OpOpenDB {
			return openOK(conn, inner)
		}
		return WriteFrame(conn, deadlineResp(inner, DeadlineRefused)) == nil
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
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlineError", err)
	}
	if !de.Remote || de.Ambiguous {
		t.Errorf("DeadlineError = %+v, want Remote and not Ambiguous", de)
	}
}

// TestBudgetShrinksAcrossFailover: the wire budget a mate receives is the
// time REMAINING, not the original allowance — a 400ms user budget spent
// partly on a slow first mate must arrive at the second mate smaller, so
// failover can never stretch the user's deadline to budget x mates.
func TestBudgetShrinksAcrossFailover(t *testing.T) {
	var b1, b2 atomic.Uint32
	mate1 := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		budget, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		if Op(inner[0]) == OpOpenDB {
			return openOK(conn, inner)
		}
		// First capture only: the breaker cooldown may route later
		// attempts of the same op back here with even less budget.
		b1.CompareAndSwap(0, budget)
		time.Sleep(80 * time.Millisecond) // burn budget before shedding
		return WriteFrame(conn, busyResp(inner, StateOpen, 5)) == nil
	})
	mate2 := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		budget, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		if Op(inner[0]) == OpOpenDB {
			return openOK(conn, inner)
		}
		b2.CompareAndSwap(0, budget)
		return WriteFrame(conn, busyResp(inner, StateOpen, 5)) == nil
	})
	opts := failoverTestOpts()
	opts.Client.OpBudget = 400 * time.Millisecond
	fc, err := DialFailover([]string{mate1, mate2}, "u", "s", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	db.Info() // both mates shed; the op fails — only the budgets matter here
	got1, got2 := b1.Load(), b2.Load()
	if got1 == 0 || got2 == 0 {
		t.Fatalf("budgets not captured: mate1 %d ms, mate2 %d ms", got1, got2)
	}
	if got2 >= got1 {
		t.Errorf("budget did not shrink across failover: mate1 %d ms, mate2 %d ms", got1, got2)
	}
	if got1 > 400 {
		t.Errorf("mate1 budget %d ms exceeds the 400 ms allowance", got1)
	}
}

// TestHedgedReadWinsOverSlowMate: with hedged reads on, a read parked on a
// slow mate is raced against a second mate after the hedge delay; the fast
// response wins, the slow primary is cancelled, and the caller sees
// fast-mate latency instead of slow-mate latency.
func TestHedgedReadWinsOverSlowMate(t *testing.T) {
	note := nsf.NewNote(nsf.ClassDocument)
	slowAddr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		_, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		if Op(inner[0]) == OpOpenDB {
			return openOK(conn, inner)
		}
		time.Sleep(500 * time.Millisecond) // the mate everyone waits on
		return WriteFrame(conn, NewResp(OpGetNote, StatusOK).Note(note).Bytes()) == nil
	})
	fastAddr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		_, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		if Op(inner[0]) == OpOpenDB {
			return openOK(conn, inner)
		}
		return WriteFrame(conn, NewResp(OpGetNote, StatusOK).Note(note).Bytes()) == nil
	})
	opts := failoverTestOpts()
	opts.Client.OpBudget = 2 * time.Second
	opts.HedgeReads = true
	opts.HedgeDelay = 10 * time.Millisecond
	opts.HedgeRateCap = 1.0
	fc, err := DialFailover([]string{slowAddr, fastAddr}, "u", "s", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := db.Get(note.OID.UNID); err != nil {
		t.Fatalf("hedged get: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("hedged read took %v, want well under the slow mate's 500ms", elapsed)
	}
	st := fc.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Errorf("stats = hedges %d wins %d, want both > 0", st.Hedges, st.HedgeWins)
	}
}

// TestClientBudgetExpiryPreSend: with the budget already spent, the client
// refuses locally — unambiguous (never sent) — without touching the wire.
func TestClientBudgetExpiryPreSend(t *testing.T) {
	var ops atomic.Int32
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		_, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		if Op(inner[0]) == OpOpenDB {
			ops.Add(1)
			return openOK(conn, inner)
		}
		ops.Add(1)
		time.Sleep(50 * time.Millisecond)
		return WriteFrame(conn, busyResp(inner, StateOpen, 50)) == nil
	})
	o := fastOpts()
	o.OpBudget = 30 * time.Millisecond
	c, err := DialOptions(addr, "u", "s", o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = db.Info()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want deadline expiry", err)
	}
	// The 30ms budget bounds the whole retry ladder: well under OpTimeout
	// (500ms) and nowhere near budget x retries.
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("budgeted op took %v, budget did not bound retries", elapsed)
	}
}

// TestBudgetBoundsDial: the budget covers connection establishment too. A
// peer that refuses connections is redialed only until the budget is spent,
// and the expiry says what the dials died of; a peer that swallows the SYN
// costs the budget, not DialTimeout x retries.
func TestBudgetBoundsDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	// 192.0.2.0/24 is TEST-NET-1: routed nowhere. Depending on the host the
	// SYN is dropped (the case under test) or refused at once; both must end
	// in an expiry inside the budget.
	for _, addr := range []string{refused, "192.0.2.1:9"} {
		o := Options{OpBudget: 150 * time.Millisecond, BackoffBase: 40 * time.Millisecond}
		start := time.Now()
		_, err := DialOptions(addr, "u", "s", o)
		var de *DeadlineError
		if !errors.As(err, &de) || de.Ambiguous || de.Remote {
			t.Fatalf("dial %s: err = %v, want a local unambiguous expiry", addr, err)
		}
		if addr == refused && !strings.Contains(err.Error(), "refused") {
			t.Errorf("dial %s: expiry %q hides what the dials died of", addr, err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("dial %s took %v with a 150ms budget", addr, elapsed)
		}
	}
}

// TestBudgetAbandonThenRecover: after a client-side budget expiry abandons
// a connection mid-op, the next operation must redial and succeed — one
// stalled exchange must not poison the session.
func TestBudgetAbandonThenRecover(t *testing.T) {
	var slowDone atomic.Bool
	addr := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		_, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		if Op(inner[0]) == OpOpenDB {
			return openOK(conn, inner)
		}
		if slowDone.CompareAndSwap(false, true) {
			time.Sleep(400 * time.Millisecond) // past the budget
		}
		n := nsf.NewNote(nsf.ClassDocument)
		return WriteFrame(conn, NewResp(OpCreateNote, StatusOK).Note(n).Bytes()) == nil
	})
	o := fastOpts()
	o.OpBudget = 80 * time.Millisecond
	c, err := DialOptions(addr, "u", "s", o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db, err := c.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Create(nsf.NewNote(nsf.ClassDocument)); err == nil {
		t.Fatal("slow create unexpectedly beat the budget")
	}
	for i := 0; i < 3; i++ {
		if err := db.Create(nsf.NewNote(nsf.ClassDocument)); err != nil {
			t.Fatalf("create %d after budget abandonment: %v", i, err)
		}
	}
}

// TestLocalExpiryOpensBreaker: a LOCAL mid-op budget expiry (our deadline
// cut a stalled mate) counts against that mate's breaker, so the next
// operation runs on a healthy mate instead of feeding the stall another
// budget. The expired op itself still surfaces its ambiguous verdict.
func TestLocalExpiryOpensBreaker(t *testing.T) {
	stalled := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		_, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		switch Op(inner[0]) {
		case OpOpenDB:
			return openOK(conn, inner)
		case OpCreateNote:
			time.Sleep(5 * time.Second) // never answers within any budget
			return false
		default:
			// Answer bookkeeping ops (the eager placement resolve on
			// OpenDB) promptly so only the data op eats the budget.
			return WriteFrame(conn, NewResp(Op(inner[0]), StatusError).Str("no").Bytes()) == nil
		}
	})
	healthy := scriptServer(t, func(conn net.Conn, opNum int, payload []byte) bool {
		_, inner, err := SplitBudget(payload)
		if err != nil {
			return false
		}
		if Op(inner[0]) == OpOpenDB {
			return openOK(conn, inner)
		}
		n := nsf.NewNote(nsf.ClassDocument)
		return WriteFrame(conn, NewResp(OpCreateNote, StatusOK).Note(n).Bytes()) == nil
	})
	opts := failoverTestOpts()
	opts.Client.OpBudget = 100 * time.Millisecond
	opts.FailThreshold = 1 // one eaten budget opens the breaker
	fc, err := DialFailover([]string{stalled, healthy}, "u", "s", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("x.nsf")
	if err != nil {
		t.Fatal(err)
	}
	err = db.Create(nsf.NewNote(nsf.ClassDocument))
	var de *DeadlineError
	if !errors.As(err, &de) || de.Remote || !de.Ambiguous {
		t.Fatalf("create on stalled mate: err = %v, want local ambiguous DeadlineError", err)
	}
	// The next op must land on the healthy mate well inside one budget.
	start := time.Now()
	if err := db.Create(nsf.NewNote(nsf.ClassDocument)); err != nil {
		t.Fatalf("create after breaker: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("post-expiry create took %v — client fed the stalled mate again", elapsed)
	}
}

// TestBudgetFrameRoundTrip pins the envelope encoding: WriteBudgetFrame
// prepends exactly [OpBudget][u32 ms] and SplitBudget strips it, passing
// unbudgeted payloads through untouched.
func TestBudgetFrameRoundTrip(t *testing.T) {
	inner := NewEnc(OpDBInfo).U32(7).Bytes()
	left, right := net.Pipe()
	defer left.Close()
	defer right.Close()
	go WriteBudgetFrame(left, 1234, inner)
	payload, err := ReadFrame(right)
	if err != nil {
		t.Fatal(err)
	}
	budget, got, err := SplitBudget(payload)
	if err != nil {
		t.Fatal(err)
	}
	if budget != 1234 {
		t.Errorf("budget = %d, want 1234", budget)
	}
	if string(got) != string(inner) {
		t.Errorf("inner payload corrupted by budget envelope")
	}
	// Passthrough: no envelope, budget 0, payload unchanged.
	budget, got, err = SplitBudget(inner)
	if err != nil || budget != 0 || string(got) != string(inner) {
		t.Errorf("passthrough = (%d, %q, %v), want (0, original, nil)", budget, got, err)
	}
}
