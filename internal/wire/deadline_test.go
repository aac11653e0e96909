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

// TestBudgetFrameRoundTrip pins the envelope encoding: a budgeted frame
// prepends exactly [OpBudget][u32 ms] and SplitBudget strips it, passing
// unbudgeted payloads through untouched.
func TestBudgetFrameRoundTrip(t *testing.T) {
	inner := NewEnc(OpDBInfo).U32(7).Bytes()
	left, right := net.Pipe()
	defer left.Close()
	defer right.Close()
	go writeFrame(left, 1234, inner)
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

// TestSessionExpiryIsUnambiguous: a budget that runs out while the client is
// still setting a session up — dial, hello, handle re-opens — expires an op
// that never left the client. The error names the caller's op and is not
// ambiguous, so the caller need not read back before re-issuing it.
func TestSessionExpiryIsUnambiguous(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	// The first session answers its hello and is severed under its first op;
	// every later session stalls at its hello.
	var sessions, deposits atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if sessions.Add(1) > 1 {
					<-done
					return
				}
				if _, err := ReadFrame(conn); err != nil {
					return
				}
				if WriteFrame(conn, NewResp(OpHello, StatusOK).Bytes()) != nil {
					return
				}
				if payload, err := ReadFrame(conn); err == nil {
					if _, inner, err := SplitBudget(payload); err == nil && Op(inner[0]) == OpMailDeposit {
						deposits.Add(1)
					}
				}
			}()
		}
	}()
	c, err := DialOptions(ln.Addr().String(), "u", "s", Options{OpBudget: 100 * time.Millisecond, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Availability(); err == nil {
		t.Fatal("severed op reported success")
	}
	err = c.MailDeposit(nsf.NewNote(nsf.ClassDocument))
	var de *DeadlineError
	if !errors.As(err, &de) || de.Op != OpMailDeposit || de.Ambiguous || de.Remote {
		t.Fatalf("deposit behind a stalled hello: err = %v (%+v), want a local unambiguous MailDeposit expiry", err, de)
	}
	if n := deposits.Load(); n != 0 {
		t.Errorf("the mate saw %d deposits, want 0", n)
	}
}

// TestExpiryAfterSeveredSendIsAmbiguous: an idempotent op whose first send
// is severed in flight is re-sent, and when the budget runs out before the
// re-send the expiry must say the op may have executed — the severed send
// may have reached the server. Calling it unambiguous would tell the caller
// that a delete which did land was never applied.
func TestExpiryAfterSeveredSendIsAmbiguous(t *testing.T) {
	for _, info := range Ops() {
		if !info.Idempotent || info.PreAuth {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			var seen atomic.Int32
			opts := fastOpts()
			opts.OpBudget = 30 * time.Millisecond
			opts.BackoffBase, opts.BackoffMax = time.Second, time.Second
			c, err := DialOptions(severing(t, &seen), "u", "s", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = c.call(NewEnc(info.Op))
			var de *DeadlineError
			if !errors.As(err, &de) || !de.Ambiguous {
				t.Errorf("%v: %v, want an ambiguous expiry", info.Op, err)
			}
			if n := seen.Load(); n != 1 {
				t.Errorf("%v sent %d times, want 1", info.Op, n)
			}
		})
	}
}

// TestShedAfterSeveredSendIsAmbiguous: an idempotent op whose first send is
// severed in flight is re-sent, and every re-send is shed. The sheds prove
// only that the re-sends never ran; the severed send may have, so the op
// must surface as the in-flight failure, never as a refusal — a caller
// reading a shed as "never applied" would lose a delete that landed.
func TestShedAfterSeveredSendIsAmbiguous(t *testing.T) {
	for _, info := range Ops() {
		if !info.Idempotent || info.PreAuth {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			var seen atomic.Int32
			addr := scriptServer(t, func(conn net.Conn, _ int, payload []byte) bool {
				if seen.Add(1) == 1 {
					return false
				}
				return WriteFrame(conn, busyResp(payload, StateRestricted, 0)) == nil
			})
			opts := fastOpts()
			c, err := DialOptions(addr, "u", "s", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = c.call(NewEnc(info.Op))
			var be *BusyError
			if errors.As(err, &be) || classify(err) != verdictSevered {
				t.Errorf("%v: %v, want the severed send's failure, not a refusal", info.Op, err)
			}
			if n := seen.Load(); n != int32(1+opts.MaxRetries) {
				t.Errorf("%v sent %d times, want %d", info.Op, n, 1+opts.MaxRetries)
			}
		})
	}
}

// TestAllMatesRestrictedIsRefused: every mate sheds the op as RESTRICTED,
// and the last walk finds both RESTRICTED at their probes, so nothing of it
// was ever executed. The op must surface as the refusal it is — a
// RESTRICTED BusyError — so a caller knows it never ran and may retry.
func TestAllMatesRestrictedIsRefused(t *testing.T) {
	for _, info := range Ops() {
		if info.PreAuth {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			var addrs []string
			for range 2 {
				addrs = append(addrs, scriptMate(t, StateRestricted, func(conn net.Conn, _ int, payload []byte) bool {
					return WriteFrame(conn, busyResp(payload, StateRestricted, 0)) == nil
				}))
			}
			fc, err := DialFailover(addrs, "u", "s", failoverTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			_, err = fc.call(NewEnc(info.Op))
			var be *BusyError
			if !errors.As(err, &be) || be.State != StateRestricted || !Retryable(err) {
				t.Errorf("%v: %v, want a RESTRICTED refusal", info.Op, err)
			}
		})
	}
}
