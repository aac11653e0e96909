package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests here loop over the op table instead of listing ops, so an op
// added with the wrong verdict (or a transport that stops consulting the
// table) fails without anyone remembering to extend a list. Requests are
// bare op bytes sent through the transports directly: what a transport
// re-sends depends only on the op, never on the body.

// severing is a scripted mate that reads every request after hello and then
// kills the connection without answering — the response-lost case where the
// request may or may not have executed. It counts the requests it saw.
func severing(t *testing.T, seen *atomic.Int32) string {
	return scriptServer(t, func(net.Conn, int, []byte) bool {
		seen.Add(1)
		return false
	})
}

// TestClientResendsIffIdempotent: after a connection severed mid-exchange,
// Client re-sends exactly the ops the table marks idempotent.
func TestClientResendsIffIdempotent(t *testing.T) {
	for _, info := range Ops() {
		t.Run(info.Name, func(t *testing.T) {
			var seen atomic.Int32
			opts := fastOpts()
			c, err := DialOptions(severing(t, &seen), "u", "s", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.call(NewEnc(info.Op)); err == nil {
				t.Fatal("severed op reported success")
			}
			want := int32(1)
			if info.Idempotent {
				want += int32(opts.MaxRetries)
			}
			if got := seen.Load(); got != want {
				t.Errorf("%v (idempotent=%v) sent %d times, want %d", info.Op, info.Idempotent, got, want)
			}
		})
	}
}

// TestFailoverResendsIffIdempotent: the same rule across mates — an
// idempotent op severed on one mate is re-sent to the other, anything else
// is surfaced after its single send.
func TestFailoverResendsIffIdempotent(t *testing.T) {
	for _, info := range Ops() {
		t.Run(info.Name, func(t *testing.T) {
			var seenA, seenB atomic.Int32
			fc, err := DialFailover([]string{severing(t, &seenA), severing(t, &seenB)}, "u", "s", failoverTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			if _, err := fc.call(NewEnc(info.Op)); err == nil {
				t.Fatal("severed op reported success")
			}
			a, b := seenA.Load(), seenB.Load()
			if info.Idempotent && (a == 0 || b == 0) {
				t.Errorf("%v is idempotent but was not re-sent across mates (mate A %d, mate B %d)", info.Op, a, b)
			}
			if !info.Idempotent && a+b != 1 {
				t.Errorf("%v is not idempotent but was sent %d times", info.Op, a+b)
			}
		})
	}
}

// TestLoneMateIsABareClient: a stand-alone server is the one-mate case of a
// cluster. Every op meets the same scripted faults through a bare Client
// and through a FailoverClient with a single mate; both must reach the same
// verdict after the same number of sends — what the op table and the fault
// prescribe, nothing added by the routing policy.
func TestLoneMateIsABareClient(t *testing.T) {
	const budget = 150 * time.Millisecond
	reply := func(conn net.Conn, e *Enc) bool { return WriteFrame(conn, e.Bytes()) == nil }
	faults := []struct {
		name   string
		budget time.Duration
		// answer is the mate's whole behaviour for the op under test.
		answer func(conn net.Conn, op Op) bool
		// want is the verdict, and resent whether sends beyond the first
		// follow the op table (idempotent ops only) or the fault (all/none).
		want   verdict
		resent func(OpInfo) bool
	}{
		{"severed mid-op", 0,
			func(net.Conn, Op) bool { return false },
			verdictSevered, func(i OpInfo) bool { return i.Idempotent }},
		{"busy shed", 0,
			func(conn net.Conn, op Op) bool { return reply(conn, NewResp(op, StatusBusy).U8(StateOpen).U32(55)) },
			verdictShed, func(OpInfo) bool { return true }},
		{"wrong-mate redirect", 0,
			func(conn net.Conn, op Op) bool {
				return reply(conn, NewResp(op, StatusWrongMate).Str("").U64(0).U32(0).U32(0))
			},
			verdictMisrouted, func(OpInfo) bool { return false }},
		// A shed that arrives after the budget is spent (but inside the
		// response grace): the re-send is refused before it is sent.
		{"budget spent pre-send", budget,
			func(conn net.Conn, op Op) bool {
				time.Sleep(budget + deadlineGrace/2)
				return reply(conn, NewResp(op, StatusBusy).U8(StateOpen).U32(55))
			},
			verdictExpired, func(OpInfo) bool { return false }},
		// No answer inside budget + grace: the client cuts the round trip.
		{"budget spent post-send", budget,
			func(net.Conn, Op) bool { time.Sleep(budget + 3*deadlineGrace); return false },
			verdictExpired, func(OpInfo) bool { return false }},
	}
	type outcome struct {
		v                 verdict
		ambiguous, remote bool
		sends             int32
	}
	// The faults mostly wait out budgets, so the ops run side by side.
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, info := range Ops() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range faults {
				opts := fastOpts()
				opts.OpBudget = f.budget
				run := func(dial func(addr string) (session, func() error, error)) outcome {
					var sends atomic.Int32
					addr := scriptServer(t, func(conn net.Conn, _ int, payload []byte) bool {
						_, inner, err := SplitBudget(payload)
						if err != nil || Op(inner[0]) != info.Op {
							return false
						}
						sends.Add(1)
						return f.answer(conn, info.Op)
					})
					s, closer, err := dial(addr)
					if err != nil {
						t.Error(err)
						return outcome{}
					}
					defer closer()
					_, err = s.call(NewEnc(info.Op))
					var de *DeadlineError
					errors.As(err, &de)
					return outcome{classify(err), de != nil && de.Ambiguous, de != nil && de.Remote, sends.Load()}
				}
				bare := run(func(addr string) (session, func() error, error) {
					c, err := DialOptions(addr, "u", "s", opts)
					if err != nil {
						return session{}, nil, err
					}
					return c.session, c.Close, nil
				})
				lone := run(func(addr string) (session, func() error, error) {
					fc, err := DialFailover([]string{addr}, "u", "s", FailoverOptions{Client: opts})
					if err != nil {
						return session{}, nil, err
					}
					return fc.session, fc.Close, nil
				})
				want := outcome{v: f.want, ambiguous: f.name == "budget spent post-send", sends: 1}
				if f.resent(info) {
					want.sends += int32(opts.MaxRetries)
				}
				if bare != want || lone != want {
					t.Errorf("%v, %s: bare client %+v, lone-mate failover client %+v, want %+v",
						info.Op, f.name, bare, lone, want)
				}
			}
		}()
	}
}

// TestOnlyHedgeableOpsHedge: with hedged reads on and the primary mate
// slower than the hedge delay, exactly the ops the table marks hedgeable
// launch a second request.
func TestOnlyHedgeableOpsHedge(t *testing.T) {
	// A mate that answers every request with a bare StatusOK (opens with a
	// usable handle), after `delay` once armed.
	mate := func(armed *atomic.Bool, delay time.Duration) string {
		return scriptServer(t, func(conn net.Conn, _ int, payload []byte) bool {
			_, inner, err := SplitBudget(payload)
			if err != nil {
				return false
			}
			if armed.Load() {
				time.Sleep(delay)
			}
			if Op(inner[0]) == OpOpenDB {
				return openOK(conn, inner)
			}
			return WriteFrame(conn, NewResp(Op(inner[0]), StatusOK).Bytes()) == nil
		})
	}
	for _, info := range Ops() {
		t.Run(info.Name, func(t *testing.T) {
			var slow, never atomic.Bool
			opts := failoverTestOpts()
			opts.Client.OpBudget = 2 * time.Second
			opts.HedgeReads = true
			opts.HedgeDelay = 3 * time.Millisecond
			opts.HedgeRateCap = 1.0
			fc, err := DialFailover([]string{mate(&slow, 40*time.Millisecond), mate(&never, 0)}, "u", "s", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			db, err := fc.OpenDB("x.nsf")
			if err != nil {
				t.Fatal(err)
			}
			slow.Store(true)
			if _, err := db.call(db.req(info.Op)); err != nil {
				t.Fatalf("%v: %v", info.Op, err)
			}
			if hedged := fc.Stats().Hedges > 0; hedged != info.Hedgeable {
				t.Errorf("%v: hedge launched = %v, table says hedgeable = %v", info.Op, hedged, info.Hedgeable)
			}
		})
	}
}

// TestOpTableInvariants pins the relations between flags that the
// transports assume.
func TestOpTableInvariants(t *testing.T) {
	for _, info := range Ops() {
		if info.Hedgeable && !info.Idempotent {
			t.Errorf("%v is hedgeable but not idempotent: a hedge IS a second send", info.Op)
		}
		if info.Op.String() != info.Name {
			t.Errorf("%v: String() = %q, want the table name %q", byte(info.Op), info.Op.String(), info.Name)
		}
	}
	if info := OpBudget.Info(); info.Name != "" {
		t.Errorf("the OpBudget envelope has a table row %+v; it is not an op", info)
	}
}
