// Package faultnet injects deterministic network faults — connection
// drops, I/O delays, byte truncation, and mid-stream severs — into
// net.Conn traffic. It exists to prove the replication stack's claim of
// restartability over flaky links: tests (and dominod via its fault
// directive) wrap dialers and listeners in a seeded Net and assert that
// sessions severed at arbitrary byte offsets still converge on retry.
//
// Determinism: every connection draws its fault schedule from a
// per-connection PRNG seeded by (plan seed, connection ordinal), so a
// given seed reproduces the same fault sequence per connection
// regardless of goroutine interleaving across connections.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error returned by reads and writes that a Net
// decided to fail. It unwraps from the *net.OpError the fault surfaces
// as, so callers can both treat it as a generic network error and test
// for injection explicitly.
var ErrInjected = errors.New("faultnet: injected fault")

// Plan parameterizes the fault schedule. Probabilities are per event:
// DropProb per connection attempt, the others per Read/Write call.
type Plan struct {
	// Seed makes the schedule reproducible.
	Seed int64
	// DropProb is the probability a new connection is refused outright.
	DropProb float64
	// SeverProb is the per-I/O probability of killing the connection
	// before the operation runs (both directions see it die).
	SeverProb float64
	// TruncProb is the per-write probability of transmitting only a
	// prefix of the buffer and then severing — the classic dropped-WAN
	// mid-frame failure.
	TruncProb float64
	// DelayProb is the per-I/O probability of sleeping up to MaxDelay
	// before the operation.
	DelayProb float64
	// MaxDelay bounds injected delays (default 10ms when DelayProb > 0).
	MaxDelay time.Duration
	// SeverAfterBytes, when > 0, severs each connection once its
	// combined read+write volume exceeds this many bytes. It guarantees
	// a mid-transfer failure regardless of the probabilistic knobs.
	SeverAfterBytes int64
	// Latency, when > 0, injects a fixed propagation delay before each
	// write burst, emulating link RTT deterministically (unlike DelayProb,
	// which is probabilistic jitter). Writes less than 1ms apart count as
	// one burst and pay the latency once — a frame written as a header
	// write plus a payload write is still one packet on the emulated link.
	// Applying it on both directions of a connection pair yields
	// RTT = 2 x Latency for a request/response exchange.
	Latency time.Duration
	// StallProb is the per-I/O probability the connection stalls: the
	// operation — and every later one on the same connection — hangs
	// without moving a byte until the connection's deadline expires
	// (returning a Timeout() net.Error, like a real unanswered socket) or
	// the connection is closed. Unlike a sever, the peer looks alive at
	// the TCP layer; this is the failure mode that deadline budgets and
	// hedged reads exist for, where a plain retry loop just hangs.
	StallProb float64
	// SlowPeer, when > 0, sleeps this long before every read and write —
	// an overloaded-but-alive peer that answers everything, late. A
	// deadline set on the connection still fires during the sleep.
	SlowPeer time.Duration
}

// ParsePlan parses a comma-separated spec like
// "seed=7,drop=0.1,sever=0.02,trunc=0.01,delay=0.2,maxdelay=20ms,afterbytes=4096".
// Unknown keys are errors; omitted keys keep their zero values.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return p, fmt.Errorf("faultnet: bad field %q (want key=value)", field)
		}
		var err error
		switch strings.ToLower(strings.TrimSpace(k)) {
		case "seed":
			p.Seed, err = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		case "drop":
			p.DropProb, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
		case "sever":
			p.SeverProb, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
		case "trunc":
			p.TruncProb, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
		case "delay":
			p.DelayProb, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
		case "maxdelay":
			p.MaxDelay, err = time.ParseDuration(strings.TrimSpace(v))
		case "afterbytes":
			p.SeverAfterBytes, err = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		case "latency":
			p.Latency, err = time.ParseDuration(strings.TrimSpace(v))
		case "stall":
			p.StallProb, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
		case "slowpeer":
			p.SlowPeer, err = time.ParseDuration(strings.TrimSpace(v))
		default:
			return p, fmt.Errorf("faultnet: unknown field %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("faultnet: field %q: %w", field, err)
		}
	}
	return p, nil
}

// Stats counts injected faults, for test assertions that the schedule
// actually fired.
type Stats struct {
	Drops     int64 // connections refused at establishment
	Severs    int64 // connections killed mid-stream
	Truncs    int64 // writes cut short then severed
	Delays    int64 // delays injected
	Latencies int64 // fixed per-burst latency sleeps injected
	Stalls    int64 // I/O calls hung by a stalled connection
	SlowIOs   int64 // I/O calls slowed by the SlowPeer knob
	Conns     int64 // connections wrapped
	IOBytes   int64 // bytes successfully transferred through wrapped conns
	Disabled  bool  // whether injection is currently off
}

// Net applies one Plan to any number of connections. The zero value is
// unusable; construct with New.
type Net struct {
	plan    Plan
	mu      sync.Mutex
	rng     *rand.Rand // connection-establishment decisions only
	ordinal int64
	off     atomic.Bool

	drops     atomic.Int64
	severs    atomic.Int64
	truncs    atomic.Int64
	delays    atomic.Int64
	latencies atomic.Int64
	stalls    atomic.Int64
	slowIOs   atomic.Int64
	conns     atomic.Int64
	bytes     atomic.Int64
}

// New builds a Net from a plan.
func New(plan Plan) *Net {
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = 10 * time.Millisecond
	}
	return &Net{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Disable turns off all injection (existing and future connections pass
// traffic through untouched). Tests use it to let a final, clean
// replication pass certify convergence after a faulty run.
func (f *Net) Disable() { f.off.Store(true) }

// Enable re-arms injection after Disable.
func (f *Net) Enable() { f.off.Store(false) }

// Stats returns a snapshot of the fault counters.
func (f *Net) Stats() Stats {
	return Stats{
		Drops:     f.drops.Load(),
		Severs:    f.severs.Load(),
		Truncs:    f.truncs.Load(),
		Delays:    f.delays.Load(),
		Latencies: f.latencies.Load(),
		Stalls:    f.stalls.Load(),
		SlowIOs:   f.slowIOs.Load(),
		Conns:     f.conns.Load(),
		IOBytes:   f.bytes.Load(),
		Disabled:  f.off.Load(),
	}
}

// injectedErr wraps ErrInjected in a *net.OpError so generic network
// error handling (and retry classification) treats it like any broken
// connection.
func injectedErr(op string) error {
	return &net.OpError{Op: op, Net: "faultnet", Err: ErrInjected}
}

// Dial establishes a connection through the fault plan.
func (f *Net) Dial(network, addr string) (net.Conn, error) {
	f.mu.Lock()
	drop := !f.off.Load() && f.rng.Float64() < f.plan.DropProb
	f.mu.Unlock()
	if drop {
		f.drops.Add(1)
		return nil, injectedErr("dial")
	}
	c, err := net.DialTimeout(network, addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return f.Wrap(c), nil
}

// Wrap subjects an existing connection to the fault plan.
func (f *Net) Wrap(c net.Conn) net.Conn {
	f.conns.Add(1)
	f.mu.Lock()
	ord := f.ordinal
	f.ordinal++
	f.mu.Unlock()
	// Independent per-connection stream: deterministic per (seed, ordinal)
	// even when connections interleave.
	seed := f.plan.Seed*1_000_003 + ord
	return &conn{
		Conn:    c,
		net:     f,
		rng:     rand.New(rand.NewSource(seed)),
		closeCh: make(chan struct{}),
	}
}

// Listener wraps a listener so accepted connections pass through the
// fault plan. Connection drops apply at accept time.
func (f *Net) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, net: f}
}

type listener struct {
	net.Listener
	net *Net
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.net.mu.Lock()
		drop := !l.net.off.Load() && l.net.rng.Float64() < l.net.plan.DropProb
		l.net.mu.Unlock()
		if drop {
			l.net.drops.Add(1)
			c.Close()
			continue // drop this client, keep listening
		}
		return l.net.Wrap(c), nil
	}
}

// conn is a net.Conn under a fault schedule. The rng is guarded by mu:
// a Client may read and write concurrently, and determinism within one
// connection only requires a consistent draw order for the scheduler's
// serialized request/response pattern.
type conn struct {
	net.Conn
	net *Net

	mu      sync.Mutex
	rng     *rand.Rand
	moved   int64
	severed bool
	stalled bool
	// readDL/writeDL mirror the deadlines set on the connection, so a
	// stalled or slowed operation knows when to give up with a timeout
	// (the underlying socket's deadline cannot interrupt our sleep).
	readDL, writeDL time.Time
	// lastWrite is when the previous Write ran, for latency burst
	// coalescing (guarded by mu).
	lastWrite time.Time

	closeOnce sync.Once
	closeCh   chan struct{}
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closeCh) })
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL, c.writeDL = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDL = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *conn) deadline(isWrite bool) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if isWrite {
		return c.writeDL
	}
	return c.readDL
}

// stallError is what a stalled (or deadline-interrupted slow) operation
// returns once the connection's deadline passes. Timeout() is true, like
// a real socket whose peer accepted the bytes but never answered.
type stallError struct{}

func (stallError) Error() string   { return "faultnet: stalled i/o timeout" }
func (stallError) Timeout() bool   { return true }
func (stallError) Temporary() bool { return true }

func stallTimeoutErr(op string) error {
	return &net.OpError{Op: op, Net: "faultnet", Err: stallError{}}
}

// stall hangs the calling operation until the connection's deadline
// passes (timeout error) or the connection is closed (injected error),
// polling the mirrored deadline in short steps so a deadline set after
// the stall began is still honored promptly.
func (c *conn) stall(isWrite bool) error {
	c.net.stalls.Add(1)
	op := "read"
	if isWrite {
		op = "write"
	}
	for {
		wait := 25 * time.Millisecond
		if dl := c.deadline(isWrite); !dl.IsZero() {
			rem := time.Until(dl)
			if rem <= 0 {
				return stallTimeoutErr(op)
			}
			if rem < wait {
				wait = rem
			}
		}
		t := time.NewTimer(wait)
		select {
		case <-c.closeCh:
			t.Stop()
			return injectedErr(op)
		case <-t.C:
		}
	}
}

// slow applies the SlowPeer delay to one operation. If the connection's
// deadline lands inside the delay, the sleep stops there and the
// operation times out — a slow peer cannot suspend the caller's clock.
func (c *conn) slow(isWrite bool) error {
	d := c.net.plan.SlowPeer
	if d <= 0 || c.net.off.Load() {
		return nil
	}
	c.net.slowIOs.Add(1)
	timedOut := false
	if dl := c.deadline(isWrite); !dl.IsZero() {
		if rem := time.Until(dl); rem < d {
			d, timedOut = rem, true
		}
	}
	if d > 0 {
		t := time.NewTimer(d)
		select {
		case <-c.closeCh:
			t.Stop()
			op := "read"
			if isWrite {
				op = "write"
			}
			return injectedErr(op)
		case <-t.C:
		}
	}
	if timedOut {
		op := "read"
		if isWrite {
			op = "write"
		}
		return stallTimeoutErr(op)
	}
	return nil
}

// decide draws the fate of one I/O operation: a delay to apply first,
// whether to sever, and whether to stall (sticky: once a connection
// stalls, every later operation stalls too). truncAt >= 0 additionally
// truncates a write of size n to truncAt bytes before severing.
func (c *conn) decide(n int, isWrite bool) (delay time.Duration, sever, stall bool, truncAt int) {
	truncAt = -1
	if c.net.off.Load() {
		return 0, false, false, -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.severed {
		return 0, true, false, -1
	}
	if c.stalled {
		return 0, false, true, -1
	}
	p := &c.net.plan
	if p.DelayProb > 0 && c.rng.Float64() < p.DelayProb {
		delay = time.Duration(c.rng.Int63n(int64(p.MaxDelay) + 1))
	}
	if p.SeverAfterBytes > 0 && c.moved >= p.SeverAfterBytes {
		c.severed = true
		return delay, true, false, -1
	}
	if c.rng.Float64() < p.SeverProb {
		c.severed = true
		return delay, true, false, -1
	}
	if p.StallProb > 0 && c.rng.Float64() < p.StallProb {
		c.stalled = true
		return delay, false, true, -1
	}
	if isWrite && n > 1 && c.rng.Float64() < p.TruncProb {
		c.severed = true
		return delay, true, false, c.rng.Intn(n-1) + 1 // at least 1, at most n-1 bytes
	}
	return delay, false, false, -1
}

func (c *conn) Read(b []byte) (int, error) {
	if err := c.slow(false); err != nil {
		return 0, err
	}
	delay, sever, stall, _ := c.decide(len(b), false)
	if delay > 0 {
		c.net.delays.Add(1)
		time.Sleep(delay)
	}
	if sever {
		c.net.severs.Add(1)
		c.Conn.Close()
		return 0, injectedErr("read")
	}
	if stall {
		return 0, c.stall(false)
	}
	n, err := c.Conn.Read(b)
	c.account(n)
	return n, err
}

// latencyBurstGap is the inter-write gap above which a write starts a new
// burst and pays the plan's fixed Latency. Writes closer together than
// this — e.g. a frame's header write immediately followed by its payload
// write — ride the same emulated packet.
const latencyBurstGap = time.Millisecond

func (c *conn) Write(b []byte) (int, error) {
	if lat := c.net.plan.Latency; lat > 0 && !c.net.off.Load() {
		now := time.Now()
		c.mu.Lock()
		newBurst := c.lastWrite.IsZero() || now.Sub(c.lastWrite) > latencyBurstGap
		c.mu.Unlock()
		if newBurst {
			c.net.latencies.Add(1)
			time.Sleep(lat)
		}
		defer func() {
			c.mu.Lock()
			c.lastWrite = time.Now()
			c.mu.Unlock()
		}()
	}
	if err := c.slow(true); err != nil {
		return 0, err
	}
	delay, sever, stall, truncAt := c.decide(len(b), true)
	if delay > 0 {
		c.net.delays.Add(1)
		time.Sleep(delay)
	}
	if sever && truncAt < 0 {
		c.net.severs.Add(1)
		c.Conn.Close()
		return 0, injectedErr("write")
	}
	if stall {
		return 0, c.stall(true)
	}
	if truncAt >= 0 {
		c.net.truncs.Add(1)
		n, _ := c.Conn.Write(b[:truncAt])
		c.account(n)
		c.Conn.Close()
		return n, injectedErr("write")
	}
	n, err := c.Conn.Write(b)
	c.account(n)
	return n, err
}

func (c *conn) account(n int) {
	if n <= 0 {
		return
	}
	c.net.bytes.Add(int64(n))
	c.mu.Lock()
	c.moved += int64(n)
	c.mu.Unlock()
}
