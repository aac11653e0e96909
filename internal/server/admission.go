package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Admission control and the server availability index.
//
// Domino computes a per-server "availability index" from the expansion of
// response times under load and uses it two ways: clients in a cluster
// open sessions on the mate with the highest index, and a server below its
// floor sheds work with "server busy" so the client redirects. We
// reproduce both: a bounded pool of in-flight requests (waiters queue
// briefly, then are shed with StatusBusy carrying the index), a live index
// computed from in-flight occupancy, queue depth, and a latency EWMA, and
// a RESTRICTED drain state (Quiesce) that refuses new work while letting
// in-flight requests finish and cluster pushers flush.

// LogHealth is the log kind for admission/availability events.
const LogHealth = "health"

// targetLatency anchors the availability index's latency term: a
// dispatch-latency EWMA at or below it costs nothing, ten times it saturates
// the term.
const targetLatency = 25 * time.Millisecond

// admissionState is the server's live load picture. All counters are
// atomic: the hot path (admit/release around every dispatched request)
// never takes a lock.
type admissionState struct {
	// sem bounds in-flight requests; nil means admission is disabled.
	sem       chan struct{}
	maxActive int
	admitWait time.Duration

	inflight atomic.Int64
	queued   atomic.Int64
	sheds    atomic.Uint64
	panics   atomic.Uint64
	// ewmaUs is the per-request dispatch latency EWMA in microseconds.
	ewmaUs atomic.Uint64
	// dispatched counts requests that entered execution (admitted past
	// admission control); with deadline budgets in play, dispatched minus
	// client-acknowledged results is the server's wasted work.
	dispatched atomic.Uint64
	// deadlineSheds counts requests refused BEFORE execution because their
	// carried budget could not survive the queue (DeadlineRefused);
	// deadlineAborts counts ops cancelled mid-execution (DeadlineAborted).
	deadlineSheds  atomic.Uint64
	deadlineAborts atomic.Uint64
}

// admit verdicts.
type admitVerdict int

const (
	// admitOK: an execution slot is held; the caller must release it.
	admitOK admitVerdict = iota
	// admitShed: pool full past the admit wait — classic StatusBusy.
	admitShed
	// admitDeadline: the request's own deadline budget cannot survive the
	// queue; it was refused before executing (DeadlineRefused). Shedding
	// it immediately beats queueing it to die.
	admitDeadline
)

func (a *admissionState) init(opts Options) {
	a.maxActive = opts.MaxInFlight
	a.admitWait = opts.AdmitWait
	if a.maxActive > 0 {
		a.sem = make(chan struct{}, a.maxActive)
	}
}

// admit claims an execution slot, waiting up to admitWait when the pool is
// full. budget is the request's remaining deadline budget (0: none): a
// request that could not survive the expected queue wait is refused
// immediately (admitDeadline) instead of queued to die, and a budgeted
// request never waits past its own budget.
func (a *admissionState) admit(budget time.Duration) admitVerdict {
	if a.sem == nil {
		a.inflight.Add(1)
		return admitOK
	}
	select {
	case a.sem <- struct{}{}:
		a.inflight.Add(1)
		return admitOK
	default:
	}
	if a.admitWait <= 0 {
		a.sheds.Add(1)
		return admitShed
	}
	wait := a.admitWait
	if budget > 0 {
		if budget < a.queueEstimate() {
			a.deadlineSheds.Add(1)
			return admitDeadline
		}
		if budget < wait {
			wait = budget
		}
	}
	a.queued.Add(1)
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case a.sem <- struct{}{}:
		a.queued.Add(-1)
		a.inflight.Add(1)
		return admitOK
	case <-t.C:
		a.queued.Add(-1)
		if wait < a.admitWait {
			// The budget-capped timer fired: the request's remaining time
			// is spent, which is a deadline refusal, not a load shed.
			a.deadlineSheds.Add(1)
			return admitDeadline
		}
		a.sheds.Add(1)
		return admitShed
	}
}

// queueEstimate guesses how long a newly queued request waits for a slot:
// the latency EWMA scaled up by queue depth, floored at a quarter of the
// admit wait (an optimistic server still should not promise instant slots
// when its pool is full) and capped at the admit wait itself (past that
// the request would be shed anyway).
func (a *admissionState) queueEstimate() time.Duration {
	est := time.Duration(a.ewmaUs.Load()) * time.Microsecond
	if a.maxActive > 0 {
		est = est * time.Duration(a.queued.Load()+int64(a.maxActive)) / time.Duration(a.maxActive)
	}
	if floor := a.admitWait / 4; est < floor {
		est = floor
	}
	if est > a.admitWait {
		est = a.admitWait
	}
	return est
}

// release returns the slot and folds the request's dispatch time into the
// latency EWMA (new = 7/8 old + 1/8 sample).
func (a *admissionState) release(elapsed time.Duration) {
	a.inflight.Add(-1)
	if a.sem != nil {
		<-a.sem
	}
	us := uint64(elapsed.Microseconds())
	for {
		old := a.ewmaUs.Load()
		nu := us
		if old != 0 {
			nu = (old*7 + us) / 8
		}
		if a.ewmaUs.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Health is a snapshot of the server's availability state.
type Health struct {
	// State is wire.StateOpen or wire.StateRestricted.
	State byte
	// Index is the availability index, 0 (saturated/draining) .. 100 (idle).
	Index int
	// InFlight and Queued are current request counts.
	InFlight int
	Queued   int
	// Latency is the dispatch-latency EWMA.
	Latency time.Duration
	// Sheds counts requests refused by admission control.
	Sheds uint64
	// Panics counts handler panics recovered (each closed one connection).
	Panics uint64
	// Dispatched counts requests that entered execution. With budgets in
	// play, Dispatched minus client-acked results is wasted work.
	Dispatched uint64
	// DeadlineSheds counts budget-carrying requests refused before
	// execution; DeadlineAborts counts ops cancelled mid-execution.
	DeadlineSheds  uint64
	DeadlineAborts uint64
}

// Health returns the server's current availability snapshot.
func (s *Server) Health() Health {
	a := &s.admission
	h := Health{
		State:          wire.StateOpen,
		Index:          s.AvailabilityIndex(),
		InFlight:       int(a.inflight.Load()),
		Queued:         int(a.queued.Load()),
		Latency:        time.Duration(a.ewmaUs.Load()) * time.Microsecond,
		Sheds:          a.sheds.Load(),
		Panics:         a.panics.Load(),
		Dispatched:     a.dispatched.Load(),
		DeadlineSheds:  a.deadlineSheds.Load(),
		DeadlineAborts: a.deadlineAborts.Load(),
	}
	if s.draining.Load() {
		h.State = wire.StateRestricted
	}
	return h
}

// AvailabilityIndex computes the Domino-style server availability index:
// 100 for an idle server, falling toward 0 as the in-flight pool fills,
// the admission queue grows, and per-request latency expands past the
// configured target. A draining server always reports 0 — the strongest
// possible "go elsewhere" signal.
func (s *Server) AvailabilityIndex() int {
	if s.draining.Load() {
		return 0
	}
	a := &s.admission
	var loadFrac, queueFrac float64
	if a.maxActive > 0 {
		loadFrac = float64(a.inflight.Load()) / float64(a.maxActive)
		queueFrac = float64(a.queued.Load()) / float64(a.maxActive)
	}
	// Latency expansion factor relative to the target: at or below target
	// contributes nothing; 10x the target saturates the term.
	var latFrac float64
	if ewma := time.Duration(a.ewmaUs.Load()) * time.Microsecond; ewma > targetLatency {
		latFrac = float64(ewma-targetLatency) / float64(9*targetLatency)
	}
	penalty := 0.45*clamp01(loadFrac) + 0.25*clamp01(queueFrac) + 0.30*clamp01(latFrac)
	return int(100*(1-clamp01(penalty)) + 0.5)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// busyResp builds the shed response for op: StatusBusy plus the state and
// availability index, so the client's next move is informed.
func (s *Server) busyResp(op wire.Op) *wire.Enc {
	state := byte(wire.StateOpen)
	if s.draining.Load() {
		state = wire.StateRestricted
	}
	return wire.NewResp(op, wire.StatusBusy).U8(state).U32(uint32(s.AvailabilityIndex()))
}

// availability answers an OpAvailability probe.
func (c *connState) availability(context.Context, *wire.Dec) (*wire.Enc, error) {
	h := c.s.Health()
	return wire.NewResp(wire.OpAvailability, wire.StatusOK).
		U8(h.State).
		U32(uint32(h.Index)).
		U32(uint32(h.InFlight)).
		U32(uint32(h.Queued)).
		U64(uint64(h.Latency / time.Microsecond)), nil
}

// Quiesce puts the server in RESTRICTED drain mode: new sessions are
// refused, new requests on existing sessions are shed with a RESTRICTED
// busy response (driving failover clients to a mate), availability probes
// answer with index 0, and the call waits — up to timeout — for in-flight
// requests to finish and cluster pushers to flush their queues. The
// listener stays up so probes keep answering; call Close afterwards to
// shut down, or Resume to return to service.
func (s *Server) Quiesce(timeout time.Duration) error {
	if s.draining.CompareAndSwap(false, true) {
		s.logf(LogHealth, "quiesce: entering RESTRICTED drain mode")
	}
	deadline := time.Now().Add(timeout)
	for {
		inflight := s.admission.inflight.Load()
		flushed := s.clusterFlushed()
		if inflight == 0 && flushed {
			s.logf(LogHealth, "quiesce: drained (in-flight 0, cluster flushed)")
			return nil
		}
		if time.Now().After(deadline) {
			err := fmt.Errorf("server: quiesce timed out (in-flight %d, cluster flushed %v)", inflight, flushed)
			s.logf(LogHealth, "quiesce: %v", err)
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Resume leaves drain mode and accepts work again.
func (s *Server) Resume() {
	if s.draining.CompareAndSwap(true, false) {
		s.logf(LogHealth, "resume: accepting work again")
	}
}

// Draining reports whether the server is in RESTRICTED drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }
