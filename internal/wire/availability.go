package wire

import (
	"net"
	"time"
)

// AvailabilityInfo is a server's self-reported load snapshot, the Domino
// "server availability index" made concrete: 100 means idle, 0 means
// saturated or draining. Clients use it to pick the least-loaded cluster
// mate; the admission layer attaches it to busy responses so even a shed
// request teaches the client where not to go next.
type AvailabilityInfo struct {
	// State is StateOpen or StateRestricted (quiescing/draining).
	State byte
	// Index is the availability index, 0..100.
	Index int
	// InFlight is the number of requests currently executing.
	InFlight int
	// Queued is the number of requests waiting for an admission slot.
	Queued int
	// Latency is the server's recent per-request latency estimate (EWMA).
	Latency time.Duration
}

// Restricted reports whether the server is refusing new work.
func (a AvailabilityInfo) Restricted() bool { return a.State == StateRestricted }

// DefaultProbeTimeout bounds one-shot pre-auth probes (availability,
// resolve) when the caller passes no explicit timeout. It is deliberately
// much smaller than the default OpTimeout: probes exist to notice stalled
// mates, and a probe that waits 30s on a wedged socket defeats itself.
// Failover clients configure theirs via FailoverOptions.ProbeTimeout.
const DefaultProbeTimeout = 2 * time.Second

// Availability asks the server for its current availability index.
func (s session) Availability() (AvailabilityInfo, error) {
	d, err := s.call(NewEnc(OpAvailability))
	if err != nil {
		return AvailabilityInfo{}, err
	}
	info := AvailabilityInfo{
		State:    d.U8(),
		Index:    int(d.U32()),
		InFlight: int(d.U32()),
		Queued:   int(d.U32()),
	}
	info.Latency = time.Duration(d.U64()) * time.Microsecond
	return info, d.Err()
}

// probe returns a one-shot pre-auth session on addr: its first request
// dials, and with no hello sent only the ops the table marks PreAuth are
// answered. It is the ordinary client with no retries, and dial and
// exchange each bounded by timeout (<= 0 uses DefaultProbeTimeout); the
// caller closes it. A nil dialer dials plain TCP — failover clients pass
// their fault-injection dialer so probes see the same network the session
// does.
func probe(addr string, dialer func(network, addr string) (net.Conn, error), timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultProbeTimeout
	}
	c := newClient(fixedRoute(addr), "", "", Options{DialTimeout: timeout, OpTimeout: timeout, Dialer: dialer})
	c.preAuth = true
	return c
}

// ProbeAvailability performs a one-shot, unauthenticated health probe: it
// dials addr, issues OpAvailability, and closes (see probe).
func ProbeAvailability(addr string, dialer func(network, addr string) (net.Conn, error), timeout time.Duration) (AvailabilityInfo, error) {
	c := probe(addr, dialer, timeout)
	defer c.Close()
	return c.Availability()
}
