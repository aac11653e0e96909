package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
)

// ServerError is an application-level failure reported by the server in a
// well-formed response (bad handle, access denied, unknown path, failed
// authentication). The connection that carried it is still healthy, and
// retrying the same request would fail the same way, so ServerErrors are
// never retried.
type ServerError struct {
	Op  Op
	Msg string
}

func (e *ServerError) Error() string { return "wire: server: " + e.Msg }

// BusyError is an admission-control shed (StatusBusy): the server refused
// the request before executing it. Unlike a transport fault, the request
// definitely did NOT run, so re-sending is safe even for non-idempotent
// operations. The carried state and availability index let a failover
// client pick a better cluster mate instead of hammering a loaded one.
type BusyError struct {
	Op Op
	// State is StateOpen (overloaded but serving) or StateRestricted
	// (quiescing/draining — the server wants clients to leave).
	State byte
	// Availability is the server's availability index, 0 (saturated or
	// draining) to 100 (idle).
	Availability int
}

func (e *BusyError) Error() string {
	kind := "busy"
	if e.State == StateRestricted {
		kind = "restricted"
	}
	return fmt.Sprintf("wire: server %s (availability %d)", kind, e.Availability)
}

// ErrServerBusy matches any BusyError via errors.Is.
var ErrServerBusy = errors.New("wire: server busy")

// Is lets errors.Is(err, ErrServerBusy) match shed responses.
func (e *BusyError) Is(target error) bool { return target == ErrServerBusy }

// HomeAddr is one entry of a resolved placement: a cluster-mate name and the
// wire address it serves on (empty if the resolving server does not know it).
type HomeAddr struct {
	Name string
	Addr string
}

// WrongMateError is a placement redirect (StatusWrongMate): the contacted
// mate does not home the database, and the request was NOT executed. The
// error carries the placement generation and home set the server knows, so a
// failover client can refresh its cache and re-route; like a busy shed,
// re-sending is safe even for non-idempotent operations. A bare Client does
// not retry these — its one address would only redirect again.
type WrongMateError struct {
	Op   Op
	Path string
	// Generation is the placement generation at the redirecting server.
	Generation uint64
	// Homes is the home set: the mates that do serve the database.
	Homes []HomeAddr
}

func (e *WrongMateError) Error() string {
	return fmt.Sprintf("wire: wrong mate for %s (placement generation %d, %d homes)",
		e.Path, e.Generation, len(e.Homes))
}

// ErrWrongMate matches any WrongMateError via errors.Is.
var ErrWrongMate = errors.New("wire: wrong mate")

// Is lets errors.Is(err, ErrWrongMate) match placement redirects.
func (e *WrongMateError) Is(target error) bool { return target == ErrWrongMate }

// DeadlineError is a deadline-budget expiry (client- or server-side). The
// Ambiguous flag is the whole point: an op whose budget expired BEFORE it
// was sent (or that the server refused pre-execution) provably never ran,
// but one cancelled mid-round-trip or mid-execution may have partially —
// or, with only the response lost, fully — taken effect. Clients must
// therefore never blindly re-send a non-idempotent op after an ambiguous
// expiry; this is the opposite of a BusyError, which is always safe to
// re-send. Deadline errors are never auto-retried at all: the budget that
// expired is the same budget a retry would run under.
type DeadlineError struct {
	Op Op
	// Ambiguous reports that the op may have (partially) executed.
	Ambiguous bool
	// Remote reports that the server diagnosed the expiry (vs the client
	// exhausting the budget before or during the round trip).
	Remote bool
}

func (e *DeadlineError) Error() string {
	where := "client"
	if e.Remote {
		where = "server"
	}
	kind := "before execution (not executed)"
	if e.Ambiguous {
		kind = "mid-operation (may have executed)"
	}
	return fmt.Sprintf("wire: deadline exceeded at %s %s", where, kind)
}

// ErrDeadline matches any DeadlineError via errors.Is.
var ErrDeadline = errors.New("wire: deadline exceeded")

// Is lets errors.Is(err, ErrDeadline) match budget expiries.
func (e *DeadlineError) Is(target error) bool { return target == ErrDeadline }

// ErrAbandoned is returned by an operation severed out-of-band with
// Client.CancelInflight: a hedged read won on another mate and nobody is
// waiting for this one anymore. The mate is not at fault and the result —
// had it arrived — would have been discarded, so the error is never
// retried and never counts against a mate's breaker.
var ErrAbandoned = errors.New("wire: operation abandoned (hedge won elsewhere)")

// ErrClosed is returned by operations on a client after Close.
var ErrClosed = errors.New("wire: client closed")

// protoError marks a framing/envelope violation (response op mismatch,
// short envelope): the byte stream is out of sync and the connection must
// be abandoned, but a fresh connection may well succeed.
type protoError struct{ msg string }

func (e *protoError) Error() string { return "wire: protocol: " + e.msg }

func protoErrorf(format string, args ...any) error {
	return &protoError{msg: fmt.Sprintf(format, args...)}
}

// verdict is what a failed round trip proves about the request — the one
// classification the attempt loop (Client.do), its routing policies and
// Retryable act on.
type verdict int

const (
	// verdictFatal: a server-reported application error, a closed client,
	// or anything unrecognized. Re-sending would fail the same way.
	verdictFatal verdict = iota
	// verdictAbandoned: severed by CancelInflight; nobody wants the result
	// and the server did nothing wrong.
	verdictAbandoned
	// verdictExpired: the budget ran out (DeadlineError). Never re-sent
	// automatically — a retry would run on the same spent budget, and an
	// ambiguous expiry must reach the caller.
	verdictExpired
	// verdictShed: refused by admission control, provably not executed; any
	// op may be re-sent, here after backoff or on another mate.
	verdictShed
	// verdictMisrouted: a placement redirect, provably not executed; only a
	// client that can change mates makes progress.
	verdictMisrouted
	// verdictSevered: a transport or framing fault mid-exchange (timeout,
	// reset, EOF mid-frame, refused dial, protocol desync). The request may
	// have executed, so only idempotent ops are re-sent.
	verdictSevered
)

// classify maps an error from a round trip to its verdict (nil, which no
// caller should ask about, is not retryable either).
func classify(err error) verdict {
	var (
		se  *ServerError
		wme *WrongMateError
		be  *BusyError
		de  *DeadlineError
		pe  *protoError
		ne  net.Error
	)
	switch {
	case err == nil || errors.As(err, &se):
		return verdictFatal
	case errors.Is(err, ErrAbandoned):
		return verdictAbandoned
	case errors.As(err, &de):
		return verdictExpired
	case errors.As(err, &wme):
		return verdictMisrouted
	case errors.As(err, &be):
		return verdictShed
	case errors.As(err, &pe),
		errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, net.ErrClosed),
		// net.Error covers *net.OpError (resets, refusals, injected
		// faultnet faults) and deadline expiries.
		errors.As(err, &ne),
		errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE),
		errors.Is(err, syscall.ECONNREFUSED), errors.Is(err, syscall.ECONNABORTED):
		return verdictSevered
	}
	return verdictFatal
}

// Retryable classifies an error from a wire operation: true where a re-sent
// request can succeed — a shed (after backoff, or on another mate) or a
// transport fault (on a fresh connection) — false for server-reported
// application errors, placement redirects (the same connection would
// redirect again), budget expiries, and everything unrecognized.
func Retryable(err error) bool {
	v := classify(err)
	return v == verdictShed || v == verdictSevered
}
