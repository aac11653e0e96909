// Package wire implements the client/server and server/server protocol: a
// length-prefixed binary RPC over TCP carrying note CRUD, view reads,
// full-text queries, mail deposit, and the replication operations
// (summaries, fetch, apply). It plays the role of Notes RPC (NRPC) without
// claiming protocol compatibility.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame bounds a single protocol frame (64 MiB).
const MaxFrame = 64 << 20

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteBudgetFrame writes payload wrapped in an OpBudget envelope: one
// frame whose body is [OpBudget][u32 budget-ms][payload]. The envelope is
// prepended in the frame header write, so the inner request encoder is
// not copied or modified.
func WriteBudgetFrame(w io.Writer, budgetMs uint32, payload []byte) error {
	total := len(payload) + 5
	if total > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", total)
	}
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(total))
	hdr[4] = byte(OpBudget)
	binary.LittleEndian.PutUint32(hdr[5:9], budgetMs)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// SplitBudget strips an OpBudget envelope from a request payload,
// returning the carried budget (milliseconds) and the inner request.
// Payloads that do not start with OpBudget pass through with budget 0.
func SplitBudget(payload []byte) (budgetMs uint32, inner []byte, err error) {
	if len(payload) == 0 || Op(payload[0]) != OpBudget {
		return 0, payload, nil
	}
	if len(payload) < 6 {
		return 0, nil, fmt.Errorf("wire: short budget envelope (%d bytes)", len(payload))
	}
	return binary.LittleEndian.Uint32(payload[1:5]), payload[5:], nil
}

// respBit marks response frames.
const respBit = 0x80

// Status codes in responses.
const (
	StatusOK byte = iota
	StatusError
	// StatusBusy is an admission-control shed: the server refused to
	// execute the request (it never ran), and the response body carries
	// the server state and availability index so the client can redirect
	// to a less-loaded cluster mate.
	StatusBusy
	// StatusWrongMate is a placement redirect: this mate does not home the
	// requested database, and the request was not executed. The response
	// body carries the current placement generation and home set (same
	// encoding as OpResolve) so the client can re-route without an extra
	// round trip.
	StatusWrongMate
	// StatusDeadlineExceeded: the request's carried budget (OpBudget
	// envelope) ran out server-side. The one-byte body says at which
	// stage: DeadlineRefused means the server saw the budget could not
	// survive the admission queue (or was already spent on arrival) and
	// refused before executing anything — provably-never-ran, like a busy
	// shed; DeadlineAborted means the op was cancelled mid-execution and
	// may have partially taken effect. The distinction matters for retry
	// safety: an aborted write is AMBIGUOUS and must not be blindly
	// re-sent, while a refused one merely has no time left.
	StatusDeadlineExceeded
)

// Stages carried in a StatusDeadlineExceeded response body.
const (
	// DeadlineRefused: the budget expired (or could not survive the
	// admission queue) before the server executed anything.
	DeadlineRefused byte = 0
	// DeadlineAborted: the op was cancelled mid-execution; it may have
	// partially or — if only the response was lost — fully taken effect.
	DeadlineAborted byte = 1
)

// Server admission states carried in availability and busy responses.
const (
	// StateOpen: the server is accepting work normally.
	StateOpen byte = iota
	// StateRestricted: the server is quiescing/draining — it answers
	// probes but refuses new sessions and new requests.
	StateRestricted
)
