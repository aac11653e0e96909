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
	"sync"
)

// MaxFrame bounds a single protocol frame (64 MiB).
const MaxFrame = 64 << 20

// framePool recycles the buffers frames are assembled in, so a frame
// leaves in one Write without an allocation per frame.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// budgetEnvelope is the size of the OpBudget envelope: [OpBudget][u32 ms].
const budgetEnvelope = 5

// WriteFrame writes one length-prefixed frame in a single Write.
func WriteFrame(w io.Writer, payload []byte) error { return writeFrame(w, 0, payload) }

// writeFrame writes one length-prefixed frame in a single Write: the length,
// then — when budgetMs > 0 — the OpBudget envelope [OpBudget][u32
// budget-ms], then payload. The envelope is part of the header, so the
// inner request encoder is not copied or modified.
func writeFrame(w io.Writer, budgetMs uint32, payload []byte) error {
	n := len(payload)
	if budgetMs > 0 {
		n += budgetEnvelope
	}
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	bp := framePool.Get().(*[]byte)
	buf := binary.LittleEndian.AppendUint32((*bp)[:0], uint32(n))
	if budgetMs > 0 {
		buf = binary.LittleEndian.AppendUint32(append(buf, byte(OpBudget)), budgetMs)
	}
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledEnc {
		*bp = buf
	}
	framePool.Put(bp)
	return err
}

// ReadFrame reads one length-prefixed frame. A connection reads through one
// bufio.Reader that lives and dies with it, so a frame costs one read
// syscall when it fits the buffer.
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

// SplitBudget strips an OpBudget envelope from a request payload,
// returning the carried budget (milliseconds) and the inner request.
// Payloads that do not start with OpBudget pass through with budget 0.
func SplitBudget(payload []byte) (budgetMs uint32, inner []byte, err error) {
	if len(payload) == 0 || Op(payload[0]) != OpBudget {
		return 0, payload, nil
	}
	if len(payload) < budgetEnvelope+1 {
		return 0, nil, fmt.Errorf("wire: short budget envelope (%d bytes)", len(payload))
	}
	return binary.LittleEndian.Uint32(payload[1:budgetEnvelope]), payload[budgetEnvelope:], nil
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
