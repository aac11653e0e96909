package wire

import "fmt"

// Op codes. A response echoes the request op with the high bit set.
type Op byte

// Protocol operations. Every op except the OpBudget envelope has exactly one
// row in opTable below; that row, a server handler, and one codec method
// (on RemoteDB or session) are the whole definition of an op.
const (
	OpHello Op = iota + 1
	OpOpenDB
	OpGetNote
	OpCreateNote
	OpUpdateNote
	OpDeleteNote
	OpViewRows
	OpSearch
	OpReplicaID
	OpSummaries
	OpFetch
	OpApply
	OpMailDeposit
	OpDBInfo
	// OpAvailability reports the server's availability index and admission
	// state. It is answered before authentication (it carries only load
	// figures), so failover clients can probe mates cheaply, and it is
	// answered even while the server is draining.
	OpAvailability
	// OpPutBatch stores N documents in one round trip (create-or-update,
	// in order) through a single admission slot, with the server amortizing
	// the WAL force across the batch. The request carries a client session
	// key and a base sequence number; the slim ack carries the server's
	// durable cursor for that session, so a batch re-sent after a reconnect
	// skips the already-applied prefix — exactly-once without per-op acks.
	OpPutBatch
	// OpResolve asks the server where a database lives: the response carries
	// the placement generation and the (mate name, address) home set from the
	// directory. Like OpAvailability it is answered before authentication and
	// while draining — placement is routing metadata, not data — so failover
	// clients can resolve without a session. An empty path lists every
	// placement record.
	OpResolve
	// OpMeshStatus lists the server's replication-mesh links with their
	// live scheduling and transfer counters.
	OpMeshStatus
	// OpMeshAdd adds a mesh link at runtime. The link's selection formula
	// is validated server-side before the link starts.
	OpMeshAdd
	// OpMeshRemove removes a mesh link by name; its replication cursors
	// persist, so re-adding the link resumes incrementally.
	OpMeshRemove
	// OpScan is the NSFSearch-style bulk read: a server-side scan filtered
	// by a selection formula, projecting only the requested items as typed
	// values, returned in paginated batches. Each page carries an opaque
	// resume cursor (the last NoteID delivered, bound to the serving
	// server), so a scan interrupted by a reconnect continues where it
	// stopped instead of restarting. Page size is admission-aware: a loaded
	// server serves smaller pages.
	OpScan
	// OpBudget is not a standalone operation but a request envelope: a
	// client with a deadline wraps any request as
	//
	//	[OpBudget][u32 budget-ms][inner op][inner body...]
	//
	// where budget-ms is the caller's REMAINING time budget in
	// milliseconds at send time. The client shrinks it across retries and
	// failover hops (the deadline is absolute client-side), so a 2s user
	// budget can never silently stretch to 2s x mates x retries. The
	// server strips the envelope, derives a per-op context deadline from
	// it, and answers with the INNER op echoed — the envelope is invisible
	// in responses. A request whose budget cannot survive the admission
	// queue, or that expires mid-execution, earns StatusDeadlineExceeded.
	OpBudget
)

// OpInfo is one op's row in the op table: everything about the op that some
// layer other than its codec and its handler needs to know.
type OpInfo struct {
	Op   Op
	Name string
	// Idempotent: the request may be re-sent after a round trip that died
	// in flight (the first copy may have executed). Client retry and
	// failover re-send both read this; an op that is not idempotent is
	// re-sent only after a response that proves it never ran (shed,
	// redirect, refused).
	Idempotent bool
	// Hedgeable: a failover client with HedgeReads may race the same
	// request against a second mate. Requires Idempotent and a request that
	// means the same thing on every mate.
	Hedgeable bool
	// PreAuth: answered without a session and never queued or shed by
	// admission control.
	PreAuth bool
}

// opTable is the one definition of each op's cross-cutting properties,
// indexed by op code. A non-obvious verdict carries its reason.
var opTable = [...]OpInfo{
	// Hello is never shed so a loaded server can still hand out busy
	// responses; a draining one refuses it in the handler.
	OpHello:  {Name: "Hello", Idempotent: true, PreAuth: true},
	OpOpenDB: {Name: "OpenDB", Idempotent: true},
	// Get, view pages and search pages address documents by UNID, row index
	// and rank — valid on any replica, so a second mate can answer.
	OpGetNote:    {Name: "GetNote", Idempotent: true, Hedgeable: true},
	OpCreateNote: {Name: "CreateNote"}, // a re-sent create stores a second document
	OpUpdateNote: {Name: "UpdateNote"}, // a re-sent update advances the version twice
	// Deleting a stub again leaves it a stub.
	OpDeleteNote: {Name: "DeleteNote", Idempotent: true},
	OpViewRows:   {Name: "ViewRows", Idempotent: true, Hedgeable: true},
	OpSearch:     {Name: "Search", Idempotent: true, Hedgeable: true},
	// The replication reads stay on one mate: a session's summaries, fetches
	// and cutoff time must come from the same replica.
	OpReplicaID: {Name: "ReplicaID", Idempotent: true},
	OpSummaries: {Name: "Summaries", Idempotent: true},
	OpFetch:     {Name: "Fetch", Idempotent: true},
	// Idempotent by the OID rules: a note already present is skipped and
	// conflict documents have deterministic UNIDs.
	OpApply:        {Name: "Apply", Idempotent: true},
	OpMailDeposit:  {Name: "MailDeposit"}, // a re-sent deposit routes twice
	OpDBInfo:       {Name: "DBInfo", Idempotent: true},
	OpAvailability: {Name: "Availability", Idempotent: true, PreAuth: true},
	// Writes, yet safe to re-send: the batch carries a session key and base
	// sequence, and the server's durable cursor for that session makes a
	// replay skip exactly the already-applied prefix.
	OpPutBatch:   {Name: "PutBatch", Idempotent: true},
	OpResolve:    {Name: "Resolve", Idempotent: true, PreAuth: true},
	OpMeshStatus: {Name: "MeshStatus", Idempotent: true},
	// A re-sent add whose first response was lost answers "duplicate link",
	// a re-sent remove "no such link": the caller would see a failure for an
	// operation that succeeded, so neither is re-sent.
	OpMeshAdd:    {Name: "MeshAdd"},
	OpMeshRemove: {Name: "MeshRemove"},
	// Not hedgeable: the cursor is bound to the server that minted it.
	OpScan: {Name: "Scan", Idempotent: true},
}

// Info returns op's table row; an op the protocol does not define (and the
// OpBudget envelope) yields a row with an empty Name and every flag false.
func (op Op) Info() OpInfo {
	if int(op) >= len(opTable) {
		return OpInfo{Op: op}
	}
	info := opTable[op]
	info.Op = op
	return info
}

// String is the op's table name, the label for logs and errors.
func (op Op) String() string {
	if name := op.Info().Name; name != "" {
		return name
	}
	return fmt.Sprintf("Op(%#x)", byte(op))
}

// Ops lists every op the protocol defines, in code order.
func Ops() []OpInfo {
	var out []OpInfo
	for i := range opTable {
		if info := Op(i).Info(); info.Name != "" {
			out = append(out, info)
		}
	}
	return out
}
