package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/retry"
	"repro/internal/store"
)

// ProtocolVersion is negotiated in the hello exchange: the client sends it
// and the server refuses any other, so an older peer is refused rather than
// misparsed. Version 2 made view/search reads paginated bulk ops (and added
// OpScan); version 3 made OpSummaries cursors (incarnation, USN) pairs.
const ProtocolVersion = 3

// transport carries an encoded request to a server and brings the response
// body back. The codecs (RemoteDB for database ops, session for server ops)
// are written once against it. *Client is the one attempt loop; a
// *FailoverClient puts hedged reads in front of its Client's loop and is
// otherwise a routing policy that loop consults (see route). Whether a
// request may be re-sent comes from the op table, never from the caller.
type transport interface {
	// roundTrip sends req and returns the body of its StatusOK response.
	// A non-nil db is the handle the request addresses: its current
	// server-side handle is stamped into req before every attempt, since a
	// redial or mate switch in between rebinds it.
	roundTrip(db *RemoteDB, req *Enc) (*Dec, error)
	// forget stops re-opening db after reconnects.
	forget(db *RemoteDB)
}

// session is the codec for the ops addressed to a server rather than to one
// of its databases. Client and FailoverClient embed it over themselves.
type session struct{ t transport }

// call runs one server-level request and releases its encoder.
func (s session) call(req *Enc) (*Dec, error) {
	d, err := s.t.roundTrip(nil, req)
	req.Release()
	return d, err
}

// MailDeposit drops a mail note into the server's mail.box for routing.
func (s session) MailDeposit(n *nsf.Note) error {
	_, err := s.call(NewEnc(OpMailDeposit).Note(n))
	return err
}

// Options tune a client's fault tolerance. The zero value gets production
// defaults; see the field comments.
type Options struct {
	// DialTimeout bounds connection establishment (default 10s).
	DialTimeout time.Duration
	// OpTimeout bounds one request/response round trip; no wire operation
	// can block past it (default 30s).
	OpTimeout time.Duration
	// MaxRetries is how many times a retryable, idempotent operation is
	// re-attempted after the first failure (default 4). Negative disables
	// retries entirely.
	MaxRetries int
	// BackoffBase is the first retry delay; each retry doubles it up to
	// BackoffMax, with ±50% jitter (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Jitter seeds the backoff jitter; nil uses an unseeded source. Tests
	// pass a seeded source for reproducible schedules.
	Jitter *rand.Rand
	// OpBudget, when positive, gives every operation an end-to-end time
	// budget: the WHOLE operation — all retries, backoff sleeps, and
	// reconnects included — must finish within it. The remaining budget is
	// carried to the server in an OpBudget envelope (shrinking on every
	// attempt, since the deadline is absolute client-side), so the server
	// stops working the moment the caller's patience is spent instead of
	// finishing results nobody will read. Zero disables budgets; OpTimeout
	// still bounds each individual round trip either way.
	OpBudget time.Duration
	// Dialer replaces the TCP dialer, e.g. with a faultnet.Net.Dial for
	// fault-injection tests. nil dials plain TCP with DialTimeout.
	Dialer func(network, addr string) (net.Conn, error)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.Jitter == nil {
		o.Jitter = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return o
}

// route is the routing policy the attempt loop consults: which address gets
// the next turn, and whether an address whose turn is spent leaves the
// operation somewhere else to go. The loop itself — dial, hello, re-open
// handles, exchange, classify, re-send in place — is the same whatever the
// policy. fixedRoute (a stand-alone server) always answers its one address
// and never learns another; *FailoverClient answers from its mate list,
// breakers and placement cache. Every method runs under the Client lock.
type route interface {
	// connect starts a turn: it gives c a live session (through
	// c.dialLocked) on the best address for an op on db; db is nil for
	// server-level ops. On failure c.addr is the address still worth
	// redialing in place, or empty.
	connect(c *Client, db *RemoteDB) error
	// placed vets opening db on the connected address. A policy that knows
	// the database is homed elsewhere answers with the redirect the server
	// would send, saving the round trip.
	placed(c *Client, db *RemoteDB) error
	// served records that an operation completed on the connected address.
	served()
	// failed ends the connected address's turn — once per turn, however many
	// attempts it had: it folds the last verdict into the policy and reports
	// whether a re-send should go to another address; hops counts the moves
	// this operation has already made.
	failed(v verdict, err error, hops int) (elsewhere bool)
}

// fixedRoute is the one-address policy of a bare Client.
type fixedRoute string

func (a fixedRoute) connect(c *Client, _ *RemoteDB) error { return c.dialLocked(string(a), false) }
func (fixedRoute) placed(*Client, *RemoteDB) error        { return nil }
func (fixedRoute) served()                                {}
func (fixedRoute) failed(verdict, error, int) bool        { return false }

// Client is an authenticated connection to a server. Requests are
// serialized; one Client supports concurrent callers. The client survives
// transport faults: every operation runs under a deadline, retryable
// failures of idempotent operations are retried with exponential backoff,
// and a broken connection is transparently redialed, re-authenticated, and
// its RemoteDB handles re-opened — on the same server, or on whichever
// cluster mate its routing policy names.
type Client struct {
	session

	mu     sync.Mutex
	opts   Options
	route  route
	user   string
	secret string
	// preAuth marks a one-shot probe session: no hello is sent, so only the
	// ops the table marks PreAuth are answered.
	preAuth bool

	// conn is the live session (nil: the next attempt dials) and addr the
	// address holding the turn: where conn was dialed, or tried to be.
	conn   net.Conn
	addr   string
	closed bool
	// dbs are the live remote handles to re-open on every new session.
	dbs map[*RemoteDB]struct{}

	// deadline is the absolute deadline of the operation holding mu (zero:
	// none). do sets and clears it; every retry, backoff sleep, reconnect
	// and wire envelope of that operation shrinks against it.
	deadline time.Time

	// abandoned and liveConn support CancelInflight: severing an in-flight
	// round trip from OUTSIDE the client lock (the lock is held for the
	// whole op, so a hedge that won elsewhere could never take it).
	abandoned atomic.Bool
	liveConn  atomic.Pointer[net.Conn]
}

// Dial connects and authenticates with default fault-tolerance options.
func Dial(addr, user, secret string) (*Client, error) {
	return DialOptions(addr, user, secret, Options{})
}

// DialOptions connects and authenticates with explicit options. The
// initial dial itself is retried like any idempotent operation, so a
// server momentarily restarting does not fail the caller.
func DialOptions(addr, user, secret string, opts Options) (*Client, error) {
	c := newClient(fixedRoute(addr), user, secret, opts.withDefaults())
	if _, err := c.do(nil, nil, time.Time{}); err != nil {
		return nil, err
	}
	return c, nil
}

// newClient builds a client that dials on its first operation.
func newClient(r route, user, secret string, opts Options) *Client {
	c := &Client{opts: opts, route: r, user: user, secret: secret, dbs: make(map[*RemoteDB]struct{})}
	c.session = session{c}
	return c
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// User returns the authenticated user name.
func (c *Client) User() string { return c.user }

// CancelInflight severs whatever round trip this client currently has in
// flight, without taking the client lock (the in-flight op holds it). The
// op fails with ErrAbandoned — a result nobody is waiting for anymore —
// which callers must treat as neither retryable nor the mate's fault. It
// is how a hedged read cancels the loser.
func (c *Client) CancelInflight() {
	c.abandoned.Store(true)
	if conn := c.liveConn.Load(); conn != nil {
		(*conn).Close()
	}
}

// budgetLeftLocked returns the time remaining on the active deadline, or
// (0, false) when no deadline is set.
func (c *Client) budgetLeftLocked() (time.Duration, bool) {
	if c.deadline.IsZero() {
		return 0, false
	}
	return time.Until(c.deadline), true
}

// breakLocked abandons the current connection: it is closed immediately
// (never leaked) and the next attempt dials.
func (c *Client) breakLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// backoffLocked sleeps the exponential-backoff delay for a retry attempt
// (0-based), with ±50% jitter so synchronized clients don't stampede a
// recovering server. An active deadline caps the sleep: burning the whole
// remaining budget inside a backoff would guarantee the retry dies.
func (c *Client) backoffLocked(attempt int) {
	d := retry.Backoff{Base: c.opts.BackoffBase, Max: c.opts.BackoffMax, Rand: c.opts.Jitter}.Delay(attempt)
	if rem, ok := c.budgetLeftLocked(); ok {
		if rem <= 0 {
			return
		}
		if d > rem {
			d = rem
		}
	}
	time.Sleep(d)
}

// dialLocked opens a session on addr: it dials, authenticates, and re-opens
// every registered remote handle there. On return without error the
// connection is usable. ownBudget establishes it under a fresh OpBudget
// instead of the operation's deadline (see FailoverClient.connect).
func (c *Client) dialLocked(addr string, ownBudget bool) error {
	c.breakLocked()
	c.addr = addr
	if ownBudget && !c.deadline.IsZero() {
		defer func(op time.Time) { c.deadline = op }(c.deadline)
		c.deadline = time.Now().Add(c.opts.OpBudget)
	}
	dial := c.opts.Dialer
	if dial == nil {
		// The budget covers the TCP dial: a blackholed peer costs what is
		// left of it (spent: the dial times out at once), not DialTimeout.
		timeout := c.opts.DialTimeout
		if rem, ok := c.budgetLeftLocked(); ok && rem < timeout {
			timeout = max(rem, 1)
		}
		dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, timeout)
		}
	}
	conn, err := dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c.conn = conn
	c.liveConn.Store(&conn)
	if c.preAuth {
		return nil
	}
	hello := NewEnc(OpHello).U32(ProtocolVersion).Str(c.user).Str(c.secret)
	_, err = c.doLocked(hello)
	hello.Release()
	if err != nil {
		c.breakLocked()
		return err
	}
	for db := range c.dbs {
		if err := c.openLocked(db); err != nil {
			var se *ServerError
			var wme *WrongMateError
			if errors.As(err, &se) || errors.As(err, &wme) {
				// The database vanished server-side or is homed on another
				// mate; poison only this handle, the session itself is
				// healthy. Under a failover policy the poisoned redirect
				// re-routes the handle's next operation.
				db.stale = err
				continue
			}
			c.breakLocked()
			return err
		}
	}
	return nil
}

// openLocked issues OpOpenDB for db, rebinds its handle fields, and
// registers it to be re-opened on every new session.
func (c *Client) openLocked(db *RemoteDB) error {
	req := NewEnc(OpOpenDB).Str(db.path)
	d, err := c.doLocked(req)
	req.Release()
	if err != nil {
		return err
	}
	handle := d.U32()
	d.Raw(8) // the replica ID; RemoteDB.ReplicaID asks afresh instead of caching it
	title := d.Str()
	if err := d.Err(); err != nil {
		return err
	}
	db.handle, db.title, db.stale = handle, title, nil
	c.dbs[db] = struct{}{}
	return nil
}

// doLocked performs one raw round trip on the current connection under the
// per-operation deadline and decodes the response envelope. Any transport
// or framing failure leaves the connection closed — a
// half-finished round trip can never be resumed, and an unclosed socket
// would leak.
func (c *Client) doLocked(req *Enc) (*Dec, error) {
	op := req.op()
	if c.conn == nil {
		return nil, protoErrorf("no connection")
	}
	connDL := time.Now().Add(c.opts.OpTimeout)
	var budgetMs uint32
	if rem, ok := c.budgetLeftLocked(); ok {
		if rem <= 0 {
			// Budget spent before anything was sent: provably never
			// executed, and the connection is still healthy.
			return nil, &DeadlineError{Op: op}
		}
		// Carry the REMAINING budget (this shrinks across retries and
		// failover hops). The transport deadline gets a small grace past
		// the budget so the server's own StatusDeadlineExceeded response
		// can still arrive and tell us whether the op ran.
		budgetMs = uint32((rem + time.Millisecond - 1) / time.Millisecond)
		if budgetMs == 0 {
			budgetMs = 1
		}
		if bdl := c.deadline.Add(deadlineGrace); bdl.Before(connDL) {
			connDL = bdl
		}
	}
	c.conn.SetDeadline(connDL)
	var payload []byte
	var err error
	if budgetMs > 0 {
		err = WriteBudgetFrame(c.conn, budgetMs, req.Bytes())
	} else {
		err = WriteFrame(c.conn, req.Bytes())
	}
	if err != nil {
		err = fmt.Errorf("wire: send: %w", err)
	} else if payload, err = ReadFrame(c.conn); err != nil {
		err = fmt.Errorf("wire: receive: %w", err)
	}
	if err != nil {
		c.breakLocked()
		if _, ok := c.budgetLeftLocked(); ok && !time.Now().Before(c.deadline) {
			// The transport fault coincides with budget expiry (typically
			// our own deadline cutting a stalled read): the request may
			// have been received and executed, so the outcome is ambiguous.
			return nil, &DeadlineError{Op: op, Ambiguous: true}
		}
		return nil, err
	}
	c.conn.SetDeadline(time.Time{})
	d, err := openResponse(op, payload)
	if err != nil {
		var pe *protoError
		if errors.As(err, &pe) {
			c.breakLocked() // the byte stream is out of sync
		}
	}
	return d, err
}

// deadlineGrace is how far past an op's budget the transport deadline
// extends: long enough for the server's StatusDeadlineExceeded verdict to
// arrive (it says whether the op ran), short enough that a truly stalled
// mate still fails promptly.
const deadlineGrace = 100 * time.Millisecond

// openResponse checks a response envelope against the request's op and
// turns every status but StatusOK into its typed error. Except for a
// protoError (the stream is desynchronized), the connection that carried
// the response is healthy.
func openResponse(op Op, payload []byte) (*Dec, error) {
	if len(payload) < 2 {
		return nil, protoErrorf("short response envelope (%d bytes)", len(payload))
	}
	if payload[0] != byte(op)|respBit {
		return nil, protoErrorf("response op %#x does not match request %#x", payload[0], byte(op))
	}
	d := NewDec(payload[2:])
	switch payload[1] {
	case StatusOK:
		return d, nil
	case StatusBusy:
		// Admission shed: the request never executed. Carry the server's
		// state and availability index so failover logic can redirect.
		state := d.U8()
		idx := d.U32()
		if d.Err() != nil {
			state, idx = StateOpen, 0
		}
		return nil, &BusyError{Op: op, State: state, Availability: int(idx)}
	case StatusWrongMate:
		// Placement redirect: this mate does not home the database and the
		// request never executed. Only a failover client (which can switch
		// mates) makes progress on this.
		return nil, decWrongMate(op, d)
	case StatusDeadlineExceeded:
		// The server spent our budget. The stage byte says whether the op
		// provably never ran (refused pre-execution, like a shed) or was
		// aborted mid-flight (ambiguous).
		stage := d.U8()
		if d.Err() != nil {
			stage = DeadlineAborted
		}
		return nil, &DeadlineError{Op: op, Remote: true, Ambiguous: stage == DeadlineAborted}
	default:
		msg := d.Str()
		if d.Err() != nil {
			msg = "unknown server error"
		}
		return nil, &ServerError{Op: op, Msg: msg}
	}
}

// forget implements transport.
func (c *Client) forget(db *RemoteDB) {
	c.mu.Lock()
	delete(c.dbs, db)
	c.mu.Unlock()
}

// roundTrip implements transport.
func (c *Client) roundTrip(db *RemoteDB, req *Enc) (*Dec, error) {
	return c.do(db, req, time.Time{})
}

// do is the attempt loop, the only one the package has: one operation, under
// the client lock, against whichever address the routing policy names. A nil
// req (re)opens db instead of sending a prepared request; with db nil too it
// only establishes a session. A zero deadline is stamped from
// Options.OpBudget (when set); a hedged read passes the one deadline both of
// its racers share. Either way ONE absolute deadline spans every retry,
// backoff sleep, reconnect and mate switch, and each wire envelope carries
// only what remains of it.
//
// What may be re-sent follows from the error's verdict and the op table: a
// shed or misrouted request never executed, so any op is re-sent; a round
// trip that died in flight may have executed, so only idempotent ops are; a
// failed connect sent nothing, so it is retried regardless. A re-send first
// stays in place: the same address after a backoff, MaxRetries times. Only
// when that turn is spent does the policy hear the verdict and say whether
// another address gets a turn. Everything else surfaces to the caller.
func (c *Client) do(db *RemoteDB, req *Enc, deadline time.Time) (*Dec, error) {
	op := OpOpenDB
	if req != nil {
		op = req.op()
	}
	info := op.Info()
	if c.preAuth && !info.PreAuth {
		return nil, fmt.Errorf("wire: %v needs a session; it cannot be probed", op)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if deadline.IsZero() && c.opts.OpBudget > 0 {
		deadline = time.Now().Add(c.opts.OpBudget)
	}
	c.deadline = deadline
	defer func() { c.deadline = time.Time{} }()
	// A cancel aimed at a PREVIOUS op (hedge raced our completion) must not
	// poison this one; in-flight cancels are caught after the attempt below.
	c.abandoned.Store(false)
	var err error
	for retries, hops := 0, 0; ; {
		if c.closed {
			return nil, ErrClosed
		}
		if rem, ok := c.budgetLeftLocked(); ok && rem <= 0 && err != nil {
			// Out of budget between attempts. Every prior attempt ended in
			// a provably-not-executed state (shed, redirect, refused, or a
			// transport fault on an idempotent op), so this expiry is
			// unambiguous.
			return nil, fmt.Errorf("%w; last attempt: %v", &DeadlineError{Op: op}, err)
		}
		var d *Dec
		err = nil
		sent := false
		if c.conn == nil {
			if retries > 0 {
				err = c.dialLocked(c.addr, false) // in place: the address keeps its turn
			} else {
				err = c.route.connect(c, db)
			}
		}
		if err == nil {
			sent = true
			switch {
			case req == nil && db == nil:
				return nil, nil // a session is all that was asked for
			case req == nil:
				if err = c.route.placed(c, db); err == nil {
					err = c.openLocked(db)
				}
			case db != nil && db.stale != nil:
				err = db.stale
			default:
				if db != nil {
					req.setHandle(db.handle)
				}
				d, err = c.doLocked(req)
			}
		}
		if err == nil {
			c.route.served()
			return d, nil
		}
		if c.abandoned.Swap(false) {
			// CancelInflight severed this round trip: the caller (a hedged
			// read that won elsewhere) will discard whatever we return, and
			// the mate did nothing wrong. Surface the sentinel instead of a
			// transport fault so nothing is retried and nobody is blamed.
			return nil, ErrAbandoned
		}
		v := classify(err)
		resend := v == verdictShed || v == verdictMisrouted ||
			v == verdictSevered && (info.Idempotent || !sent)
		if resend && v != verdictMisrouted && c.addr != "" && retries < c.opts.MaxRetries {
			// In place first: back off to let this server recover. A redirect
			// is the exception — the same address would only redirect again.
			c.backoffLocked(retries)
			retries++
			continue
		}
		if !c.route.failed(v, err, hops) || !resend {
			return nil, err
		}
		hops++
		retries = 0
		c.breakLocked()
	}
}

// OpenDB opens a database by path on the server, returning a remote handle.
// The handle stays valid across reconnects: it is re-opened automatically.
func (c *Client) OpenDB(path string) (*RemoteDB, error) {
	return c.openDB(path, time.Time{})
}

// openDB is OpenDB under the caller's deadline (zero: the client's own).
func (c *Client) openDB(path string, deadline time.Time) (*RemoteDB, error) {
	db := &RemoteDB{t: c, path: path, putKey: nsf.NewUNID().String()}
	if _, err := c.do(db, nil, deadline); err != nil {
		return nil, err
	}
	return db, nil
}

// RemoteDB is a handle on a database opened over the wire, and the one
// place each database op's request is encoded and its response decoded. How
// a request travels — retried against one server, or failing over between
// cluster mates — is its transport's business. It implements repl.Peer, so
// a local replicator can sync against it directly.
type RemoteDB struct {
	t    transport
	path string
	// handle and title are rebound by every (re)open; stale is set when a
	// reconnect could not re-open this database, and every operation fails
	// with it until a later reconnect succeeds. All three are guarded by
	// the lock of the Client the handle is currently open on.
	handle uint32
	title  string
	stale  error

	// putKey names this handle's pipelined-put session; putSeq numbers its
	// batched documents. The server remembers, per (user, key, database),
	// the highest sequence it has durably applied, so a batch re-sent after
	// a reconnect skips the already-applied prefix — exactly-once retry
	// without per-operation acks.
	putKey string
	putSeq atomic.Uint64
}

var _ repl.Peer = (*RemoteDB)(nil)

// Title returns the remote database title.
func (r *RemoteDB) Title() string { return r.title }

// Path returns the server-side path the database was opened by.
func (r *RemoteDB) Path() string { return r.path }

// Release forgets the handle client-side: it is no longer re-opened after
// reconnects or failover. There is no server-side close; server handles die
// with the connection.
func (r *RemoteDB) Release() { r.t.forget(r) }

// req starts a request for op against this database. The handle slot is
// filled in by the transport at send time (see Enc.setHandle).
func (r *RemoteDB) req(op Op) *Enc { return NewEnc(op).U32(0) }

// call runs one encoded request against this database and releases its
// encoder.
func (r *RemoteDB) call(req *Enc) (*Dec, error) {
	d, err := r.t.roundTrip(r, req)
	req.Release()
	return d, err
}

// ReplicaID implements repl.Peer. It asks the server rather than trusting
// the value cached at open time, so it both verifies the link is alive and
// notices a database swapped behind the same path.
func (r *RemoteDB) ReplicaID() (nsf.ReplicaID, error) {
	d, err := r.call(r.req(OpReplicaID))
	if err != nil {
		return nsf.ReplicaID{}, err
	}
	var replica nsf.ReplicaID
	copy(replica[:], d.Raw(8))
	return replica, d.Err()
}

// Get fetches a note with the server enforcing the caller's read access.
func (r *RemoteDB) Get(unid nsf.UNID) (*nsf.Note, error) {
	d, err := r.call(r.req(OpGetNote).UNID(unid))
	if err != nil {
		return nil, err
	}
	n := d.Note()
	return n, d.Err()
}

// Create stores a new document; the server assigns its identity, and n is
// overwritten with the stored note.
func (r *RemoteDB) Create(n *nsf.Note) error { return r.put(OpCreateNote, n) }

// Update stores a modified document; n is overwritten with the stored note.
func (r *RemoteDB) Update(n *nsf.Note) error { return r.put(OpUpdateNote, n) }

// put is the shared codec of OpCreateNote and OpUpdateNote: both send a
// note and get the stored note (with assigned IDs and OID) back. Neither is
// idempotent: after a mid-trip failure the write may or may not have
// landed, and the caller decides whether to re-issue.
func (r *RemoteDB) put(op Op, n *nsf.Note) error {
	d, err := r.call(r.req(op).Note(n))
	if err != nil {
		return err
	}
	stored := d.Note()
	if err := d.Err(); err != nil {
		return err
	}
	*n = *stored
	return nil
}

// Delete replaces a document with a deletion stub.
func (r *RemoteDB) Delete(unid nsf.UNID) error {
	_, err := r.call(r.req(OpDeleteNote).UNID(unid))
	return err
}

// PutBatch stores documents create-or-update in input order through one
// round trip and one server admission slot, with the server amortizing the
// WAL force across the batch (group commit). Zero UNIDs are assigned
// client-side so a re-sent batch targets the same documents.
//
// PutBatch is safely retried even though it writes: each batch carries the
// handle's pipelined-put session key and a base sequence number, and the
// server's durable cursor for that session makes a replay skip exactly the
// already-applied prefix. It returns how many documents are durably stored
// server-side (counting ones a retry found already applied); on error,
// exactly the first `stored` documents were stored.
func (r *RemoteDB) PutBatch(notes []*nsf.Note) (stored int, err error) {
	if len(notes) == 0 {
		return 0, nil
	}
	for _, n := range notes {
		if n.OID.UNID.IsZero() {
			n.OID.UNID = nsf.NewUNID()
		}
	}
	// Sequence numbers are claimed once per batch, not per attempt, so a
	// retry re-sends the same (key, base) and dedups server-side.
	base := r.putSeq.Add(uint64(len(notes))) - uint64(len(notes)) + 1
	req := r.req(OpPutBatch).Str(r.putKey).U64(base).U32(uint32(len(notes)))
	for _, n := range notes {
		req.Note(n)
	}
	d, err := r.call(req)
	if err != nil {
		return 0, err
	}
	d.U64() // cursor: advisory, implied by applied+skipped
	applied := int(d.U32())
	skipped := int(d.U32())
	ok := d.U8()
	var msg string
	if ok == 0 {
		msg = d.Str()
	}
	if derr := d.Err(); derr != nil {
		return 0, derr
	}
	stored = skipped + applied
	if ok == 0 {
		return stored, &ServerError{Op: OpPutBatch, Msg: msg}
	}
	return stored, nil
}

// DBInfo describes a remote database.
type DBInfo struct {
	Title string
	Notes int
	Pages int
	Views []string
}

// Info fetches the remote database's statistics and view list.
func (r *RemoteDB) Info() (DBInfo, error) {
	d, err := r.call(r.req(OpDBInfo))
	if err != nil {
		return DBInfo{}, err
	}
	info := DBInfo{
		Title: d.Str(),
		Notes: int(d.U32()),
		Pages: int(d.U32()),
	}
	count := int(d.U32())
	for i := 0; i < count && d.Err() == nil; i++ {
		info.Views = append(info.Views, d.Str())
	}
	return info, d.Err()
}

// Summaries implements repl.Peer.
func (r *RemoteDB) Summaries(since store.Cursor, formulaSrc string) ([]repl.Summary, store.Cursor, error) {
	d, err := r.call(r.req(OpSummaries).Cursor(since).Str(formulaSrc))
	if err != nil {
		return nil, store.Cursor{}, err
	}
	next := d.Cursor()
	count := d.U32()
	// A summary encodes to 33 fixed bytes; clamp the preallocation to what
	// the payload could actually hold so a corrupt count can't demand
	// gigabytes up front.
	out := make([]repl.Summary, 0, d.Cap(count, 33))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		out = append(out, d.Summary())
	}
	return out, next, d.Err()
}

// Fetch implements repl.Peer.
func (r *RemoteDB) Fetch(unids []nsf.UNID) ([]*nsf.Note, error) {
	req := r.req(OpFetch).U32(uint32(len(unids)))
	for _, u := range unids {
		req.UNID(u)
	}
	d, err := r.call(req)
	if err != nil {
		return nil, err
	}
	count := d.U32()
	// Clamp the count-sized preallocation: an encoded note is at least a
	// one-byte length prefix plus a byte of body.
	out := make([]*nsf.Note, 0, d.Cap(count, 2))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		out = append(out, d.Note())
	}
	return out, d.Err()
}

// Apply implements repl.Peer.
func (r *RemoteDB) Apply(notes []*nsf.Note) (repl.ApplyStats, error) {
	req := r.req(OpApply).U32(uint32(len(notes)))
	for _, n := range notes {
		req.Note(n)
	}
	d, err := r.call(req)
	if err != nil {
		return repl.ApplyStats{}, err
	}
	st := d.ApplyStats()
	return st, d.Err()
}
