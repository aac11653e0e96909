package wire

import (
	"bufio"
	"cmp"
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

// route is the routing policy the attempt loop consults. It does no I/O: it
// ranks the candidates for a turn, vets an open against what it knows of
// placement, and learns from what the loop reports; the loop does all the
// rest, whatever the policy. fixedRoute (a stand-alone server) is one
// address that never learns another; *FailoverClient ranks its mates by
// breaker, availability and placement. Methods run under the Client lock.
type route interface {
	// rank lists the candidates for a turn of an op on db, best first.
	rank(db *RemoteDB) []candidate
	// probed records a half-open probe of addr; an error vetoes the dial.
	probed(addr string, info AvailabilityInfo, err error) error
	// firstOpen reports whether path is opened for the first time, in which
	// case the loop resolves it once, best effort, and learns the record.
	firstOpen(path string) bool
	// learn folds a placement record into the policy.
	learn(path string, gen uint64, homes []HomeAddr)
	// vet checks opening db on addr: a policy that knows the database is
	// homed elsewhere answers with the redirect the server would send.
	vet(db *RemoteDB, addr string) error
	// served records that an operation completed on addr.
	served(addr string)
	// spent ends addr's turn — once per turn, however many attempts it had:
	// it records the last verdict and reports whether a re-send should go to
	// another address; hops counts the moves this operation already made.
	spent(addr string, v verdict, err error, hops int) (elsewhere bool)
}

// candidate is one address of a turn's ranking; probe asks for a half-open
// availability probe before the address is dialed.
type candidate struct {
	addr  string
	probe bool
}

// fixedRoute is the one-address policy of a bare Client.
type fixedRoute string

func (a fixedRoute) rank(*RemoteDB) []candidate                 { return []candidate{{addr: string(a)}} }
func (fixedRoute) probed(string, AvailabilityInfo, error) error { return nil }
func (fixedRoute) firstOpen(string) bool                        { return false }
func (fixedRoute) learn(string, uint64, []HomeAddr)             {}
func (fixedRoute) vet(*RemoteDB, string) error                  { return nil }
func (fixedRoute) served(string)                                {}
func (fixedRoute) spent(string, verdict, error, int) bool       { return false }

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

	// conn is the live session (nil: the next attempt dials), rd the one
	// reader of its responses, made and dropped with it, and addr the
	// address holding the turn: where conn was dialed, or tried to be.
	conn   net.Conn
	rd     *bufio.Reader
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
	c.conn, c.rd = nil, nil
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
		c.conn, c.rd = nil, nil
	}
}

// backoffLocked sleeps the exponential-backoff delay for a retry attempt
// (0-based), with ±50% jitter so synchronized clients don't stampede a
// recovering server. An active deadline caps the sleep: burning the whole
// remaining budget inside a backoff would guarantee the retry dies.
func (c *Client) backoffLocked(attempt int) {
	d := retry.Backoff{Base: c.opts.BackoffBase, Max: c.opts.BackoffMax, Rand: c.opts.Jitter}.Delay(attempt)
	if rem, ok := c.budgetLeftLocked(); ok {
		d = min(d, rem) // a spent budget sleeps not at all
	}
	time.Sleep(d)
}

// probeTimeout bounds the walk's half-open availability probe.
const probeTimeout = time.Second

// walkLocked starts a turn: it walks the policy's ranking for an op on db
// and leaves a session on the first candidate that takes one, probing first
// where the ranking asks. A candidate that cannot be dialed has had its turn
// (the policy hears it as spent); past the last one no address holds the
// turn. Each candidate sets its session up under an OpBudget of its own: on
// what is left of the operation's, a mate that accepts and then stalls would
// eat it all, and every healthy mate behind it would be refused locally —
// and blamed. A lone candidate is dialed as a bare Client dials its server,
// on the operation's budget, and keeps the turn if the dial fails.
func (c *Client) walkLocked(db *RemoteDB, hops int) error {
	cands := c.route.rank(db)
	if len(cands) == 1 {
		return c.dialLocked(cands[0].addr)
	}
	if !c.deadline.IsZero() {
		defer func(op time.Time) { c.deadline = op }(c.deadline)
	}
	var firstErr error
	for _, cand := range cands {
		if cand.probe {
			info, err := ProbeAvailability(cand.addr, c.opts.Dialer, probeTimeout)
			if err = c.route.probed(cand.addr, info, err); err != nil {
				firstErr = cmp.Or(firstErr, err)
				continue
			}
		}
		if !c.deadline.IsZero() {
			c.deadline = time.Now().Add(c.opts.OpBudget)
		}
		err := c.dialLocked(cand.addr)
		if err == nil {
			return nil
		}
		c.route.spent(cand.addr, classify(err), err, hops)
		if firstErr == nil || !Retryable(firstErr) {
			firstErr = err
		}
	}
	c.addr = ""
	return fmt.Errorf("wire: all %d mates unreachable: %w", len(cands), firstErr)
}

// dialLocked opens a session on addr: it dials, authenticates, and re-opens
// every registered remote handle there. On return without error the
// connection is usable.
func (c *Client) dialLocked(addr string) error {
	c.breakLocked()
	c.addr = addr
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
	c.conn, c.rd = conn, bufio.NewReader(conn)
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

// placeLocked readies opening db on the connected address: a path's first
// open asks the server where the path lives — once and best effort, since
// the open itself carries the same news in its redirect — and the policy
// then vets the address.
func (c *Client) placeLocked(db *RemoteDB) error {
	if c.route.firstOpen(db.path) {
		req := NewEnc(OpResolve).Str(db.path)
		d, err := c.doLocked(req)
		req.Release()
		if err != nil && c.conn == nil {
			return err // the session died under the resolve
		}
		if err == nil {
			if recs, err := decResolveRecords(d); err == nil && len(recs) == 1 {
				c.route.learn(db.path, recs[0].Generation, recs[0].Homes)
			}
		}
	}
	return c.route.vet(db, c.addr)
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
		budgetMs = max(uint32((rem+time.Millisecond-1)/time.Millisecond), 1)
		if bdl := c.deadline.Add(deadlineGrace); bdl.Before(connDL) {
			connDL = bdl
		}
	}
	c.conn.SetDeadline(connDL)
	var payload []byte
	err := writeFrame(c.conn, budgetMs, req.Bytes())
	if err != nil {
		err = fmt.Errorf("wire: send: %w", err)
	} else if payload, err = ReadFrame(c.rd); err != nil {
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

// expired is the verdict on a budget that ran out while nothing of op was in
// flight. It is unambiguous only if no earlier attempt died in flight (ran):
// an idempotent op is re-sent after a sever, and the attempt the sever cut
// may have executed.
func expired(op Op, ran bool, cause error) error {
	return fmt.Errorf("%w; last attempt: %v", &DeadlineError{Op: op, Ambiguous: ran}, cause)
}

// do is the attempt loop, the only one the package has and the only code
// that touches a connection: one operation, under the client lock, against
// the addresses the routing policy ranks. A nil req (re)opens db instead of
// sending a prepared request; with db nil too it only establishes a session.
// ONE absolute deadline — stamped from Options.OpBudget when zero, or shared
// by both racers of a hedged read — spans every retry, backoff sleep,
// reconnect and mate switch, and each wire envelope carries what remains.
//
// What may be re-sent follows from the error's verdict and the op table: a
// shed or misrouted request never executed, so any op is re-sent; a round
// trip that died in flight may have executed, so only idempotent ops are; a
// failed session setup sent nothing, so it is retried regardless. A re-send
// first stays in place: the same address after a backoff, MaxRetries times.
// Only when that turn is spent does the policy hear the verdict and say
// whether another address gets a turn. Everything else surfaces; a budget
// that expired before the op was sent is the op's unambiguous expiry. Once
// an attempt has died in flight, no later verdict may claim the op never
// ran: an expiry surfaces as ambiguous, a refusal as that in-flight failure.
func (c *Client) do(db *RemoteDB, req *Enc, deadline time.Time) (*Dec, error) {
	op := OpHello // a session is all that is asked for
	switch {
	case req != nil:
		op = req.op()
	case db != nil:
		op = OpOpenDB
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
	var inflight error // the last attempt that died in flight: op may have executed
	for retries, hops := 0, 0; ; {
		if c.closed {
			return nil, ErrClosed
		}
		if rem, ok := c.budgetLeftLocked(); ok && rem <= 0 && err != nil {
			// Out of budget between attempts: unambiguous only if every
			// prior attempt provably never executed (shed, redirect,
			// refused, a session that never formed).
			return nil, expired(op, inflight != nil, err)
		}
		var d *Dec
		err = nil
		sent := false
		if c.conn == nil {
			if retries > 0 {
				err = c.dialLocked(c.addr) // in place: the address keeps its turn
			} else {
				err = c.walkLocked(db, hops)
			}
		}
		if err == nil && req == nil && db != nil {
			err = c.placeLocked(db)
		}
		if err == nil {
			sent = true
			switch {
			case req == nil && db == nil:
				return nil, nil // a session is all that was asked for
			case req == nil:
				err = c.openLocked(db)
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
			c.route.served(c.addr)
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
		if v == verdictSevered && sent {
			inflight = err
		}
		resend := v == verdictShed || v == verdictMisrouted ||
			v == verdictSevered && (info.Idempotent || !sent)
		if resend && v != verdictMisrouted && c.addr != "" && retries < c.opts.MaxRetries {
			// In place first: back off to let this server recover. A redirect
			// is the exception — the same address would only redirect again.
			c.backoffLocked(retries)
			retries++
			continue
		}
		// With no address holding the turn, the walk has just heard every
		// candidate's verdict.
		if c.addr == "" || !c.route.spent(c.addr, v, err, hops) || !resend {
			if v == verdictExpired && (!sent || inflight != nil) {
				err = expired(op, inflight != nil, err) // setup or a re-send ran out of budget
			} else if (v == verdictShed || v == verdictMisrouted) && inflight != nil {
				err = fmt.Errorf("%w; last attempt: %v", inflight, err)
			}
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
	n := new(nsf.Note)
	if err := d.ownedNote(n); err != nil {
		return nil, err
	}
	return n, nil
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
	var stored nsf.Note
	if err := d.ownedNote(&stored); err != nil {
		return err
	}
	*n = stored
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

// Fetch implements repl.Peer: fn gets each record of the reply where it
// lies in the reply frame, as the source stored it, decoded by no one here.
func (r *RemoteDB) Fetch(unids []nsf.UNID, fn func(rec []byte) error) error {
	req := r.req(OpFetch).U32(uint32(len(unids)))
	for _, u := range unids {
		req.UNID(u)
	}
	d, err := r.call(req)
	if err != nil {
		return err
	}
	count := d.U32()
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		if rec := d.Blob(); d.Err() == nil {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return d.Err()
}

// Apply implements repl.Peer. Each record is sent as it is, the note blob
// Enc.Note would encode from its decode.
func (r *RemoteDB) Apply(recs [][]byte) (repl.ApplyStats, error) {
	req := r.req(OpApply).U32(uint32(len(recs)))
	for _, rec := range recs {
		req.Blob(rec)
	}
	d, err := r.call(req)
	if err != nil {
		return repl.ApplyStats{}, err
	}
	st := d.ApplyStats()
	return st, d.Err()
}
