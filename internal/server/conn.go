package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/wire"
)

// connState tracks one client connection's authenticated session.
type connState struct {
	s       *Server
	user    string
	handles map[uint32]*handleState
	nextH   uint32
	// dec decodes the request being served. A connection serves one request
	// at a time, so the decoder lives here instead of being allocated per
	// request (handlers are called through a table, which would otherwise
	// force each one to the heap).
	dec wire.Dec
	// rec and scratch serve Gets: the stored record is read into rec, and
	// its access items are decoded into scratch for the read check.
	rec     []byte
	scratch core.RecordScratch
	// frame holds the request being served: every request of the
	// connection is read into it. A handler keeps no Blob or Raw slice of
	// it past its response (the scan cursor is parsed, not kept).
	frame []byte
	// notes, ptrs and arena hold the notes a request carries (create,
	// update, put batch, replication apply): requestNotes decodes them into
	// the slab notes, their values cut from arena and their names and text
	// substrings of one string copy of the request. They are valid until
	// the response is written. Nothing the handlers call keeps one, or a
	// value slice of one: core and the store encode a note synchronously,
	// repl.ApplyNote keeps no incoming note, and a mail deposit, which the
	// router queues, decodes a note of its own.
	notes []nsf.Note
	ptrs  []*nsf.Note
	arena nsf.Arena
}

// maxKeptRecord caps the record and request buffers a connection keeps
// from one request to the next, so one huge note or request cannot pin
// huge buffers for the connection's life.
const maxKeptRecord = 1 << 20

type handleState struct {
	db   *core.Database
	sess *core.Session
	path string
	// placeVer is the directory placement version this handle last passed
	// a home check against; ops re-verify only when the version moves.
	placeVer uint64
}

// writeTimeout bounds writing one response frame.
const writeTimeout = 30 * time.Second

// handleConn runs the request loop for one connection. Reads and writes
// run under deadlines so a stalled or malicious peer (half-sent frame,
// unread responses) can never pin the handler goroutine forever. Every
// request passes admission control before dispatch, and a handler panic
// closes only this connection — never the process.
func (s *Server) handleConn(conn net.Conn) {
	st := &connState{s: s, handles: make(map[uint32]*handleState), nextH: 1}
	// One reader per connection: its buffered bytes die with the connection.
	rd := bufio.NewReader(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(s.opts.idleTimeout))
		payload, err := wire.ReadFrameInto(rd, st.frame)
		if err != nil {
			return // closed, broken, or idle past the deadline
		}
		st.frame = payload
		// Strip the optional deadline-budget envelope: the rest of the
		// loop (and every handler) sees the inner request, and responses
		// echo the inner op. A malformed envelope is a framing violation.
		budgetMs, payload, err := wire.SplitBudget(payload)
		if err != nil {
			return
		}
		budget := time.Duration(budgetMs) * time.Millisecond
		if len(payload) == 0 {
			return
		}
		op := wire.Op(payload[0])
		var resp *wire.Enc
		switch {
		case op.Info().PreAuth:
			// Probes, placement resolves and hello bypass admission: a
			// failover client must always be able to read a mate's state and
			// locate a database's homes — even through a mate that is
			// leaving — and a loaded server still answers hello so the
			// client can read busy responses (with the index) and redirect.
			resp = st.safeDispatch(op, budget, payload[1:])
		case s.draining.Load():
			// RESTRICTED: shed everything with a busy response that says
			// "go to a mate" (new sessions are refused by the hello handler).
			resp = s.busyResp(op)
		default:
			switch s.admission.admit(budget) {
			case admitShed:
				resp = s.busyResp(op)
			case admitDeadline:
				// The carried budget cannot survive the queue: refuse now,
				// provably before execution, so the client knows a retry
				// elsewhere is safe.
				resp = deadlineResp(op, wire.DeadlineRefused)
			default:
				s.admission.dispatched.Add(1)
				start := time.Now()
				resp = st.safeDispatch(op, budget, payload[1:])
				if s.admission.release(time.Since(start)) && s.draining.Load() {
					s.signalDrain()
				}
			}
		}
		if resp == nil {
			return // handler panicked; drop only this connection
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		err = wire.WriteFrame(conn, resp.Bytes())
		resp.Release()
		if err != nil {
			return
		}
		if cap(st.frame) > maxKeptRecord {
			// A huge request leaves nothing it grew behind.
			st.frame, st.notes, st.ptrs, st.arena = nil, nil, nil, nsf.Arena{}
		}
	}
}

// requestNotes reads count notes from d into the connection's note slab
// and arena, whose previous request is over; see connState.notes.
func (c *connState) requestNotes(d *wire.Dec, count uint32) []*nsf.Note {
	c.arena.Reset()
	notes := c.notes[:0]
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		if len(notes) < cap(notes) {
			notes = notes[:len(notes)+1] // keeps the slab note's Items array
		} else {
			notes = append(notes, nsf.Note{})
		}
		d.NoteInto(&notes[len(notes)-1], &c.arena)
	}
	c.notes = notes
	c.ptrs = c.ptrs[:0]
	for i := range notes {
		c.ptrs = append(c.ptrs, &notes[i])
	}
	return c.ptrs
}

// safeDispatch runs dispatch with panic recovery: a panicking handler is
// logged and counted, and the connection is closed by returning nil — the
// rest of the server keeps serving. The response for a half-executed
// request is unknowable, so nothing is written.
func (c *connState) safeDispatch(op wire.Op, budget time.Duration, body []byte) (resp *wire.Enc) {
	defer func() {
		if r := recover(); r != nil {
			c.s.admission.panics.Add(1)
			c.s.logf(LogHealth, "panic in %v handler (user %q): %v", op, c.user, r)
			resp = nil
		}
	}()
	// The carried budget becomes this op's context deadline: long-running
	// handlers check it cooperatively and stop working the moment the
	// caller's patience is provably spent. The clock starts here — before
	// the test hook — so injected dispatch delays consume budget exactly
	// like real ones.
	ctx := context.Background()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	if hook := c.s.testPreDispatch; hook != nil {
		hook(op, budget)
	}
	c.dec = *wire.NewDec(body)
	return c.dispatch(ctx, op, &c.dec)
}

// fail builds an error response.
func fail(op wire.Op, err error) *wire.Enc {
	return wire.NewResp(op, wire.StatusError).Str(err.Error())
}

// deadlineResp builds a StatusDeadlineExceeded response. stage says
// whether the op provably never ran (wire.DeadlineRefused) or was aborted
// mid-execution and may have partially taken effect (wire.DeadlineAborted)
// — the distinction the client's retry discipline hinges on.
func deadlineResp(op wire.Op, stage byte) *wire.Enc {
	return wire.NewResp(op, wire.StatusDeadlineExceeded).U8(stage)
}

// handler serves one op: it decodes the request body from d and returns the
// encoded response, or an error dispatch turns into the right status.
type handler func(c *connState, ctx context.Context, d *wire.Dec) (*wire.Enc, error)

// onDB adapts the handler of an op addressed to an open database: the
// request starts with a handle, which is resolved (and its placement
// re-checked) before h runs.
func onDB(h func(c *connState, ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error)) handler {
	return func(c *connState, ctx context.Context, d *wire.Dec) (*wire.Enc, error) {
		hs, err := c.handle(d)
		if err != nil {
			return nil, err
		}
		return h(c, ctx, hs, d)
	}
}

// handlers is the server half of the op table (wire.Ops), indexed by op
// code: adding an op means a row there, a handler here, and a codec method
// in wire — the completeness test fails until all three exist.
var handlers = [...]handler{
	wire.OpHello:        (*connState).hello,
	wire.OpOpenDB:       (*connState).openDB,
	wire.OpGetNote:      onDB((*connState).getNote),
	wire.OpCreateNote:   onDB((*connState).createNote),
	wire.OpUpdateNote:   onDB((*connState).updateNote),
	wire.OpDeleteNote:   onDB((*connState).deleteNote),
	wire.OpViewRows:     onDB((*connState).viewRows),
	wire.OpSearch:       onDB((*connState).search),
	wire.OpReplicaID:    onDB((*connState).replicaID),
	wire.OpSummaries:    onDB((*connState).summaries),
	wire.OpFetch:        onDB((*connState).fetch),
	wire.OpApply:        onDB((*connState).apply),
	wire.OpMailDeposit:  (*connState).mailDeposit,
	wire.OpDBInfo:       onDB((*connState).dbInfo),
	wire.OpAvailability: (*connState).availability,
	wire.OpPutBatch:     onDB((*connState).putBatch),
	wire.OpResolve:      (*connState).resolve,
	wire.OpMeshStatus:   (*connState).meshStatus,
	wire.OpMeshAdd:      (*connState).meshAdd,
	wire.OpMeshRemove:   (*connState).meshRemove,
	wire.OpScan:         onDB((*connState).scan),
}

func (c *connState) dispatch(ctx context.Context, op wire.Op, d *wire.Dec) *wire.Enc {
	if c.user == "" && !op.Info().PreAuth {
		return fail(op, errors.New("not authenticated"))
	}
	if ctx.Err() != nil {
		// Spent before the handler ran (e.g. while queued behind the
		// admission semaphore): still provably never executed.
		c.s.admission.deadlineSheds.Add(1)
		return deadlineResp(op, wire.DeadlineRefused)
	}
	if int(op) >= len(handlers) || handlers[op] == nil {
		return fail(op, fmt.Errorf("unknown operation %#x", byte(op)))
	}
	resp, err := handlers[op](c, ctx, d)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// The handler stopped cooperatively mid-execution: the op may
			// have partially taken effect, and the client must know that.
			c.s.admission.deadlineAborts.Add(1)
			return deadlineResp(op, wire.DeadlineAborted)
		}
		var wm *wrongMateError
		if errors.As(err, &wm) {
			// Placement redirect: not an application error — the body
			// carries the home set so the client can re-route.
			return wire.WrongMateResp(op, wm.rec)
		}
		return fail(op, err)
	}
	return resp
}

func (c *connState) hello(_ context.Context, d *wire.Dec) (*wire.Enc, error) {
	if c.s.draining.Load() {
		return nil, errors.New("server RESTRICTED (draining)") // no new sessions
	}
	version := d.U32()
	user := d.Str()
	secret := d.Str()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if version != wire.ProtocolVersion {
		return nil, fmt.Errorf("unsupported protocol version %d", version)
	}
	if !c.s.opts.Directory.Authenticate(user, secret) {
		c.s.logf(LogSession, "failed authentication for %q", user)
		return nil, errors.New("authentication failed")
	}
	c.user = user
	c.s.logf(LogSession, "%s authenticated", user)
	return wire.NewResp(wire.OpHello, wire.StatusOK), nil
}

func (c *connState) openDB(_ context.Context, d *wire.Dec) (*wire.Enc, error) {
	path := d.Str()
	if err := d.Err(); err != nil {
		return nil, err
	}
	key, err := cleanDBPath(path)
	if err != nil {
		return nil, err
	}
	// Placement gates the open before existence: a mate that still has the
	// file after a move (or never had it) must redirect, not serve.
	placeVer := c.s.opts.Directory.PlacementVersion()
	if err := c.s.checkHomed(key); err != nil {
		return nil, err
	}
	db, ok := c.s.DB(key)
	if !ok {
		// Only pre-opened databases are reachable remotely; opening
		// arbitrary paths would let clients create databases.
		return nil, fmt.Errorf("no database %q", path)
	}
	sess := db.Session(c.user)
	if sess.Identity().Level == acl.NoAccess {
		return nil, fmt.Errorf("%s has no access to %q", c.user, path)
	}
	h := c.nextH
	c.nextH++
	c.handles[h] = &handleState{db: db, sess: sess, path: key, placeVer: placeVer}
	replica := db.ReplicaID()
	return wire.NewResp(wire.OpOpenDB, wire.StatusOK).
		U32(h).Raw(replica[:]).Str(db.Title()), nil
}

func (c *connState) handle(d *wire.Dec) (*handleState, error) {
	h := d.U32()
	hs, ok := c.handles[h]
	if !ok {
		return nil, fmt.Errorf("bad database handle %d", h)
	}
	// Re-verify placement only when the directory moved something since
	// this handle's last check — the hot path costs one atomic load.
	if v := c.s.opts.Directory.PlacementVersion(); v != hs.placeVer {
		if err := c.s.checkHomed(hs.path); err != nil {
			return nil, err
		}
		hs.placeVer = v
	}
	return hs, nil
}

func (c *connState) getNote(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	unid := d.UNID()
	if err := d.Err(); err != nil {
		return nil, err
	}
	// The stored record already is the reply's note encoding
	// (nsf.AppendNote's form): it is shipped as stored, never decoded whole.
	rec, err := hs.sess.AppendRecord(c.rec[:0], unid, &c.scratch)
	if cap(rec) <= maxKeptRecord {
		c.rec = rec
	}
	if err != nil {
		return nil, err
	}
	return wire.NewResp(wire.OpGetNote, wire.StatusOK).Blob(rec), nil
}

func (c *connState) createNote(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	notes := c.requestNotes(d, 1)
	if err := d.Err(); err != nil {
		return nil, err
	}
	n := notes[0]
	n.ID = 0
	if err := hs.sess.Create(n); err != nil {
		return nil, err
	}
	return wire.NewResp(wire.OpCreateNote, wire.StatusOK).Note(n), nil
}

func (c *connState) updateNote(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	notes := c.requestNotes(d, 1)
	if err := d.Err(); err != nil {
		return nil, err
	}
	n := notes[0]
	if err := hs.sess.Update(n); err != nil {
		return nil, err
	}
	return wire.NewResp(wire.OpUpdateNote, wire.StatusOK).Note(n), nil
}

func (c *connState) deleteNote(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	unid := d.UNID()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := hs.sess.Delete(unid); err != nil {
		return nil, err
	}
	return wire.NewResp(wire.OpDeleteNote, wire.StatusOK), nil
}

// replicaID reports the database's replica ID, letting clients re-verify
// replica-set membership on a live connection (e.g. after a reconnect).
func (c *connState) replicaID(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	replica := hs.db.ReplicaID()
	return wire.NewResp(wire.OpReplicaID, wire.StatusOK).Raw(replica[:]), nil
}

// replAccess gates raw replication operations: the caller needs Editor
// access (servers replicate with server identities granted Editor or
// better).
func (c *connState) replAccess(hs *handleState, needWrite bool) error {
	level := hs.sess.Identity().Level
	if needWrite && level < acl.Editor {
		return fmt.Errorf("%s may not replicate changes into this database (level %v)", c.user, level)
	}
	if !needWrite && level < acl.Reader {
		return fmt.Errorf("%s may not read this database (level %v)", c.user, level)
	}
	return nil
}

// replChunk is how many notes/summaries replication handlers process
// between cooperative deadline checks: small enough that an abort lands
// within milliseconds, large enough to amortize the check away.
const replChunk = 256

func (c *connState) summaries(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	since := d.Cursor()
	formulaSrc := d.Str()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := c.replAccess(hs, false); err != nil {
		return nil, err
	}
	peer := &repl.LocalPeer{DB: hs.db, Ctx: ctx}
	sums, next, err := peer.Summaries(since, formulaSrc)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := wire.NewResp(wire.OpSummaries, wire.StatusOK).Cursor(next).U32(uint32(len(sums)))
	for i, s := range sums {
		if i%replChunk == replChunk-1 {
			if err := ctx.Err(); err != nil {
				resp.Release()
				return nil, err
			}
		}
		resp.Summary(s)
	}
	return resp, nil
}

func (c *connState) fetch(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	count := d.U32()
	// Clamp the count-sized preallocation to what the request could hold
	// (16 bytes per UNID); a corrupt count must not demand gigabytes.
	unids := make([]nsf.UNID, 0, d.Cap(count, 16))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		unids = append(unids, d.UNID())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := c.replAccess(hs, false); err != nil {
		return nil, err
	}
	// A stored record already is the reply's note encoding
	// (nsf.AppendNote's form): each is shipped as stored, never decoded
	// whole. The count goes in front once the notes that vanished since
	// the summary scan are known.
	resp := wire.NewResp(wire.OpFetch, wire.StatusOK).U32(0)
	countAt := len(resp.Bytes()) - 4
	shipped := 0
	peer := &repl.LocalPeer{DB: hs.db, Ctx: ctx}
	err := peer.Fetch(unids, func(rec []byte) error {
		resp.Blob(rec)
		shipped++
		return nil
	})
	if err != nil {
		resp.Release()
		return nil, err
	}
	resp.SetU32(countAt, uint32(shipped))
	return resp, nil
}

func (c *connState) apply(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	notes := c.requestNotes(d, d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := c.replAccess(hs, true); err != nil {
		return nil, err
	}
	// Apply with a deadline check every replChunk notes. A mid-batch abort
	// leaves a prefix applied — safe, because replication applies are
	// idempotent by the OID rules, and the aborted status tells the peer
	// the batch did not complete.
	var stats repl.ApplyStats
	for i, n := range notes {
		if i%replChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		st, err := repl.ApplyNote(hs.db, n, repl.ApplyOptions{})
		if err != nil {
			return nil, err
		}
		stats.Add(st)
	}
	return wire.NewResp(wire.OpApply, wire.StatusOK).ApplyStats(stats), nil
}

func (c *connState) dbInfo(_ context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	stats := hs.db.Stats()
	views := hs.db.ViewNames()
	resp := wire.NewResp(wire.OpDBInfo, wire.StatusOK).
		Str(hs.db.Title()).
		U32(uint32(stats.Notes)).
		U32(uint32(stats.Pages)).
		U32(uint32(len(views)))
	for _, v := range views {
		resp.Str(v)
	}
	return resp, nil
}

// putBatch stores a pipelined batch of documents through one admission
// slot, deduplicating against the session's durable cursor so a batch
// re-sent after a reconnect applies exactly once. A partial failure is
// reported as StatusOK with ok=0 so the client still learns the cursor
// (how far the batch got) alongside the error.
func (c *connState) putBatch(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	sessKey := d.Str()
	base := d.U64()
	count := int(d.U32())
	notes := c.requestNotes(d, uint32(count))
	if err := d.Err(); err != nil {
		return nil, err
	}
	if base == 0 || base+uint64(count) < base {
		return nil, fmt.Errorf("bad batch sequence base %d count %d", base, count)
	}
	// Scope the cursor to (user, client key, database) so neither another
	// user nor another database can collide with this session's sequence.
	key := c.user + "\x00" + sessKey + "\x00" + hs.path
	cursor := c.s.putCursor(key)
	skip := 0
	for skip < len(notes) && base+uint64(skip) <= cursor {
		skip++
	}
	fresh := notes[skip:]
	for _, n := range fresh {
		n.ID = 0 // note IDs are assigned by this server's store
	}
	applied, aerr := hs.sess.PutBatchCtx(ctx, fresh)
	if skip+applied > 0 {
		if last := base + uint64(skip+applied) - 1; last > cursor {
			cursor = last
			c.s.advancePutCursor(key, last)
		}
	}
	if aerr != nil && errors.Is(aerr, context.DeadlineExceeded) {
		// Budget spent mid-batch: the applied prefix is durable and the
		// cursor above already covers it, so the client's re-sent batch
		// (same key and base) dedups exactly — the aborted status merely
		// tells it this attempt did not finish.
		return nil, aerr
	}
	resp := wire.NewResp(wire.OpPutBatch, wire.StatusOK).
		U64(cursor).U32(uint32(applied)).U32(uint32(skip))
	if aerr != nil {
		resp.U8(0).Str(aerr.Error())
	} else {
		resp.U8(1)
	}
	return resp, nil
}

func (c *connState) mailDeposit(_ context.Context, d *wire.Dec) (*wire.Enc, error) {
	n := d.Note()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := c.s.router.Deposit(n); err != nil {
		return nil, err
	}
	return wire.NewResp(wire.OpMailDeposit, wire.StatusOK), nil
}

// meshFor returns the running mesh scheduler or a clean error when the
// mesh task is not enabled on this server.
func (c *connState) meshFor() (*mesh.Mesh, error) {
	m := c.s.Mesh()
	if m == nil {
		return nil, errors.New("mesh not enabled on this server")
	}
	return m, nil
}

func (c *connState) meshStatus(_ context.Context, d *wire.Dec) (*wire.Enc, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	m, err := c.meshFor()
	if err != nil {
		return nil, err
	}
	sts := m.Status()
	resp := wire.NewResp(wire.OpMeshStatus, wire.StatusOK).U32(uint32(len(sts)))
	for _, st := range sts {
		resp.MeshLinkStatus(st)
	}
	return resp, nil
}

func (c *connState) meshAdd(_ context.Context, d *wire.Dec) (*wire.Enc, error) {
	l := d.MeshLink()
	if err := d.Err(); err != nil {
		return nil, err
	}
	m, err := c.meshFor()
	if err != nil {
		return nil, err
	}
	if err := m.Add(l); err != nil {
		return nil, err
	}
	c.s.logf(LogMesh, "link %s added by %s", l.Name, c.user)
	return wire.NewResp(wire.OpMeshAdd, wire.StatusOK), nil
}

func (c *connState) meshRemove(_ context.Context, d *wire.Dec) (*wire.Enc, error) {
	name := d.Str()
	if err := d.Err(); err != nil {
		return nil, err
	}
	m, err := c.meshFor()
	if err != nil {
		return nil, err
	}
	if err := m.Remove(name); err != nil {
		return nil, err
	}
	c.s.logf(LogMesh, "link %s removed by %s", name, c.user)
	return wire.NewResp(wire.OpMeshRemove, wire.StatusOK), nil
}
