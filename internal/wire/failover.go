package wire

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/retry"
)

// FailoverClient is the cluster-aware client: it wraps the retry/redial
// Client with a list of cluster-mate addresses, per-mate circuit breakers,
// availability probes, and availability-weighted mate selection. When the
// current mate dies or sheds with a busy response, operations transparently
// land on a surviving mate, and every open FailoverDB handle is re-opened
// there — the same rebind discipline the PR-1 reconnect path applies
// across a redial, lifted one level up to span servers.
//
// Semantics mirror Client's: idempotent operations (and shed requests,
// which provably never executed) retry across mates; a non-idempotent
// operation that fails mid-round-trip is surfaced to the caller, because
// the dead mate may have executed it — but the next operation fails over.
//
// It is a transport, like Client: a FailoverDB is a RemoteDB whose requests
// travel through it, so no op is spelled out a second time here.

// FailoverOptions tune failover behaviour. The zero value gets defaults
// chosen for fast failover; see the field comments.
type FailoverOptions struct {
	// Client configures the per-mate connection. Zero values get
	// fast-failover defaults (1 inner retry, 20ms backoff base, 2s dial
	// timeout) rather than the standalone Client's patient ones: the
	// failover path IS the retry.
	Client Options
	// FailThreshold is how many consecutive transport failures open a
	// mate's circuit breaker (default 2).
	FailThreshold int
	// Cooldown is how long an open breaker waits before a half-open
	// probe may test the mate again (default 1s).
	Cooldown time.Duration
	// ProbeTimeout bounds one availability probe (default 1s).
	ProbeTimeout time.Duration
	// MaxFailovers bounds mate switches within one operation
	// (default 2 x number of mates).
	MaxFailovers int
	// HedgeReads enables hedged reads for the ops the op table marks
	// Hedgeable (Get, ViewPage, SearchPage): when the connected mate has
	// not answered after a delay derived from the observed latency
	// distribution, the same read is issued to a second mate and the first
	// response wins. The loser is cancelled through its propagated
	// deadline/CancelInflight, so a stalled mate costs one hedge delay
	// instead of a full timeout. Requires Client.OpBudget (the hedge rides
	// the same budget).
	HedgeReads bool
	// HedgeDelay fixes the delay before the hedge fires. Zero derives it
	// adaptively from the read-latency EWMA plus 3 x its mean deviation —
	// a cheap stand-in for "past p99", so only genuinely slow reads hedge.
	HedgeDelay time.Duration
	// HedgeRateCap bounds hedging under cluster-wide load: every hedged-
	// eligible read earns this many hedge tokens (bursting to 3) and each
	// launched hedge spends one, so at most this fraction of reads hedge
	// in steady state. When every mate is slow, hedging self-limits
	// instead of doubling the cluster's load. Default 0.1.
	HedgeRateCap float64
}

func (o FailoverOptions) withDefaults(mates int) FailoverOptions {
	if o.Client.MaxRetries == 0 {
		o.Client.MaxRetries = 1
	}
	if o.Client.BackoffBase <= 0 {
		o.Client.BackoffBase = 20 * time.Millisecond
	}
	if o.Client.DialTimeout <= 0 {
		o.Client.DialTimeout = 2 * time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.MaxFailovers <= 0 {
		o.MaxFailovers = 2 * mates
		if o.MaxFailovers < 2 {
			o.MaxFailovers = 2
		}
	}
	if o.HedgeRateCap <= 0 {
		o.HedgeRateCap = 0.1
	}
	return o
}

// breaker states for one mate.
const (
	breakerClosed = iota // healthy, eligible
	breakerOpen          // failing; only a half-open probe after cooldown may test it
)

// mate is one cluster member's address plus health bookkeeping. All fields
// are guarded by FailoverClient.mu.
type mate struct {
	addr     string
	name     string // cluster-mate name, learned from placement records
	state    int
	fails    int
	openedAt time.Time
	// reopens counts how many times the breaker has opened since the last
	// completed operation; each reopen doubles the cooldown (capped), so a
	// mate that keeps failing its half-open probes gets probed ever less
	// often instead of on a fixed beat.
	reopens    int
	avail      int // last known availability index; -1 unknown
	restricted bool
}

// effectiveAvail treats an unprobed mate optimistically so fresh mates get
// tried before a known-loaded one.
func (m *mate) effectiveAvail() int {
	if m.avail < 0 {
		return 100
	}
	return m.avail
}

// FailoverStats counts failover activity.
type FailoverStats struct {
	// Failovers is how many times the client abandoned a mate after
	// transport failures.
	Failovers uint64
	// BusyRedirects is how many shed (busy) responses caused a mate switch.
	BusyRedirects uint64
	// WrongMateRedirects is how many placement redirects re-routed the
	// session to a home mate.
	WrongMateRedirects uint64
	// Resolves is how many OpResolve placement lookups were issued.
	Resolves uint64
	// Probes is how many availability probes were sent.
	Probes uint64
	// Hedges is how many hedged reads were launched; HedgeWins how many
	// were answered by the hedge mate before the primary.
	Hedges    uint64
	HedgeWins uint64
}

// FailoverClient holds a session that survives the death of individual
// cluster mates. Requests are serialized; one FailoverClient supports
// concurrent callers.
type FailoverClient struct {
	session

	opts   FailoverOptions
	user   string
	secret string

	mu     sync.Mutex
	mates  []*mate
	cur    int // index of the connected mate; -1 when disconnected
	client *Client
	// dbs are the live handles to re-open after a mate switch, keyed by the
	// RemoteDB each one embeds (what the transport is handed).
	dbs    map[*RemoteDB]*FailoverDB
	closed bool
	stats  FailoverStats
	// routeHint, while an operation on a specific database is in flight,
	// biases connection attempts toward that database's home mates.
	routeHint *FailoverDB

	// Hedge state lives under its OWN lock: a primary read holds fc.mu for
	// its whole round trip, so the hedge path must never touch fc.mu or it
	// would deadlock behind the very stall it exists to escape.
	hmu sync.Mutex
	// hClient/hAddr/hDBs cache the hedge-side session and handles so a
	// hedge is one round trip, not dial+auth+open+read.
	hClient *Client
	hAddr   string
	hDBs    map[string]*RemoteDB
	// hInFlight serializes hedges (one cancellable hedge op at a time).
	hInFlight bool
	// hTokens is the hedge-rate token bucket (see HedgeRateCap).
	hTokens float64
	// latEwmaUs/latDevUs track read latency (EWMA and mean deviation,
	// microseconds) to derive the adaptive hedge delay.
	latEwmaUs int64
	latDevUs  int64
	// hedges/hedgeWins are atomic (not under fc.mu) because the hedge path
	// records them while a primary holds fc.mu.
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
}

// DialFailover connects to the best available mate and authenticates.
// addrs lists the cluster mates in preference order (ties in availability
// resolve to the earlier address).
func DialFailover(addrs []string, user, secret string, opts FailoverOptions) (*FailoverClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("wire: failover: no mate addresses")
	}
	fc := &FailoverClient{
		opts:   opts.withDefaults(len(addrs)),
		user:   user,
		secret: secret,
		cur:    -1,
		dbs:    make(map[*RemoteDB]*FailoverDB),
		hDBs:   make(map[string]*RemoteDB),
	}
	fc.session = session{fc}
	for _, a := range addrs {
		fc.mates = append(fc.mates, &mate{addr: a, avail: -1})
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if err := fc.connectLocked(); err != nil {
		return nil, err
	}
	return fc, nil
}

// Close terminates the current connection (and any cached hedge session).
func (fc *FailoverClient) Close() error {
	fc.hmu.Lock()
	fc.dropHedgeLocked(fc.hClient)
	fc.hmu.Unlock()
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.closed = true
	return fc.abandonLocked()
}

// User returns the authenticated user name.
func (fc *FailoverClient) User() string { return fc.user }

// Current returns the address of the connected mate, if any.
func (fc *FailoverClient) Current() (string, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.cur < 0 {
		return "", false
	}
	return fc.mates[fc.cur].addr, true
}

// Stats returns a snapshot of failover activity.
func (fc *FailoverClient) Stats() FailoverStats {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	st := fc.stats
	st.Hedges = fc.hedges.Load()
	st.HedgeWins = fc.hedgeWins.Load()
	return st
}

// ProbeAll probes every mate's availability, updating the selection state,
// and returns the results keyed by address (failed probes are omitted).
func (fc *FailoverClient) ProbeAll() map[string]AvailabilityInfo {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	out := make(map[string]AvailabilityInfo, len(fc.mates))
	for i := range fc.mates {
		if info, err := fc.probeLocked(i); err == nil {
			out[fc.mates[i].addr] = info
		}
	}
	return out
}

// probeLocked sends one availability probe to mate i and folds the answer
// into its health state. A failed probe counts as a breaker failure.
func (fc *FailoverClient) probeLocked(i int) (AvailabilityInfo, error) {
	m := fc.mates[i]
	fc.stats.Probes++
	info, err := ProbeAvailability(m.addr, fc.opts.Client.Dialer, fc.opts.ProbeTimeout)
	if err != nil {
		fc.markFailLocked(i)
		return AvailabilityInfo{}, err
	}
	m.avail = info.Index
	m.restricted = info.Restricted()
	return info, nil
}

// markFailLocked records a transport failure against mate i; enough
// consecutive failures open its breaker.
func (fc *FailoverClient) markFailLocked(i int) {
	m := fc.mates[i]
	m.fails++
	if m.fails >= fc.opts.FailThreshold && m.state != breakerOpen {
		m.state = breakerOpen
		m.openedAt = time.Now()
		m.reopens++
	} else if m.state == breakerOpen {
		m.openedAt = time.Now() // restart the cooldown
	}
}

// cooldownLocked is how long mate m's open breaker waits before a
// half-open probe: the configured Cooldown doubled per reopen (shared
// retry.Exp shape), capped at 8x, so a persistently dead mate is probed on
// a backing-off schedule rather than a fixed beat.
func (fc *FailoverClient) cooldownLocked(m *mate) time.Duration {
	return retry.Exp(fc.opts.Cooldown, m.reopens-1, 8*fc.opts.Cooldown)
}

// abandonLocked drops the current connection (if any).
func (fc *FailoverClient) abandonLocked() error {
	var err error
	if fc.client != nil {
		err = fc.client.Close()
		fc.client = nil
	}
	fc.cur = -1
	return err
}

// candidatesLocked orders the mates for a connection attempt: healthy
// (breaker closed, not restricted) mates first by availability index
// descending, then — as a last resort, because serving degraded beats not
// serving — open-breaker and restricted mates by availability. Open or
// restricted mates are probed before a full dial, which is the half-open
// breaker transition.
func (fc *FailoverClient) candidatesLocked() []int {
	var healthy, fallback []int
	now := time.Now()
	for i, m := range fc.mates {
		eligible := m.state == breakerClosed ||
			(m.state == breakerOpen && now.Sub(m.openedAt) >= fc.cooldownLocked(m))
		if eligible && !m.restricted {
			healthy = append(healthy, i)
		} else {
			fallback = append(fallback, i)
		}
	}
	byAvail := func(ix []int) {
		// Stable, so ties keep the configured preference order.
		slices.SortStableFunc(ix, func(a, b int) int {
			return fc.mates[b].effectiveAvail() - fc.mates[a].effectiveAvail()
		})
	}
	byAvail(healthy)
	byAvail(fallback)
	order := append(healthy, fallback...)
	// When the attempt is on behalf of a placed database, its home mates go
	// first (stably, keeping the availability order within each partition):
	// dialing a non-home mate can only earn a redirect. Non-home mates stay
	// as fallback — they can still teach us fresher placement.
	if hint := fc.routeHint; hint != nil && hint.resolved && len(hint.homes) > 0 {
		var home, rest []int
		for _, i := range order {
			if hint.homesMate(fc.mates[i]) {
				home = append(home, i)
			} else {
				rest = append(rest, i)
			}
		}
		order = append(home, rest...)
	}
	return order
}

// homesMate reports whether m is in the database's cached home set, matched
// by address or learned mate name.
func (f *FailoverDB) homesMate(m *mate) bool {
	for _, h := range f.homes {
		if h.Addr != "" && h.Addr == m.addr {
			return true
		}
		if h.Name != "" && m.name != "" && h.Name == m.name {
			return true
		}
	}
	return false
}

// noteRecordLocked folds a placement record (from an OpResolve or a
// StatusWrongMate redirect) into the client: every matching database handle
// with an older generation adopts it, and home addresses we have never seen
// become new mates — a redirect can teach the client about cluster members
// it was not configured with.
func (fc *FailoverClient) noteRecordLocked(path string, gen uint64, homes []HomeAddr) {
	for _, db := range fc.dbs {
		if db.path != path {
			continue
		}
		if db.resolved && gen < db.gen {
			continue // stale record: keep the fresher cache
		}
		db.gen = gen
		db.homes = append([]HomeAddr(nil), homes...)
		db.resolved = true
	}
	for _, h := range homes {
		if h.Addr == "" {
			continue
		}
		known := false
		for _, m := range fc.mates {
			if m.addr == h.Addr {
				if m.name == "" {
					m.name = h.Name
				}
				known = true
				break
			}
		}
		if !known {
			fc.mates = append(fc.mates, &mate{addr: h.Addr, name: h.Name, avail: -1})
		}
	}
}

// offHomeLocked returns a synthetic redirect when db's cached placement says
// the currently connected mate does not home it — saving the round trip the
// server would refuse anyway.
func (fc *FailoverClient) offHomeLocked(db *FailoverDB) error {
	if !db.resolved || len(db.homes) == 0 || fc.cur < 0 {
		return nil
	}
	if db.homesMate(fc.mates[fc.cur]) {
		return nil
	}
	return &WrongMateError{Op: OpOpenDB, Path: db.path, Generation: db.gen,
		Homes: append([]HomeAddr(nil), db.homes...)}
}

// connectLocked dials the best candidate mate, authenticates, and re-opens
// every registered FailoverDB handle there. On success the breaker closes.
func (fc *FailoverClient) connectLocked() error {
	var firstErr error
	for _, i := range fc.candidatesLocked() {
		m := fc.mates[i]
		if m.state == breakerOpen || m.restricted {
			// Half-open: one cheap probe decides whether the mate gets a
			// real dial. A restricted (draining) mate is skipped until a
			// probe says it is open again.
			info, err := fc.probeLocked(i)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if info.Restricted() {
				if firstErr == nil {
					firstErr = fmt.Errorf("wire: failover: mate %s is RESTRICTED", m.addr)
				}
				continue
			}
		}
		c, err := DialOptions(m.addr, fc.user, fc.secret, fc.opts.Client)
		if err != nil {
			fc.markFailLocked(i)
			if firstErr == nil || !Retryable(firstErr) {
				firstErr = err
			}
			continue
		}
		if err := fc.rebindLocked(c); err != nil {
			c.Close()
			fc.markFailLocked(i)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// A successful dial closes the breaker but does NOT clear the
		// failure count — a mate that accepts connections and then dies on
		// every operation would otherwise never trip it. Only a completed
		// operation (withFailover) proves health and resets the count.
		fc.client, fc.cur = c, i
		m.state, m.restricted = breakerClosed, false
		return nil
	}
	if firstErr == nil {
		firstErr = errors.New("wire: failover: no reachable mate")
	}
	return fmt.Errorf("wire: failover: all %d mates unreachable: %w", len(fc.mates), firstErr)
}

// rebindLocked re-opens every registered handle on a fresh client. A
// database missing on this mate — or homed elsewhere (placement redirect) —
// poisons only that handle (matching the Client reconnect rules); transport
// errors fail the whole attempt. A redirect also refreshes that handle's
// placement cache, so its next operation re-routes instead of failing.
func (fc *FailoverClient) rebindLocked(c *Client) error {
	for _, db := range fc.dbs {
		err := fc.bindLocked(c, db)
		if err == nil {
			continue
		}
		var wme *WrongMateError
		if errors.As(err, &wme) {
			fc.noteRecordLocked(wme.Path, wme.Generation, wme.Homes)
		}
		switch classify(err) {
		case verdictMisrouted, verdictFatal:
			db.stale = err
		default:
			return err
		}
	}
	return nil
}

// bindLocked opens db on c and records c as the session it is bound to.
func (fc *FailoverClient) bindLocked(c *Client, db *FailoverDB) error {
	err := c.open(&db.RemoteDB)
	if err == nil {
		db.bound = c
	}
	return err
}

// openLocked is the OpenDB attempt of the failover loop: bind db on the
// current mate, resolving its placement first so a mate known to be wrong is
// never asked.
func (fc *FailoverClient) openLocked(db *FailoverDB) error {
	if db.bound == fc.client {
		return nil // a connectLocked rebind already bound it
	}
	if db.stale != nil {
		return db.stale // this mate lacks (or does not home) the database
	}
	if !db.resolved {
		// Eager resolve on first open: one cheap pre-auth-grade RPC on the
		// live session tells us the home set before we risk a redirect. A
		// resolve failure is not fatal — the open itself carries the same
		// information in its redirect.
		fc.stats.Resolves++
		if info, rerr := fc.client.Resolve(db.path); rerr == nil {
			fc.noteRecordLocked(info.Path, info.Generation, info.Homes)
			if !db.resolved || info.Generation >= db.gen {
				db.gen = info.Generation
				db.homes = append([]HomeAddr(nil), info.Homes...)
				db.resolved = true
			}
		}
	}
	// With a fresh cache, redirect ourselves instead of asking a mate we
	// know is wrong.
	if werr := fc.offHomeLocked(db); werr != nil {
		return werr
	}
	return fc.bindLocked(fc.client, db)
}

// roundTrip implements transport: one request against whichever mate is
// current, failing over — and, for hedgeable reads, racing a second mate —
// as the op table allows.
func (fc *FailoverClient) roundTrip(db *RemoteDB, req *Enc) (*Dec, error) {
	if !fc.opts.HedgeReads || !req.op().Info().Hedgeable {
		return fc.failover(db, req, time.Time{})
	}
	return fc.hedged(db, req)
}

// forget implements transport: db is no longer re-opened after failover.
func (fc *FailoverClient) forget(db *RemoteDB) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	delete(fc.dbs, db)
	if fc.client != nil {
		fc.client.forget(db)
	}
}

// failover runs one operation with mate failover under an absolute
// deadline. A nil req opens db on whichever mate ends up current instead of
// sending a prepared request. Shed (busy) responses, placement redirects,
// and — for idempotent operations — transport failures move the session to
// the next-best mate and retry, bounded by MaxFailovers; connection attempts
// are biased toward db's home mates. Application errors never fail over.
//
// A zero deadline is stamped from Client.OpBudget (when set), so ONE user
// budget spans every mate switch and retry: each hop adopts the same
// absolute deadline and its wire envelope carries only what remains.
func (fc *FailoverClient) failover(db *RemoteDB, req *Enc, deadline time.Time) (*Dec, error) {
	op := OpOpenDB
	if req != nil {
		op = req.op()
	}
	idempotent := op.Info().Idempotent
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fdb := fc.dbs[db] // nil for server-level ops
	fc.routeHint = fdb
	if deadline.IsZero() && fc.opts.Client.OpBudget > 0 {
		deadline = time.Now().Add(fc.opts.Client.OpBudget)
	}
	defer func() {
		fc.routeHint = nil
		if !deadline.IsZero() && fc.client != nil {
			fc.client.setOpDeadline(time.Time{})
		}
	}()
	for switches := 0; ; switches++ {
		if fc.closed {
			return nil, ErrClosed
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) && switches > 0 {
			// Budget spent between hops: every abandoned attempt ended in
			// a provably-not-executed state (shed, redirect, refused) or
			// was idempotent, so this expiry is unambiguous.
			return nil, &DeadlineError{}
		}
		if fc.client == nil {
			if err := fc.connectLocked(); err != nil {
				return nil, err
			}
		}
		if !deadline.IsZero() {
			fc.client.setOpDeadline(deadline)
		}
		var d *Dec
		var err error
		if req == nil {
			err = fc.openLocked(fdb)
		} else {
			d, err = fc.client.roundTrip(db, req)
		}
		if err == nil {
			m := fc.mates[fc.cur]
			m.fails, m.reopens = 0, 0
			return d, nil
		}
		switch classify(err) {
		case verdictExpired:
			// The budget is spent; a failover hop would run on the same
			// exhausted budget. Surface it — preserving the ambiguity
			// verdict, which the caller needs for non-idempotent ops. A
			// LOCAL mid-op expiry additionally means the transport died
			// under the op (a stalled mate our own deadline had to cut),
			// so count it against the mate: the breaker steers the NEXT
			// operation elsewhere instead of feeding the stall another
			// budget. A remote verdict or a pre-send refusal says nothing
			// bad about the mate.
			var de *DeadlineError
			if errors.As(err, &de) && !de.Remote && de.Ambiguous {
				fc.markFailLocked(fc.cur)
				fc.abandonLocked()
			}
			return nil, err
		case verdictShed:
			// The mate shed the request before executing it: remember how
			// loaded it is, then redirect — safe even for non-idempotent
			// operations.
			var be *BusyError
			errors.As(err, &be)
			m := fc.mates[fc.cur]
			m.avail = be.Availability
			m.restricted = be.State == StateRestricted
			fc.stats.BusyRedirects++
		case verdictMisrouted:
			// Placement redirect: the request never executed. Adopt the
			// carried home set (fresher generation wins), then reconnect —
			// the route hint steers the dial to a home mate. Safe for
			// non-idempotent operations, like a busy shed.
			var wme *WrongMateError
			errors.As(err, &wme)
			fc.noteRecordLocked(wme.Path, wme.Generation, wme.Homes)
			fc.stats.WrongMateRedirects++
		case verdictSevered:
			// Transport failure: the inner client already spent its (short)
			// retry/redial budget against this mate. Count it, open the path
			// to the breaker, and fail over — unless the dead mate may have
			// executed the request: then surface the failure, and the NEXT
			// operation finds a live mate.
			fc.markFailLocked(fc.cur)
			fc.stats.Failovers++
			if !idempotent {
				fc.abandonLocked()
				return nil, err
			}
		default:
			// An application error (the mate is healthy), or an op severed
			// by CancelInflight because a hedge won elsewhere (the mate did
			// nothing wrong: no breaker damage, no failover).
			return nil, err
		}
		fc.abandonLocked()
		if switches >= fc.opts.MaxFailovers {
			return nil, err
		}
	}
}

// OpenDB opens a database by path, returning a handle that follows the
// session across mate failover: after a switch, the handle is re-opened on
// the new mate before any operation runs.
func (fc *FailoverClient) OpenDB(path string) (*FailoverDB, error) {
	db := &FailoverDB{fc: fc, RemoteDB: RemoteDB{t: fc, path: path, putKey: nsf.NewUNID().String()}}
	fc.mu.Lock()
	fc.dbs[&db.RemoteDB] = db // registered first so a failover rebinds it too
	fc.mu.Unlock()
	if _, err := fc.failover(&db.RemoteDB, nil, time.Time{}); err != nil {
		db.Release()
		return nil, err
	}
	return db, nil
}

// FailoverDB is a database handle that survives mate failover: a RemoteDB
// whose requests travel through the FailoverClient, plus the placement
// cache that steers them. It implements repl.Peer, so a replication session
// can ride through the death of the server it started against.
//
// Scan cursors are bound to the server that minted them (NoteIDs are
// per-copy), so a ScanPage resumed after a mate switch fails with a server
// error rather than silently skipping or repeating documents; callers
// restart the scan with a nil cursor in that case. View and search pages
// address rows by index and rank, so they simply continue on the new mate.
type FailoverDB struct {
	RemoteDB
	fc *FailoverClient
	// bound is the mate session the handle is currently open on. It and the
	// placement cache below are guarded by fc.mu.
	bound *Client
	// Placement cache: the generation-stamped home set from the last
	// resolve or redirect. resolved=false means never resolved; resolved
	// with no homes means unplaced (any mate serves).
	gen      uint64
	homes    []HomeAddr
	resolved bool
}

// Placement returns the handle's cached placement: the generation and home
// set learned from the last resolve or redirect, and whether any resolution
// has happened yet.
func (f *FailoverDB) Placement() (gen uint64, homes []HomeAddr, resolved bool) {
	f.fc.mu.Lock()
	defer f.fc.mu.Unlock()
	return f.gen, append([]HomeAddr(nil), f.homes...), f.resolved
}

var _ repl.Peer = (*FailoverDB)(nil)

// ---- hedged reads ----

// hedgeBurst is the token-bucket depth for HedgeRateCap: short bursts of
// hedges are fine, sustained hedging is capped at the configured fraction.
const hedgeBurst = 3.0

// hedgeDelayLocked derives the delay before a hedge fires (fc.hmu held):
// the fixed HedgeDelay when configured, else latency EWMA + 3 x mean
// deviation — reads slower than that are in the distribution's far tail,
// which is exactly when a second mate is likely to answer first.
func (fc *FailoverClient) hedgeDelayLocked() time.Duration {
	if fc.opts.HedgeDelay > 0 {
		return fc.opts.HedgeDelay
	}
	d := time.Duration(fc.latEwmaUs+3*fc.latDevUs) * time.Microsecond
	const floor = 2 * time.Millisecond
	if d < floor {
		// Also the cold-start delay before any latency has been observed.
		return floor
	}
	return d
}

// recordReadLatency folds one successful read's duration into the EWMA and
// mean-deviation trackers (TCP-RTT-style gains: 1/8 and 1/4).
func (fc *FailoverClient) recordReadLatency(d time.Duration) {
	us := d.Microseconds()
	fc.hmu.Lock()
	if fc.latEwmaUs == 0 {
		fc.latEwmaUs = us
	} else {
		diff := us - fc.latEwmaUs
		fc.latEwmaUs += diff / 8
		if diff < 0 {
			diff = -diff
		}
		fc.latDevUs += (diff - fc.latDevUs) / 4
	}
	fc.hmu.Unlock()
}

// takeHedgeToken accrues HedgeRateCap tokens for an eligible read and
// tries to spend one; false means the rate cap says no hedge this time.
// It also claims the single hedge-in-flight slot.
func (fc *FailoverClient) takeHedgeToken() bool {
	fc.hmu.Lock()
	defer fc.hmu.Unlock()
	fc.hTokens += fc.opts.HedgeRateCap
	if fc.hTokens > hedgeBurst {
		fc.hTokens = hedgeBurst
	}
	if fc.hTokens < 1 || fc.hInFlight {
		return false
	}
	fc.hTokens--
	fc.hInFlight = true
	return true
}

// hedgeExec runs one read against a cached second-mate session, bounded by
// the same absolute deadline as the primary. alts lists acceptable hedge
// addresses (never the primary's). req is the hedge's own copy of the
// request and is released here. Must be entered with the hedge-in-flight
// slot held; it is released here too.
func (fc *FailoverClient) hedgeExec(path string, deadline time.Time, alts []string, req *Enc) (*Dec, error) {
	defer func() {
		req.Release()
		fc.hmu.Lock()
		fc.hInFlight = false
		fc.hmu.Unlock()
	}()
	fc.hmu.Lock()
	// Reuse the cached hedge session only while it points at an acceptable
	// mate; a stale one (e.g. now the primary) is dropped.
	if fc.hClient == nil || !slices.Contains(alts, fc.hAddr) {
		fc.dropHedgeLocked(fc.hClient)
		c, err := DialOptions(alts[0], fc.user, fc.secret, fc.opts.Client)
		if err != nil {
			fc.hmu.Unlock()
			return nil, err
		}
		fc.hClient, fc.hAddr = c, alts[0]
	}
	hc := fc.hClient
	rdb := fc.hDBs[path]
	fc.hmu.Unlock()
	if rdb == nil {
		r, err := hc.OpenDB(path)
		if err != nil {
			return nil, err
		}
		fc.hmu.Lock()
		if fc.hClient == hc {
			fc.hDBs[path] = r
		}
		fc.hmu.Unlock()
		rdb = r
	}
	hc.setOpDeadline(deadline)
	d, err := hc.roundTrip(rdb, req)
	hc.setOpDeadline(time.Time{})
	if err != nil && Retryable(err) {
		// Transport fault: the cached session is suspect; drop it so the
		// next hedge dials fresh (possibly a different mate).
		fc.hmu.Lock()
		fc.dropHedgeLocked(hc)
		fc.hmu.Unlock()
	}
	return d, err
}

// dropHedgeLocked closes the cached hedge session and forgets its handles,
// if hc is (still) that session (fc.hmu held).
func (fc *FailoverClient) dropHedgeLocked(hc *Client) {
	if hc != nil && fc.hClient == hc {
		hc.Close()
		fc.hClient = nil
		fc.hDBs = make(map[string]*RemoteDB)
	}
}

// hedgeCancel severs an in-flight hedge (the primary won).
func (fc *FailoverClient) hedgeCancel() {
	fc.hmu.Lock()
	hc := fc.hClient
	fc.hmu.Unlock()
	if hc != nil {
		hc.CancelInflight()
	}
}

// hedgeSnapshot captures, under fc.mu, everything a hedged read needs
// before launching its primary goroutine: the primary client (to cancel it
// if the hedge wins), the operation deadline, and the alternate mate
// addresses. ok is false when hedging cannot apply (no budget, no second
// mate, no live session yet).
func (fc *FailoverClient) hedgeSnapshot(db *RemoteDB) (pc *Client, deadline time.Time, alts []string, ok bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.closed || fc.client == nil || fc.cur < 0 || fc.opts.Client.OpBudget <= 0 {
		return nil, time.Time{}, nil, false
	}
	deadline = time.Now().Add(fc.opts.Client.OpBudget)
	cur := fc.mates[fc.cur].addr
	// Candidate order honors breakers and availability; home-mate bias
	// applies when the database is placed.
	fc.routeHint = fc.dbs[db]
	order := fc.candidatesLocked()
	fc.routeHint = nil
	for _, i := range order {
		if a := fc.mates[i].addr; a != cur {
			alts = append(alts, a)
		}
	}
	if len(alts) == 0 {
		return nil, time.Time{}, nil, false
	}
	return fc.client, deadline, alts, true
}

// hedgeResult carries one racer's outcome.
type hedgeResult struct {
	d     *Dec
	err   error
	hedge bool
}

// hedged runs one hedgeable read: the primary mate gets a head start of one
// hedge delay; if it has not answered by then (and the rate cap allows),
// the same request goes to a second mate and the first success wins. The
// loser is cancelled — via CancelInflight plus the propagated deadline — so
// neither mate keeps working for a caller that already has its answer. The
// race is between two raw round trips; only the winner's response body is
// handed back to be decoded.
func (fc *FailoverClient) hedged(db *RemoteDB, req *Enc) (*Dec, error) {
	start := time.Now()
	pc, deadline, alts, ok := fc.hedgeSnapshot(db)
	if !ok {
		d, err := fc.failover(db, req, time.Time{})
		if err == nil {
			fc.recordReadLatency(time.Since(start))
		}
		return d, err
	}
	// The hedge sends its own copy, taken before the primary starts: the
	// primary stamps its mate's handle into req while it runs.
	spare := req.clone()
	ch := make(chan hedgeResult, 2) // one slot per racer: neither ever blocks
	go func() {
		d, err := fc.failover(db, req, deadline)
		ch <- hedgeResult{d: d, err: err}
	}()
	fc.hmu.Lock()
	delay := fc.hedgeDelayLocked()
	fc.hmu.Unlock()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var hedgeLaunched bool
	var first hedgeResult
	select {
	case first = <-ch:
	case <-timer.C:
		if fc.takeHedgeToken() {
			hedgeLaunched = true
			fc.hedges.Add(1)
			go func() {
				d, err := fc.hedgeExec(db.path, deadline, alts, spare)
				ch <- hedgeResult{d: d, err: err, hedge: true}
			}()
		}
		first = <-ch
	}
	if !hedgeLaunched {
		spare.Release()
		if first.err == nil {
			fc.recordReadLatency(time.Since(start))
		}
		return first.d, first.err
	}
	// Two racers in flight. First success wins; the loser is severed so it
	// stops consuming its mate.
	if first.err == nil {
		if first.hedge {
			fc.hedgeWins.Add(1)
			pc.CancelInflight()
			// Drain the primary's (cancelled) result so the goroutine is
			// done with fc.mu and with req before we return; CancelInflight
			// makes this prompt.
			<-ch
			return first.d, nil
		}
		fc.recordReadLatency(time.Since(start))
		fc.hedgeCancel()
		return first.d, nil
	}
	second := <-ch
	if second.err == nil {
		if second.hedge {
			fc.hedgeWins.Add(1)
		} else {
			fc.recordReadLatency(time.Since(start))
		}
		return second.d, nil
	}
	// Both failed: prefer the primary's error (it carries failover context
	// and ambiguity verdicts; the hedge was best-effort).
	if first.hedge {
		return nil, second.err
	}
	return nil, first.err
}
