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

// FailoverOptions tune failover behaviour. The zero value gets defaults
// chosen for fast failover; see the field comments.
type FailoverOptions struct {
	// Client configures the session. Zero values get fast-failover
	// defaults (1 retry in place, 20ms backoff base, 2s dial timeout) rather
	// than the stand-alone Client's patient ones: with mates to move to,
	// moving IS the retry.
	Client Options
	// FailThreshold is how many consecutive transport failures open a
	// mate's circuit breaker (default 2).
	FailThreshold int
	// Cooldown is how long an open breaker waits before a half-open
	// probe may test the mate again (default 1s).
	Cooldown time.Duration
	// ProbeTimeout bounds one availability probe (default 1s).
	ProbeTimeout time.Duration
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

func (o FailoverOptions) withDefaults() FailoverOptions {
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
// are guarded by the Client lock.
type mate struct {
	addr     string
	name     string // cluster-mate name, learned from placement records
	state    int
	fails    int
	openedAt time.Time
	// reopens counts how many times the breaker has opened since the last
	// completed operation; each reopen doubles the cooldown (capped at 8x),
	// so a mate that keeps failing its half-open probes gets probed ever
	// less often instead of on a fixed beat.
	reopens int
	// avail is the last known availability index. A mate nobody has heard
	// from starts at 100, so fresh mates get tried before a known-loaded one.
	avail      int
	restricted bool
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

// placement is the cached routing record of one database path: the
// generation-stamped home set from the last resolve or redirect. resolved
// false means nothing is known yet; resolved with no homes means unplaced
// (any mate serves).
type placement struct {
	gen      uint64
	homes    []HomeAddr
	resolved bool
}

// FailoverClient holds a session that survives the death of individual
// cluster mates. Requests are serialized; one FailoverClient supports
// concurrent callers.
//
// It retries nothing itself: it is the routing policy (see route) of one
// Client, whose attempt loop asks it where to dial and, once a mate's
// in-place retries are spent, where the operation should go next. It owns what a stand-alone client has no use for —
// the mate list, per-mate circuit breakers, availability probes,
// availability- and placement-weighted mate selection, redirect learning —
// plus hedged reads. The semantics are therefore Client's, across mates:
// idempotent operations (and shed or redirected requests, which provably
// never executed) land on a better mate, where the loop re-opens every
// registered handle as it does across a redial; a non-idempotent operation
// that fails mid-round-trip is surfaced, because the dead mate may have
// executed it, and the next operation lands on a live one. With a single
// mate nothing is left to route and it behaves as a bare Client.
type FailoverClient struct {
	session

	opts FailoverOptions
	// c runs every operation. Its lock guards the routing state below, so an
	// operation takes one mutex however many mates it visits.
	c *Client

	mates []*mate
	// cur indexes the mate the session was last dialed on; -1 once a
	// connect found no mate at all.
	cur    int
	places map[string]*placement
	stats  FailoverStats

	// Hedge state lives under its OWN lock: a primary read holds the client
	// lock for its whole round trip, so the hedge path must never touch it
	// or it would deadlock behind the very stall it exists to escape.
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
	// hedges/hedgeWins are atomic (not under the client lock) because the
	// hedge path records them while a primary holds it.
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
		opts:   opts.withDefaults(),
		cur:    -1,
		places: make(map[string]*placement),
		hDBs:   make(map[string]*RemoteDB),
	}
	fc.session = session{fc}
	for _, a := range addrs {
		fc.mates = append(fc.mates, &mate{addr: a, avail: 100})
	}
	fc.c = newClient(fc, user, secret, fc.opts.Client.withDefaults())
	if _, err := fc.c.do(nil, nil, time.Time{}); err != nil {
		return nil, err
	}
	return fc, nil
}

// Close terminates the current connection (and any cached hedge session).
func (fc *FailoverClient) Close() error {
	fc.hmu.Lock()
	fc.dropHedgeLocked(fc.hClient)
	fc.hmu.Unlock()
	return fc.c.Close()
}

// User returns the authenticated user name.
func (fc *FailoverClient) User() string { return fc.c.user }

// Current returns the address of the connected mate, if any.
func (fc *FailoverClient) Current() (string, bool) {
	fc.c.mu.Lock()
	defer fc.c.mu.Unlock()
	if fc.c.conn == nil {
		return "", false
	}
	return fc.c.addr, true
}

// Stats returns a snapshot of failover activity.
func (fc *FailoverClient) Stats() FailoverStats {
	fc.c.mu.Lock()
	defer fc.c.mu.Unlock()
	st := fc.stats
	st.Hedges = fc.hedges.Load()
	st.HedgeWins = fc.hedgeWins.Load()
	return st
}

// probeLocked sends one availability probe to mate i and folds the answer
// into its health state. A failed probe counts as a breaker failure; a mate
// that answers RESTRICTED is healthy but not to be dialed.
func (fc *FailoverClient) probeLocked(i int) error {
	m := fc.mates[i]
	fc.stats.Probes++
	info, err := ProbeAvailability(m.addr, fc.opts.Client.Dialer, fc.opts.ProbeTimeout)
	if err != nil {
		fc.markFailLocked(i)
		return err
	}
	m.avail, m.restricted = info.Index, info.Restricted()
	if m.restricted {
		return fmt.Errorf("wire: failover: mate %s is RESTRICTED", m.addr)
	}
	return nil
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

// candidatesLocked orders the mates for a connection attempt. When the
// attempt is on behalf of a placed database its home mates go first: a
// non-home mate can only earn a redirect, though it stays as a fallback that
// may teach us fresher placement. Within that, healthy mates (breaker closed
// or cooled down, not restricted) precede open-breaker and restricted ones —
// a last resort, because serving degraded beats not serving, and probed by
// connect before a full dial, which is the half-open breaker transition.
// Ties go to the higher availability index, then the configured order.
func (fc *FailoverClient) candidatesLocked(db *RemoteDB) []int {
	var p *placement
	if db != nil {
		p = fc.places[db.path]
	}
	now := time.Now()
	rank := func(i int) (r int) {
		m := fc.mates[i]
		if p != nil && p.resolved && len(p.homes) > 0 && !p.homesMate(m) {
			r += 2
		}
		cooldown := retry.Exp(fc.opts.Cooldown, m.reopens-1, 8*fc.opts.Cooldown)
		if m.restricted || m.state == breakerOpen && now.Sub(m.openedAt) < cooldown {
			r++
		}
		return r
	}
	order := make([]int, len(fc.mates))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if d := rank(a) - rank(b); d != 0 {
			return d
		}
		return fc.mates[b].avail - fc.mates[a].avail
	})
	return order
}

// homesMate reports whether m is in the cached home set, matched
// by address or learned mate name.
func (p *placement) homesMate(m *mate) bool {
	for _, h := range p.homes {
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
// StatusWrongMate redirect) into the client: the path's cache adopts it
// unless it already holds a fresher generation, and home addresses we have
// never seen become new mates — a redirect can teach the client about
// cluster members it was not configured with.
func (fc *FailoverClient) noteRecordLocked(path string, gen uint64, homes []HomeAddr) {
	if p := fc.places[path]; p != nil && (!p.resolved || gen >= p.gen) {
		p.gen, p.homes, p.resolved = gen, append([]HomeAddr(nil), homes...), true
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
			fc.mates = append(fc.mates, &mate{addr: h.Addr, name: h.Name, avail: 100})
		}
	}
}

// connect implements route: dial the best candidate mate. On success the
// breaker closes. A candidate that cannot be dialed has had its turn — one
// dial, one breaker failure — and the walk moves on; past the last one no
// address holds the turn and the operation surfaces the failure.
//
// Each candidate's session (hello, handle re-opens) gets an OpBudget of its
// own: on what is left of the operation's, a mate that accepts and then
// stalls would eat it all, and every healthy mate behind it would be refused
// locally — and blamed. A lone mate has nobody behind it: it is dialed as a
// bare Client dials its server (no probe, the operation's budget) and keeps
// the turn if the dial fails.
func (fc *FailoverClient) connect(c *Client, db *RemoteDB) error {
	lone := len(fc.mates) == 1
	fc.cur = -1
	var firstErr error
	for _, i := range fc.candidatesLocked(db) {
		m := fc.mates[i]
		if !lone && (m.state == breakerOpen || m.restricted) {
			// Half-open: one cheap probe decides whether the mate gets a
			// real dial. A restricted (draining) mate is skipped until a
			// probe says it is open again.
			if err := fc.probeLocked(i); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
		}
		if err := c.dialLocked(m.addr, !lone); err != nil {
			if lone {
				fc.cur = i
				return err
			}
			fc.markFailLocked(i)
			if firstErr == nil || !Retryable(firstErr) {
				firstErr = err
			}
			continue
		}
		// A successful dial closes the breaker but does NOT clear the
		// failure count — a mate that accepts connections and then dies on
		// every operation would otherwise never trip it. Only a completed
		// operation (served) proves health and resets the count.
		fc.cur = i
		m.state, m.restricted = breakerClosed, false
		return nil
	}
	c.addr = ""
	if firstErr == nil {
		firstErr = errors.New("wire: failover: no reachable mate")
	}
	return fmt.Errorf("wire: failover: all %d mates unreachable: %w", len(fc.mates), firstErr)
}

// placed implements route: before db is opened on the connected mate, learn
// where it lives, and redirect ourselves instead of asking a mate the cache
// says is wrong.
func (fc *FailoverClient) placed(c *Client, db *RemoteDB) error {
	p := fc.places[db.path]
	if p == nil {
		// Eager resolve on a path's first open: one cheap RPC on the live
		// session tells us the home set before we risk a redirect. It is
		// best effort and not repeated — the open itself carries the same
		// information in its redirect — but a session that died under the
		// resolve has to be redialed before anything can be opened.
		p = &placement{}
		fc.places[db.path] = p
		fc.stats.Resolves++
		req := NewEnc(OpResolve).Str(db.path)
		d, err := c.doLocked(req)
		req.Release()
		if err != nil && c.conn == nil {
			return err
		}
		if err == nil {
			if recs, err := decResolveRecords(d); err == nil && len(recs) == 1 {
				fc.noteRecordLocked(db.path, recs[0].Generation, recs[0].Homes)
			}
		}
	}
	if p.resolved && len(p.homes) > 0 && !p.homesMate(fc.mates[fc.cur]) {
		return &WrongMateError{Op: OpOpenDB, Path: db.path, Generation: p.gen,
			Homes: append([]HomeAddr(nil), p.homes...)}
	}
	return nil
}

// served implements route: a completed operation proves the mate healthy.
func (fc *FailoverClient) served() {
	m := fc.mates[fc.cur]
	m.fails, m.reopens = 0, 0
}

// failed implements route: remember what the spent turn says about the
// connected mate, and give another mate a turn while there are other mates
// and the operation has moved fewer than two times per mate.
func (fc *FailoverClient) failed(v verdict, err error, hops int) bool {
	if fc.cur < 0 {
		return false // connect found no mate: every address was just tried
	}
	m := fc.mates[fc.cur]
	switch v {
	case verdictExpired:
		// A LOCAL mid-op expiry means our own deadline had to cut a stalled
		// mate, so count it against the mate: the breaker steers the NEXT
		// operation elsewhere instead of feeding the stall another budget. A
		// remote verdict or a pre-send refusal says nothing bad about it.
		var de *DeadlineError
		if errors.As(err, &de) && !de.Remote && de.Ambiguous {
			fc.markFailLocked(fc.cur)
		}
		return false
	case verdictShed:
		// Remember how loaded the mate is: the candidate order follows.
		var be *BusyError
		errors.As(err, &be)
		m.avail, m.restricted = be.Availability, be.State == StateRestricted
		fc.stats.BusyRedirects++
	case verdictMisrouted:
		// Adopt the carried home set (fresher generation wins); the next
		// connect for this database dials a home mate first.
		var wme *WrongMateError
		errors.As(err, &wme)
		fc.noteRecordLocked(wme.Path, wme.Generation, wme.Homes)
		fc.stats.WrongMateRedirects++
	case verdictSevered:
		// Count the transport failure toward the breaker. If the dead mate
		// may have executed the request the loop surfaces the failure
		// anyway, and the NEXT operation finds a live mate.
		fc.markFailLocked(fc.cur)
		fc.stats.Failovers++
	default:
		return false // an application error: the mate is healthy
	}
	return len(fc.mates) > 1 && hops < 2*len(fc.mates)
}

// roundTrip implements transport: the client's loop, racing a second mate
// in front of it for hedgeable reads.
func (fc *FailoverClient) roundTrip(db *RemoteDB, req *Enc) (*Dec, error) {
	if !fc.opts.HedgeReads || !req.op().Info().Hedgeable {
		return fc.c.do(db, req, time.Time{})
	}
	return fc.hedged(db, req)
}

// forget implements transport.
func (fc *FailoverClient) forget(db *RemoteDB) { fc.c.forget(db) }

// OpenDB opens a database by path, returning a handle that follows the
// session across mate failover: after a switch, the handle is re-opened on
// the new mate before any operation runs.
func (fc *FailoverClient) OpenDB(path string) (*FailoverDB, error) {
	db := &FailoverDB{fc: fc, RemoteDB: RemoteDB{t: fc, path: path, putKey: nsf.NewUNID().String()}}
	if _, err := fc.c.do(&db.RemoteDB, nil, time.Time{}); err != nil {
		return nil, err
	}
	return db, nil
}

// FailoverDB is a database handle that survives mate failover: a RemoteDB
// whose requests travel through the FailoverClient. It implements
// repl.Peer, so a replication session can ride through the death of the
// server it started against.
//
// Scan cursors are bound to the server that minted them (NoteIDs are
// per-copy), so a ScanPage resumed after a mate switch fails with a server
// error rather than silently skipping or repeating documents; callers
// restart the scan with a nil cursor in that case. View and search pages
// address rows by index and rank, so they simply continue on the new mate.
type FailoverDB struct {
	RemoteDB
	fc *FailoverClient
}

// Placement returns the handle's cached placement: the generation and home
// set learned from the last resolve or redirect, and whether any resolution
// has happened yet.
func (f *FailoverDB) Placement() (gen uint64, homes []HomeAddr, resolved bool) {
	f.fc.c.mu.Lock()
	defer f.fc.c.mu.Unlock()
	p := f.fc.places[f.path]
	return p.gen, append([]HomeAddr(nil), p.homes...), p.resolved
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

// hedgeExec runs one read against a cached second-mate session, through
// that session's own attempt loop under the same absolute deadline as the
// primary. alts lists acceptable hedge addresses (never the primary's). req
// is the hedge's own copy of the request and is released here. Must be
// entered with the hedge-in-flight slot held; it is released here too.
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
		c, err := DialOptions(alts[0], fc.c.user, fc.c.secret, fc.opts.Client)
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
		var err error
		if rdb, err = hc.openDB(path, deadline); err != nil {
			return nil, err
		}
		fc.hmu.Lock()
		if fc.hClient == hc {
			fc.hDBs[path] = rdb
		}
		fc.hmu.Unlock()
	}
	d, err := hc.do(rdb, req, deadline)
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

// hedgeSnapshot captures, under the client lock, what a hedged read needs
// before launching its primary goroutine: the operation deadline both racers
// share and the alternate mate addresses — none when hedging cannot apply
// (no budget, no second mate, no live session yet).
func (fc *FailoverClient) hedgeSnapshot(db *RemoteDB) (deadline time.Time, alts []string) {
	c := fc.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.conn == nil || c.opts.OpBudget <= 0 {
		return time.Time{}, nil
	}
	// Candidate order honors breakers and availability; home-mate bias
	// applies when the database is placed.
	for _, i := range fc.candidatesLocked(db) {
		if a := fc.mates[i].addr; a != c.addr {
			alts = append(alts, a)
		}
	}
	return time.Now().Add(c.opts.OpBudget), alts
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
	deadline, alts := fc.hedgeSnapshot(db)
	if len(alts) == 0 {
		d, err := fc.c.do(db, req, time.Time{})
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
		d, err := fc.c.do(db, req, deadline)
		ch <- hedgeResult{d: d, err: err}
	}()
	fc.hmu.Lock()
	delay := fc.hedgeDelayLocked()
	fc.hmu.Unlock()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	// pending: a second racer is still in flight behind res.
	var pending bool
	var res hedgeResult
	select {
	case res = <-ch:
	case <-timer.C:
		if pending = fc.takeHedgeToken(); pending {
			fc.hedges.Add(1)
			go func() {
				d, err := fc.hedgeExec(db.path, deadline, alts, spare)
				ch <- hedgeResult{d: d, err: err, hedge: true}
			}()
		}
		res = <-ch
	}
	if !pending {
		spare.Release() // never handed to a hedge
	} else if res.err != nil {
		// The first racer failed, so the other one decides. If both fail,
		// prefer the primary's error (it carries the ambiguity verdict; the
		// hedge was best-effort).
		second := <-ch
		pending = false
		if second.err == nil || res.hedge {
			res = second
		}
	}
	if res.err != nil {
		return nil, res.err
	}
	// First success wins; a loser still in flight is severed so it stops
	// consuming its mate.
	if res.hedge {
		fc.hedgeWins.Add(1)
		if pending {
			// Drain the primary's (cancelled) result so its goroutine is
			// done with the client lock and with req before we return;
			// CancelInflight makes this prompt.
			fc.c.CancelInflight()
			<-ch
		}
	} else {
		fc.recordReadLatency(time.Since(start))
		if pending {
			fc.hmu.Lock()
			hc := fc.hClient
			fc.hmu.Unlock()
			if hc != nil {
				hc.CancelInflight()
			}
		}
	}
	return res.d, nil
}
