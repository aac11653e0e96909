package wire

import (
	"cmp"
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
	// Cooldown is how long an open breaker waits before a half-open
	// probe may test the mate again (default 1s).
	Cooldown time.Duration
	// HedgeDelay, when positive, turns on hedged reads for the ops the op
	// table marks Hedgeable (Get, ViewPage, SearchPage): when the connected
	// mate has not answered after HedgeDelay, the same read is issued to a
	// second mate and the first response wins. The loser is cancelled
	// through its propagated deadline/CancelInflight, so a stalled mate
	// costs one hedge delay instead of a full timeout. At most one hedge is
	// in flight at a time. Requires Client.OpBudget (the hedge rides the
	// same budget).
	HedgeDelay time.Duration

	// failThreshold replaces defaultFailThreshold in this package's tests;
	// zero uses the constant.
	failThreshold int
}

// defaultFailThreshold is how many consecutive spent turns open a mate's
// circuit breaker.
const defaultFailThreshold = 2

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
	if o.failThreshold <= 0 {
		o.failThreshold = defaultFailThreshold
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	return o
}

// mate is one cluster member's address plus health bookkeeping. All fields
// are guarded by the Client lock.
type mate struct {
	addr string
	name string // cluster-mate name, learned from placement records
	// open is the circuit breaker: the mate is failing, and only a
	// half-open probe may test it.
	open     bool
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
// It touches no connection itself: it is the routing policy (see route) of
// one Client's attempt loop, owning what a stand-alone client has no use
// for — the mate list, per-mate circuit breakers, availability- and
// placement-weighted ranking, redirect learning — plus hedged reads. The
// semantics are therefore Client's, across mates: idempotent operations (and
// shed or redirected requests, which provably never executed) land on a
// better mate; a non-idempotent operation that fails mid-round-trip is
// surfaced, because the dead mate may have executed it, and the next
// operation lands on a live one. With a single mate nothing is left to rank
// and it behaves as a bare Client.
type FailoverClient struct {
	session

	opts FailoverOptions
	// c runs every operation; its addr is the mate holding the turn. Its
	// lock guards the routing state below, so an operation takes one mutex
	// however many mates it visits.
	c *Client

	mates  []*mate
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
	fc := newFailover(addrs, user, secret, opts)
	if _, err := fc.c.do(nil, nil, time.Time{}); err != nil {
		return nil, err
	}
	return fc, nil
}

// newFailover builds a failover client that dials on its first operation.
func newFailover(addrs []string, user, secret string, opts FailoverOptions) *FailoverClient {
	fc := &FailoverClient{
		opts:   opts.withDefaults(),
		places: make(map[string]*placement),
		hDBs:   make(map[string]*RemoteDB),
	}
	fc.session = session{fc}
	for _, a := range addrs {
		fc.mates = append(fc.mates, &mate{addr: a, avail: 100})
	}
	fc.c = newClient(fc, user, secret, fc.opts.Client.withDefaults())
	return fc
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

// mate returns the mate at addr. Every address the loop reports came from
// rank, and mates are never dropped, so it is always found.
func (fc *FailoverClient) mate(addr string) *mate {
	for _, m := range fc.mates {
		if m.addr == addr {
			return m
		}
	}
	return nil
}

// markFail records a transport failure against m; enough consecutive
// failures open its breaker.
func (fc *FailoverClient) markFail(m *mate) {
	m.fails++
	if m.fails >= fc.opts.failThreshold && !m.open {
		m.open, m.reopens = true, m.reopens+1
	}
	if m.open {
		m.openedAt = time.Now() // a failure while open restarts the cooldown
	}
}

// rank implements route. When the turn is on behalf of a placed database its
// home mates go first: a non-home mate can only earn a redirect, though it
// stays as a fallback that may teach us fresher placement. Within that,
// healthy mates (breaker closed or cooled down, not restricted) precede
// open-breaker and restricted ones — a last resort, because serving degraded
// beats not serving. Ties go to the higher availability index, then the
// configured order. An open or restricted mate is probed before it is
// dialed: the half-open breaker transition.
func (fc *FailoverClient) rank(db *RemoteDB) []candidate {
	var p *placement
	if db != nil {
		p = fc.places[db.path]
	}
	now := time.Now()
	score := func(m *mate) (r int) {
		if p != nil && len(p.homes) > 0 && !p.homesMate(m) {
			r += 2
		}
		cooldown := retry.Exp(fc.opts.Cooldown, m.reopens-1, 8*fc.opts.Cooldown)
		if m.restricted || m.open && now.Sub(m.openedAt) < cooldown {
			r++
		}
		return r
	}
	order := slices.Clone(fc.mates)
	slices.SortStableFunc(order, func(a, b *mate) int {
		return cmp.Or(score(a)-score(b), b.avail-a.avail)
	})
	cands := make([]candidate, len(order))
	for i, m := range order {
		cands[i] = candidate{addr: m.addr, probe: m.open || m.restricted}
	}
	return cands
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

// probed implements route: an answer is the half-open trial passed — the
// breaker closes and the index is remembered — unless the mate is
// RESTRICTED (not to be dialed: a *BusyError); no answer is a breaker failure.
func (fc *FailoverClient) probed(addr string, info AvailabilityInfo, err error) error {
	m := fc.mate(addr)
	fc.stats.Probes++
	if err != nil {
		fc.markFail(m)
		return err
	}
	m.avail, m.restricted = info.Index, info.Restricted()
	if m.restricted {
		return fmt.Errorf("wire: failover: mate %s: %w", addr, &BusyError{State: StateRestricted, Availability: info.Index})
	}
	m.open = false
	return nil
}

// firstOpen implements route: a path's cache entry is made on its first
// open, so the loop resolves each path once.
func (fc *FailoverClient) firstOpen(path string) bool {
	if fc.places[path] != nil {
		return false
	}
	fc.places[path] = &placement{}
	fc.stats.Resolves++
	return true
}

// learn implements route, and folds redirects too: the path's cache adopts
// the record unless it already holds a fresher generation, and home
// addresses never seen before become new mates — a redirect can teach the
// client about cluster members it was not configured with.
func (fc *FailoverClient) learn(path string, gen uint64, homes []HomeAddr) {
	if p := fc.places[path]; p != nil && gen >= p.gen {
		p.gen, p.homes, p.resolved = gen, append([]HomeAddr(nil), homes...), true
	}
	for _, h := range homes {
		if h.Addr == "" {
			continue
		}
		if m := fc.mate(h.Addr); m == nil {
			fc.mates = append(fc.mates, &mate{addr: h.Addr, name: h.Name, avail: 100})
		} else if m.name == "" {
			m.name = h.Name
		}
	}
}

// vet implements route: redirect ourselves instead of asking a mate the
// cache says is wrong.
func (fc *FailoverClient) vet(db *RemoteDB, addr string) error {
	if p := fc.places[db.path]; len(p.homes) > 0 && !p.homesMate(fc.mate(addr)) {
		return &WrongMateError{Op: OpOpenDB, Path: db.path, Generation: p.gen,
			Homes: append([]HomeAddr(nil), p.homes...)}
	}
	return nil
}

// served implements route: a completed operation proves the mate healthy.
// A successful dial does not: a mate that accepts connections and then dies
// on every operation would otherwise never trip its breaker.
func (fc *FailoverClient) served(addr string) {
	m := fc.mate(addr)
	m.fails, m.reopens = 0, 0
}

// spent implements route: remember what the spent turn says about the mate,
// and give another mate a turn while there are other mates and the
// operation has moved fewer than two times per mate.
func (fc *FailoverClient) spent(addr string, v verdict, err error, hops int) bool {
	m := fc.mate(addr)
	switch v {
	case verdictExpired:
		// A LOCAL mid-op expiry means our own deadline had to cut a stalled
		// mate, so count it against the mate: the breaker steers the NEXT
		// operation elsewhere instead of feeding the stall another budget. A
		// remote verdict or a pre-send refusal says nothing bad about it.
		var de *DeadlineError
		if errors.As(err, &de) && !de.Remote && de.Ambiguous {
			fc.markFail(m)
		}
		return false
	case verdictShed:
		// Remember how loaded the mate is: the candidate order follows.
		var be *BusyError
		errors.As(err, &be)
		m.avail, m.restricted = be.Availability, be.State == StateRestricted
		fc.stats.BusyRedirects++
	case verdictMisrouted:
		// Adopt the carried home set; the next turn for this database goes
		// to a home mate first.
		var wme *WrongMateError
		errors.As(err, &wme)
		fc.learn(wme.Path, wme.Generation, wme.Homes)
		fc.stats.WrongMateRedirects++
	case verdictSevered:
		// Count the transport failure toward the breaker. If the dead mate
		// may have executed the request the loop surfaces the failure
		// anyway, and the NEXT operation finds a live mate.
		fc.markFail(m)
		fc.stats.Failovers++
	default:
		return false // an application error: the mate is healthy
	}
	return len(fc.mates) > 1 && hops < 2*len(fc.mates)
}

// roundTrip implements transport: the client's loop, racing a second mate
// in front of it for hedgeable reads.
func (fc *FailoverClient) roundTrip(db *RemoteDB, req *Enc) (*Dec, error) {
	if fc.opts.HedgeDelay <= 0 || !req.op().Info().Hedgeable {
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

// claimHedge claims the single hedge-in-flight slot; false means a hedge
// is already running.
func (fc *FailoverClient) claimHedge() bool {
	fc.hmu.Lock()
	defer fc.hmu.Unlock()
	if fc.hInFlight {
		return false
	}
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
	for _, cand := range fc.rank(db) {
		if cand.addr != c.addr {
			alts = append(alts, cand.addr)
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
// hedge delay; if it has not answered by then (and no hedge is in flight),
// the same request goes to a second mate and the first success wins. The
// loser is cancelled — via CancelInflight plus the propagated deadline — so
// neither mate keeps working for a caller that already has its answer. The
// race is between two raw round trips; only the winner's response body is
// handed back to be decoded.
func (fc *FailoverClient) hedged(db *RemoteDB, req *Enc) (*Dec, error) {
	deadline, alts := fc.hedgeSnapshot(db)
	if len(alts) == 0 {
		return fc.c.do(db, req, time.Time{})
	}
	// The hedge sends its own copy, taken before the primary starts: the
	// primary stamps its mate's handle into req while it runs.
	spare := req.clone()
	ch := make(chan hedgeResult, 2) // one slot per racer: neither ever blocks
	go func() {
		d, err := fc.c.do(db, req, deadline)
		ch <- hedgeResult{d: d, err: err}
	}()
	timer := time.NewTimer(fc.opts.HedgeDelay)
	defer timer.Stop()
	// pending: a second racer is still in flight behind res.
	var pending bool
	var res hedgeResult
	select {
	case res = <-ch:
	case <-timer.C:
		if pending = fc.claimHedge(); pending {
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
	} else if pending {
		fc.hmu.Lock()
		hc := fc.hClient
		fc.hmu.Unlock()
		if hc != nil {
			hc.CancelInflight()
		}
	}
	return res.d, nil
}
