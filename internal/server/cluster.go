package server

import (
	"errors"
	"maps"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/retry"
	"repro/internal/store"
	"repro/internal/wire"
)

// Cluster replication: Domino clusters push changes to mates as they
// happen. A pusher keeps an in-memory store.Cursor per database; a commit
// wakes it to run repl.Push for every database whose cursor trails its USN.
// The cursor moves only on the mate's ack, so nothing is dropped: a failed
// push is retried from the cursor, the mate skipping what it already has.

// LogCluster is the log kind for cluster push events.
const LogCluster = "cluster"

// The backoff after a failed push, and how long a database the mate
// refused is left alone.
const pushRetryBase, pushRetryMax, refusedRetry = 50 * time.Millisecond, 2 * time.Second, time.Minute

// errOtherReplica refuses a mate's unrelated database at the same path.
var errOtherReplica = errors.New("another replica at this path")

// clusterPusher pushes every hooked database to one cluster mate.
type clusterPusher struct {
	server     *Server
	mate, addr string
	kick       chan struct{} // one pending wake
	stop       chan struct{} // closed by stopCluster

	mu           sync.Mutex
	targets      []*pushTarget // append-only
	busy, failed bool          // a round is running; the last one failed

	client *wire.Client // the run goroutine's own, like each target's remote
}

// pushTarget is one database a pusher pushes: cursor is what the mate has
// acked, refused when it last declined; only run writes them, under mu.
type pushTarget struct {
	path    string
	db      *core.Database
	cursor  store.Cursor
	refused time.Time
	remote  *wire.RemoteDB
}

// EnableClustering starts event-driven push replication to the given mates
// (name -> address) for every database the server has opened or will open.
func (s *Server) EnableClustering(mates map[string]string) {
	var added []*clusterPusher
	s.mu.Lock()
	for name, addr := range mates {
		p := &clusterPusher{server: s, mate: name, addr: addr, kick: make(chan struct{}, 1), stop: make(chan struct{})}
		s.cluster = append(s.cluster, p)
		added = append(added, p)
		s.wg.Add(1)
		go p.run()
	}
	dbs := maps.Clone(s.dbs)
	s.mu.Unlock()
	for path, db := range dbs {
		hookClusterDB(added, path, db)
	}
}

func (s *Server) pushers() []*clusterPusher {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*clusterPusher(nil), s.cluster...)
}

// Dropped is always 0: a cluster push retries from its cursor until the
// mate acknowledges it. It stays for callers that read the old drop count.
func (s *Server) Dropped() int { return 0 }

// localOnlyDBs are server-private databases that never cluster-replicate.
var localOnlyDBs = map[string]bool{
	"mail.box":  true,
	LogPath:     true,
	CatalogPath: true,
}

// hookClusterDB gives each pusher a cursor on db, registers its kick channel
// for db's commits, and wakes it once for a commit made in between.
func hookClusterDB(pushers []*clusterPusher, path string, db *core.Database) {
	if localOnlyDBs[path] || len(pushers) == 0 {
		return
	}
	for _, p := range pushers {
		p.mu.Lock()
		p.targets = append(p.targets, &pushTarget{path: path, db: db, cursor: db.Cursor()})
		p.mu.Unlock()
		db.Notify(p.kick)
		p.wake()
	}
}

func (p *clusterPusher) wake() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// lag is how many USNs the mate trails, over the databases it did not refuse.
func (p *clusterPusher) lag() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var lag uint64
	for _, t := range p.targets {
		switch now := t.db.Cursor(); {
		case !t.refused.IsZero():
		case now.Incarnation != t.cursor.Incarnation:
			lag += now.USN // the next push starts from USN 0
		default:
			lag += now.USN - t.cursor.USN
		}
	}
	return lag
}

// clusterFlushed reports whether every pusher is idle: no round running or
// wake pending, and caught up or failed once (a dead mate holds Quiesce for
// one attempt). It wakes one left behind by commits that wake no one.
func (s *Server) clusterFlushed() bool {
	flushed := true
	for _, p := range s.pushers() {
		p.mu.Lock()
		busy, failed := p.busy || len(p.kick) > 0, p.failed
		p.mu.Unlock()
		if !busy && !failed && p.lag() > 0 {
			p.wake()
			busy = true
		}
		flushed = flushed && !busy
	}
	return flushed
}

// run pushes on every wake, and after a failed round on a backoff tick,
// until stopCluster.
func (p *clusterPusher) run() {
	defer p.server.wg.Done()
	defer func() {
		if p.client != nil {
			p.client.Close()
		}
	}()
	var retryC <-chan time.Time // set while a failed round awaits its retry
	for failures := 0; ; {
		select {
		case <-p.stop:
			return
		case <-p.kick:
		case <-retryC:
		}
		p.mu.Lock()
		p.busy = true
		p.mu.Unlock()
		err := p.round()
		p.mu.Lock()
		p.busy, p.failed = false, err != nil
		p.mu.Unlock()
		p.server.signalDrain()
		if err == nil {
			failures, retryC = 0, nil
			continue
		}
		if failures == 0 {
			p.server.logf(LogCluster, "push to %s failed, retrying from its cursor: %v", p.mate, err)
		}
		retryC = time.After(retry.Exp(pushRetryBase, failures, pushRetryMax))
		failures++
	}
}

// round pushes until every database is caught up or refused, or the pusher
// stops. A transport error ends it: the other databases wait for the retry.
func (p *clusterPusher) round() error {
	for caughtUp := false; !caughtUp; {
		p.mu.Lock()
		targets := p.targets
		p.mu.Unlock()
		caughtUp = true
		for _, t := range targets {
			select {
			case <-p.stop:
				return nil
			default:
			}
			if time.Since(t.refused) < refusedRetry || t.db.Cursor() == t.cursor {
				continue
			}
			caughtUp = false
			if err := p.push(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// push runs repl.Push for one database, dialing the mate (failing fast, so
// a dead mate stalls neither Close nor Quiesce; reconnects are the client's
// business) and opening the database there, checking its replica ID once
// per open, when need be. A refusal is logged once and keeps the database
// out for refusedRetry; any other error fails the round.
func (p *clusterPusher) push(t *pushTarget) error {
	var err error
	if p.client == nil {
		p.client, err = p.server.dialPeer(p.mate, p.addr, wire.Options{
			MaxRetries: 1, BackoffBase: 10 * time.Millisecond, DialTimeout: 2 * time.Second})
		if err != nil {
			return err
		}
	}
	if t.remote == nil {
		var replica nsf.ReplicaID
		if t.remote, err = p.client.OpenDB(t.path); err == nil {
			if replica, err = t.remote.ReplicaID(); err == nil && replica != t.db.ReplicaID() {
				err = errOtherReplica
			}
		}
	}
	next := t.cursor
	if err == nil {
		next, err = repl.Push(t.db, t.remote, &repl.Stats{}, t.cursor, repl.Options{})
	}
	var se *wire.ServerError
	refused := errors.As(err, &se) || errors.Is(err, wire.ErrWrongMate) || errors.Is(err, errOtherReplica)
	if err != nil && t.remote != nil {
		// Open afresh next time: a handle the mate could not re-open after
		// a redial stays poisoned for as long as that session lives.
		t.remote.Release()
		t.remote = nil
	}
	if err != nil && !refused {
		return err
	}
	if refused && t.refused.IsZero() {
		p.server.logf(LogCluster, "%s refused %s, not pushed: %v", p.mate, t.path, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if refused {
		t.refused = time.Now()
	} else {
		t.cursor, t.refused = next, time.Time{}
	}
	return nil
}

// stopCluster shuts the pushers down (called from Close).
func (s *Server) stopCluster() {
	for _, p := range s.pushers() {
		close(p.stop)
	}
}
