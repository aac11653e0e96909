package server

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/wire"
)

// Cluster replication: Domino clusters push changes to cluster mates as
// they happen (event-driven), rather than waiting for the scheduled
// replicator. Every save on a clustered database is queued and applied on
// each mate within moments. The scheduled replicator remains the catch-up
// path after outages — and a dropped push *tells* it to run: drops fire
// the server's OnClusterDrop callback, which dominod wires to the mesh's
// RunNow on the replicate link for that mate and database, an immediate
// catch-up pass.

// LogCluster is the log kind for cluster push events.
const LogCluster = "cluster"

// clusterEvent is one pending push.
type clusterEvent struct {
	dbPath string
	note   *nsf.Note
}

// clusterPusher streams change events to one cluster mate.
type clusterPusher struct {
	server   *Server
	mateName string
	mateAddr string

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []clusterEvent
	closed  bool
	busy    bool // a batch is being delivered right now
	dropped int

	client  *wire.Client
	remotes map[string]*wire.RemoteDB
}

// EnableClustering starts event-driven push replication to the given mates
// (name -> address) for every database the server has opened or will open.
// Events that cannot be delivered after retries are dropped and left to the
// scheduled replicator; Dropped() exposes the count and OnClusterDrop
// turns each drop into a catch-up signal.
func (s *Server) EnableClustering(mates map[string]string) {
	s.mu.Lock()
	for name, addr := range mates {
		p := &clusterPusher{server: s, mateName: name, mateAddr: addr, remotes: make(map[string]*wire.RemoteDB)}
		p.cond = sync.NewCond(&p.mu)
		s.cluster = append(s.cluster, p)
		s.wg.Add(1)
		go p.run()
	}
	// Hook databases that are already open.
	dbs := make(map[string]*core.Database, len(s.dbs))
	for path, db := range s.dbs {
		dbs[path] = db
	}
	s.mu.Unlock()
	for path, db := range dbs {
		s.hookClusterDB(path, db)
	}
}

// ClusterMates returns the names of the configured cluster mates.
func (s *Server) ClusterMates() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.cluster))
	for _, p := range s.cluster {
		names = append(names, p.mateName)
	}
	return names
}

// OnClusterDrop registers fn to be called (outside all locks) whenever a
// push event is abandoned to the scheduled replicator, with the mate name
// and database path. dominod wires this to the mesh's RunNow on the
// matching replicate link, so a drop starts a catch-up round at once
// instead of waiting out the link interval.
func (s *Server) OnClusterDrop(fn func(mate, dbPath string)) {
	s.onClusterDrop.Store(fn)
}

// notifyClusterDrop fires the registered drop callback, if any.
func (s *Server) notifyClusterDrop(mate, dbPath string) {
	if fn, ok := s.onClusterDrop.Load().(func(mate, dbPath string)); ok && fn != nil {
		fn(mate, dbPath)
	}
}

// localOnlyDBs are server-private databases that never cluster-replicate.
var localOnlyDBs = map[string]bool{
	"mail.box":  true,
	LogPath:     true,
	CatalogPath: true,
}

// hookClusterDB subscribes the cluster pushers to a database's changes.
func (s *Server) hookClusterDB(path string, db *core.Database) {
	if localOnlyDBs[path] {
		return
	}
	s.mu.Lock()
	pushers := append([]*clusterPusher(nil), s.cluster...)
	s.mu.Unlock()
	if len(pushers) == 0 {
		return
	}
	db.OnChange(func(n *nsf.Note) {
		ev := clusterEvent{dbPath: path, note: n.Clone()}
		for _, p := range pushers {
			p.enqueue(ev)
		}
	})
}

func (p *clusterPusher) enqueue(ev clusterEvent) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	const maxQueue = 10000
	if len(p.queue) >= maxQueue {
		p.dropped++
		p.mu.Unlock()
		p.server.notifyClusterDrop(p.mateName, ev.dbPath)
		return
	}
	p.queue = append(p.queue, ev)
	p.cond.Signal()
	p.mu.Unlock()
}

// drop records one abandoned event and signals the catch-up path.
func (p *clusterPusher) drop(ev clusterEvent) {
	p.mu.Lock()
	p.dropped++
	p.mu.Unlock()
	p.server.notifyClusterDrop(p.mateName, ev.dbPath)
}

// snapshot returns the pusher's drop count and current queue depth.
func (p *clusterPusher) snapshot() (dropped, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped, len(p.queue)
}

// Dropped returns events abandoned due to overflow or delivery failure, for
// all mates.
func (s *Server) Dropped() int {
	total := 0
	for _, d := range s.DroppedByMate() {
		total += d
	}
	return total
}

// DroppedByMate returns abandoned push events per cluster mate.
func (s *Server) DroppedByMate() map[string]int {
	s.mu.Lock()
	pushers := append([]*clusterPusher(nil), s.cluster...)
	s.mu.Unlock()
	out := make(map[string]int, len(pushers))
	for _, p := range pushers {
		d, _ := p.snapshot()
		out[p.mateName] += d
	}
	return out
}

// clusterFlushed reports whether every pusher's queue is empty and no
// batch is mid-delivery — the drain condition Quiesce waits on.
func (s *Server) clusterFlushed() bool {
	s.mu.Lock()
	pushers := append([]*clusterPusher(nil), s.cluster...)
	s.mu.Unlock()
	for _, p := range pushers {
		p.mu.Lock()
		pending := len(p.queue) > 0 || p.busy
		p.mu.Unlock()
		if pending {
			return false
		}
	}
	return true
}

// run drains the queue, delivering events to the mate.
func (p *clusterPusher) run() {
	defer p.server.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			if p.client != nil {
				p.client.Close()
			}
			return
		}
		batch := p.queue
		p.queue = nil
		p.busy = true
		p.mu.Unlock()
		for i, ev := range batch {
			if err := p.deliver(ev); err != nil {
				// The client already spent its one redial. A dead mate
				// fails every event the same way; hand the rest of the
				// batch to the scheduled replicator in one sweep (each drop
				// still signals catch-up) instead of paying a dial timeout
				// per event, then let the queue rebuild. One log line
				// covers the sweep.
				for _, dropped := range batch[i:] {
					p.drop(dropped)
				}
				p.server.logf(LogCluster, "push to %s failed, %d events left to the replicator: %v",
					p.mateName, len(batch)-i, err)
				time.Sleep(50 * time.Millisecond)
				break
			}
		}
		p.mu.Lock()
		p.busy = false
		p.mu.Unlock()
	}
}

// deliver applies one event on the mate, connecting lazily. Reconnecting is
// the client's business: its loop redials once and re-opens the handles in
// remotes. The profile fails fast (one retry, short timeouts): past that the
// event is dropped, and a patient retry loop would stall Close and Quiesce
// behind a dead mate.
func (p *clusterPusher) deliver(ev clusterEvent) error {
	if p.client == nil {
		c, err := p.server.dialPeer(p.mateName, p.mateAddr, wire.Options{
			MaxRetries: 1, BackoffBase: 10 * time.Millisecond, DialTimeout: 2 * time.Second})
		if err != nil {
			return err
		}
		p.client = c
	}
	rdb, ok := p.remotes[ev.dbPath]
	if !ok {
		r, err := p.client.OpenDB(ev.dbPath)
		if err != nil {
			return err
		}
		rdb = r
		p.remotes[ev.dbPath] = rdb
	}
	_, err := rdb.Apply([]*nsf.Note{ev.note})
	if err != nil {
		// Open afresh next time: a handle the mate could not re-open after
		// a redial stays poisoned for as long as that session lives.
		rdb.Release()
		delete(p.remotes, ev.dbPath)
	}
	return err
}

// stopCluster shuts the pushers down (called from Close).
func (s *Server) stopCluster() {
	s.mu.Lock()
	pushers := append([]*clusterPusher(nil), s.cluster...)
	s.mu.Unlock()
	for _, p := range pushers {
		p.mu.Lock()
		p.closed = true
		p.cond.Signal()
		p.mu.Unlock()
	}
}
