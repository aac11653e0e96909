package store

import (
	"sync"
	"time"
)

// Group commit, the one way a committed operation reaches the WAL.
// Committers enqueue their WAL records into a shared forming batch instead
// of writing (and fsyncing) the log per operation. The first waiter to find
// the batch unclaimed becomes its leader: it detaches the batch, writes it
// as one walBatch frame (a plain frame when it holds one record), fsyncs
// once (per SyncWAL), and wakes everyone whose record it carried. Commits
// that arrive while a flush is in flight accumulate into the next batch —
// the "natural batching" effect: under load the log forces back-to-back
// with dozens of commits each, with no timer involved. The optional commit
// window only matters at low concurrency: a SyncWAL leader whose batch
// holds a single record lingers briefly before forcing the log alone,
// giving concurrent committers a chance to share the fsync. An enqueued
// operation is already applied and visible to readers; only its
// acknowledgement (the ticket's Wait) waits for the write.
//
// Latching: enqueue callers hold the store's exclusive latch, which orders
// records; the flush itself runs outside it, so the latch is free while
// the disk syncs. The group's own mutex only guards batch hand-off.

// pendingBatch accumulates the records of one commit group until a leader
// flushes them. done/err are the flush outcome every enqueued committer
// waits on.
type pendingBatch struct {
	payload []byte // concatenated sub-records (see appendSubRecord)
	count   int
	lastUSN uint64
	done    bool
	err     error
}

type commitGroup struct {
	w       *wal
	syncWAL bool
	window  time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	cur      *pendingBatch // forming batch; nil when none
	flushing bool          // a leader is writing the detached batch
	spare    []byte        // a written batch's payload buffer, for the next batch
	// err is sticky: once a batch write fails the log tail is suspect, so
	// every later commit fails too until the store is reopened.
	err error

	flushes uint64 // batches written
	records uint64 // logical records committed through batches
}

func newCommitGroup(w *wal, syncWAL bool, window time.Duration) *commitGroup {
	g := &commitGroup{w: w, syncWAL: syncWAL, window: window}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enqueue adds one record to the forming batch and returns it as the ticket
// to wait on. The caller holds the store's exclusive latch, which fixes the
// record order within and across batches.
func (g *commitGroup) enqueue(kind byte, usn uint64, payload []byte) *pendingBatch {
	g.mu.Lock()
	if g.cur == nil {
		g.cur = &pendingBatch{payload: g.spare[:0]}
		g.spare = nil
	}
	b := g.cur
	b.payload = appendSubRecord(b.payload, kind, usn, payload)
	b.count++
	b.lastUSN = usn
	g.mu.Unlock()
	return b
}

// wait blocks until b's batch has been written (and fsynced per SyncWAL),
// electing this waiter as leader if the batch is unclaimed when its turn
// comes. Returns the batch's write error.
func (g *commitGroup) wait(b *pendingBatch) error {
	g.mu.Lock()
	for !b.done {
		if g.flushing || g.cur != b {
			g.cond.Wait()
			continue
		}
		// Leader. Claim the flush before any sleep so a second waiter of
		// the same batch cannot also lead it.
		g.flushing = true
		if g.window > 0 && g.syncWAL && b.count == 1 {
			// Lone record: linger for the commit window so concurrent
			// committers can join before the log is forced. Enqueues keep
			// landing in b while we sleep.
			g.mu.Unlock()
			time.Sleep(g.window)
			g.mu.Lock()
		}
		g.cur = nil
		g.flushLocked(b)
	}
	err := b.err
	g.mu.Unlock()
	return err
}

// drain flushes the forming batch (if any) after waiting out an in-flight
// flush. Callers hold the store's exclusive latch, so no new records can be
// enqueued; on return every enqueued record is in the WAL (fsynced per
// SyncWAL) and waiting committers have been released. Checkpoints, archive
// replay, compaction, and hot backup call this before touching the log.
func (g *commitGroup) drain() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.flushing {
		g.cond.Wait()
	}
	b := g.cur
	if b == nil {
		return g.err
	}
	g.flushing = true
	g.cur = nil
	g.flushLocked(b)
	return b.err
}

// flushLocked writes the detached batch b. Called with g.mu held and
// g.flushing true; the lock is released for the disk write and reacquired
// to publish the outcome.
func (g *commitGroup) flushLocked(b *pendingBatch) {
	sticky := g.err
	payload, count, lastUSN := b.payload, b.count, b.lastUSN
	g.mu.Unlock()
	err := sticky
	if err == nil {
		err = g.w.appendBatch(payload, count, lastUSN, g.syncWAL)
	}
	g.mu.Lock()
	if err != nil && sticky == nil && g.err == nil {
		g.err = err
	}
	if cap(payload) <= maxPooledEncBuf {
		g.spare = payload
	}
	b.payload, b.err, b.done = nil, err, true
	g.flushes++
	g.records += uint64(count)
	g.flushing = false
	g.cond.Broadcast()
}

// rebind points the group at a new WAL after a file swap (Compact). The
// caller must have drained the group and must still hold the store's
// exclusive latch, so the group is idle and no records can be enqueued.
func (g *commitGroup) rebind(w *wal) {
	g.mu.Lock()
	g.w = w
	g.mu.Unlock()
}

// stats returns batches written and records committed through them.
func (g *commitGroup) stats() (flushes, records uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flushes, g.records
}
