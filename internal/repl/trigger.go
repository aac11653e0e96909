package repl

import (
	gosync "sync" // the test package declares a helper named sync
	"time"

	"repro/internal/changefeed"
	"repro/internal/core"
	"repro/internal/nsf"
)

// ChangeTrigger turns a database's changefeed into a level-triggered
// replication signal: a scheduled replication loop selects on C() alongside
// its interval ticker and replicates promptly after local writes instead of
// waiting out the polling period. Signals are coalesced — any number of
// changes inside the debounce window produce one firing — and the channel
// has capacity one, so a burst during an in-flight replication run leaves
// exactly one pending signal behind. Bookkeeping notes never fire it (see
// core.Database.OnChange).
type ChangeTrigger struct {
	c   chan struct{}
	sub *changefeed.Subscriber

	mu      gosync.Mutex
	stopped bool
	timer   *time.Timer
}

// NewChangeTrigger subscribes to db's changefeed. debounce is how long the
// trigger waits after the first change before firing, batching write
// bursts into one replication run; <= 0 fires immediately.
func NewChangeTrigger(db *core.Database, debounce time.Duration) *ChangeTrigger {
	t := &ChangeTrigger{c: make(chan struct{}, 1)}
	t.sub = db.OnChange(func(*nsf.Note) { t.kick(debounce) })
	return t
}

// kick schedules (or immediately performs) one firing.
func (t *ChangeTrigger) kick(debounce time.Duration) {
	if debounce <= 0 {
		t.mu.Lock()
		stopped := t.stopped
		t.mu.Unlock()
		if !stopped {
			t.fire()
		}
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped || t.timer != nil {
		return // stopped, or a firing is already pending
	}
	t.timer = time.AfterFunc(debounce, func() {
		t.mu.Lock()
		t.timer = nil
		stopped := t.stopped
		t.mu.Unlock()
		if !stopped {
			t.fire()
		}
	})
}

// fire posts the signal, dropping it if one is already pending.
func (t *ChangeTrigger) fire() {
	select {
	case t.c <- struct{}{}:
	default:
	}
}

// C returns the signal channel. Receive from it in a select alongside the
// scheduled interval.
func (t *ChangeTrigger) C() <-chan struct{} { return t.c }

// Stop cancels any pending debounce timer, silences future firings, and
// unsubscribes from the database's changefeed, so a stopped trigger (a
// removed mesh link, a finished replication job) leaves no dead cursor
// behind. Idempotent.
func (t *ChangeTrigger) Stop() {
	t.mu.Lock()
	t.stopped = true
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
	t.mu.Unlock()
	t.sub.Unsubscribe()
}
