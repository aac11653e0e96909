package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/view"
)

// maintainer is a database's one change consumer goroutine: it walks the
// store's USN index and hands each note, in USN order, to the views, full
// text, unread tables and OnChange callbacks.
type maintainer struct {
	// wake has room for one value: commitLocked sends to it without
	// blocking, so a burst of commits leaves one pending pass.
	wake     chan struct{}
	stop     chan struct{} // closed by Close: one last pass, then exit
	stopOnce sync.Once
	done     chan struct{} // closed when the goroutine has exited

	mu    sync.Mutex
	moved sync.Cond // broadcast when cursor advances and when the goroutine exits
	// cursor is the maintainer's position: every change at or below it
	// has reached every consumer. The refresh barrier waits on it.
	cursor store.Cursor
	// purged lists, in USN order, the hard deletes (which leave nothing in
	// the USN index) no pass has applied yet. commitLocked holds mu across
	// each store delete, so one the store's USN has passed is listed.
	purged []purge
	// consumers lists views, full text, unread marks and then each OnChange
	// callback, in registration order; the list never shrinks.
	consumers []*consumer
	exited    bool // the goroutine has exited: after Close or a failed walk
}

// purge is a hard delete: the USN the store committed it at and its note.
type purge struct {
	usn  uint64
	unid nsf.UNID
}

// consumer is one reader of the change stream.
type consumer struct {
	name string
	// from is the store's USN when the consumer registered: it is handed
	// only the changes committed after it.
	from uint64
	// apply reflects one change: n is the note's stored version, or nil
	// when the note was hard-deleted. n is shared by every consumer and
	// must not be modified.
	apply func(unid nsf.UNID, n *nsf.Note)
	// dropped is set, under mu, once apply panicked or a walk failed; only
	// the maintainer goroutine sets it.
	dropped bool
}

// builtins counts the consumers ahead of the OnChange callbacks: views,
// full text (at ftConsumer) and unread marks.
const builtins, ftConsumer = 3, 1

// startMaintainer starts the maintainer at the store's head: Open built
// the indexes from the store as it is.
func (db *Database) startMaintainer() {
	m := &db.maint
	m.wake, m.stop, m.done = make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	m.moved.L = &m.mu
	m.cursor = db.st.Cursor()
	m.consumers = []*consumer{
		{name: "views", apply: db.applyToViews},
		{name: "fulltext", apply: db.applyToFullText},
		{name: "unread", apply: db.applyToUnread},
	}
	go db.maintain()
}

// maintain runs a pass per wake until Close, which gets one last pass. A
// failed pass drops every consumer and ends it, which releases the barrier.
func (db *Database) maintain() {
	m := &db.maint
	var err error
	for stopping := false; !stopping && err == nil; {
		select {
		case <-m.wake:
		case <-m.stop:
			stopping = true
		}
		err = db.pass()
	}
	m.mu.Lock()
	for _, c := range m.consumers {
		c.dropped = c.dropped || err != nil
	}
	m.exited = true
	m.moved.Broadcast()
	m.mu.Unlock()
	close(m.done)
}

// pass hands the consumers, in USN order, the current version of every
// note committed after the cursor, walking to the end of the USN index,
// whose USN becomes the cursor. A hard delete goes just before the first
// note committed after it, so a note deleted and created again stays. A
// record that does not decode is skipped: no index could hold it.
func (db *Database) pass() error {
	m := &db.maint
	m.mu.Lock()
	since := m.cursor
	m.mu.Unlock()
	next, err := db.st.ScanSinceRecords(context.Background(), since, nil, func(usn uint64, rec []byte) bool {
		if cs := m.purge(usn - 1); len(cs) > builtins || db.indexed() {
			if n := new(nsf.Note); nsf.DecodeNoteOwned(n, rec) == nil {
				m.deliver(cs, usn, n.OID.UNID, n)
			}
		}
		// Yield after each note: a long pass would otherwise keep its
		// processor from the request goroutines until preempted.
		runtime.Gosched()
		return true
	})
	if err != nil {
		return err
	}
	m.purge(next.USN)
	m.mu.Lock()
	m.cursor = next
	m.moved.Broadcast()
	m.mu.Unlock()
	return nil
}

// purge hands the consumers the hard deletes committed at or below usn
// and returns the consumers, which the changes after usn go to as well. A
// delete the store has committed is already listed, since commitLocked
// holds mu across it, and a callback OnChange adds later starts past usn.
func (m *maintainer) purge(usn uint64) []*consumer {
	m.mu.Lock()
	i := 0
	for i < len(m.purged) && m.purged[i].usn <= usn {
		i++
	}
	dels, cs := m.purged[:i], m.consumers
	m.purged = m.purged[i:]
	m.mu.Unlock()
	for _, d := range dels {
		m.deliver(cs, d.usn, d.unid, nil)
	}
	return cs
}

// deliver hands the change committed at usn to each of cs registered
// before it and not dropped. A consumer that panics is dropped, which
// Stats reports, and the others go on.
func (m *maintainer) deliver(cs []*consumer, usn uint64, unid nsf.UNID, n *nsf.Note) {
	for _, c := range cs {
		if usn <= c.from || c.dropped {
			continue
		}
		func() {
			defer func() {
				if recover() != nil {
					m.mu.Lock()
					c.dropped = true
					m.mu.Unlock()
				}
			}()
			c.apply(unid, n)
		}()
	}
}

// WaitForUSN blocks until every change consumer (views, full text, unread
// tables, OnChange callbacks) has applied every change through usn, or
// through the store's last USN when that is lower — the read-side refresh
// barrier. It returns at once when the maintainer has exited: after Close,
// or after a failed walk dropped every consumer.
func (db *Database) WaitForUSN(usn uint64) {
	usn = min(usn, db.st.LastUSN())
	m := &db.maint
	m.mu.Lock()
	for m.cursor.USN < usn && !m.exited {
		m.moved.Wait()
	}
	m.mu.Unlock()
}

// Refresh waits until all change consumers have caught up with every
// change committed before the call — Domino's "view refresh", generalized.
// Session.Rows and Session.Search call it automatically.
func (db *Database) Refresh() { db.WaitForUSN(db.st.LastUSN()) }

// OnChange registers fn to run for every note change committed after it
// returns (replication applies and stub creation included). Callbacks run
// on the database's maintainer goroutine, in commit order, and get the
// note's current version: a burst of updates to one note may arrive as
// one call. A callback that panics is dropped rather than unwinding
// anything else. A callback must not call the read barrier (Rows, Search,
// View, Refresh) on the same database: the barrier waits on the goroutine
// running it. A consumer that only needs to know that something changed
// uses Notify instead.
//
// Local bookkeeping (notes of class ClassReplFormula: replication history,
// unread tables) never reaches fn: it never replicates, and the history
// save at the end of a replication run would otherwise look like a change
// to every consumer — retriggering replication forever and counting as
// database activity. Physical deletes (stub purges) stay local too.
func (db *Database) OnChange(fn func(*nsf.Note)) {
	m := &db.maint
	m.mu.Lock()
	defer m.mu.Unlock()
	m.consumers = append(m.consumers, &consumer{
		name:    fmt.Sprintf("onchange-%d", len(m.consumers)-builtins+1),
		from:    db.st.LastUSN(),
		dropped: m.exited,
		apply: func(_ nsf.UNID, n *nsf.Note) {
			if n != nil && n.Class != nsf.ClassReplFormula {
				fn(n)
			}
		},
	})
}

// FeedStats reports the change maintainer's progress.
type FeedStats struct {
	// LastUSN is the store's USN.
	LastUSN uint64
	// MaxLag is how many USNs the maintainer's cursor is behind LastUSN.
	MaxLag uint64
	// Subscribers lists the consumers in registration order: views, full
	// text, unread, then each OnChange callback. The list never shrinks.
	Subscribers []ConsumerStats
}

// ConsumerStats describes one consumer of the change stream.
type ConsumerStats struct {
	// Name is "views", "fulltext", "unread" or "onchange-N".
	Name string
	// Dropped reports that the consumer panicked and gets no more changes.
	Dropped bool
	// Resyncs is always 0: no consumer falls behind a window and resyncs.
	// It stays for the benchmark, which reads it, until its next change.
	Resyncs uint64
}

// applyToViews reflects one change in every open view index. A note a
// view's column formulas fail on leaves that view rather than failing
// maintenance; design changes to the view itself are AddView's.
func (db *Database) applyToViews(unid nsf.UNID, n *nsf.Note) {
	db.mu.RLock()
	views := make([]*view.Index, 0, len(db.views))
	for _, ix := range db.views {
		views = append(views, ix)
	}
	db.mu.RUnlock()
	ctx := db.evalContext("")
	for _, ix := range views {
		if n == nil {
			ix.Remove(unid)
		} else if _, err := ix.Update(n, ctx); err != nil {
			ix.Remove(unid)
		}
	}
}

// applyToFullText reflects one change in the full-text index, if enabled.
func (db *Database) applyToFullText(unid nsf.UNID, n *nsf.Note) {
	switch ix := db.FullText(); {
	case ix == nil:
	case n == nil:
		ix.Remove(unid)
	default:
		ix.Update(n)
	}
}

// applyToUnread drops read marks for documents that no longer exist, so
// loaded unread tables do not accumulate marks for purged notes.
func (db *Database) applyToUnread(unid nsf.UNID, n *nsf.Note) {
	if n != nil && !n.IsStub() {
		return
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.unread {
		t.mu.Lock()
		delete(t.read, unid)
		t.mu.Unlock()
	}
}

// indexed reports whether a view, the full-text index or an unread table
// is open: without one, or an OnChange callback, a pass decodes nothing.
func (db *Database) indexed() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.views) > 0 || db.ftIndex != nil || len(db.unread) > 0
}
