// Package changefeed implements a per-database change log with subscriber
// cursors: the spine that decouples index and subscriber maintenance from
// the write path.
//
// Every mutation the database commits is appended, under the update
// sequence number (USN) the store assigned it, to a bounded in-memory ring.
// Consumers — view indexes, the full-text index, change callbacks —
// subscribe with a handler and catch up asynchronously on their
// own goroutine, each tracking the USN it has applied through. The writer
// never waits for a consumer: appends are O(1) and never block.
//
// Because the ring is bounded, a consumer that falls more than Capacity
// USNs behind loses its window into history. The feed detects this and
// calls the handler's Resync with the USN the consumer applied through; the
// store indexes every note by the USN of its last commit, so the handler
// catches up from there.
//
// Read-your-writes is available on demand: WaitForUSN blocks until every
// live subscriber has applied through a given USN, so a reader that
// barriers on the USN of its own write observes it in every index
// (Domino-style "view refresh").
//
// A handler that panics is recovered, logged, and its subscriber dropped —
// a broken consumer can cost its own freshness, never the writer or the
// other consumers.
package changefeed

import (
	"log"
	"sync"

	"repro/internal/nsf"
)

// Kind discriminates feed entries.
type Kind uint8

// Entry kinds.
const (
	// Put records a note stored (created, updated, stubbed, or applied by
	// replication).
	Put Kind = iota
	// Delete records a note physically removed (stub purge, raw delete).
	Delete
)

// Entry is one sequenced change.
type Entry struct {
	// USN is the update sequence number the store committed the change
	// at; entries arrive in increasing USN order.
	USN uint64
	// Kind says whether the note was stored or physically removed.
	Kind Kind
	// UNID identifies the note.
	UNID nsf.UNID
	// Note is a private clone of the stored note (nil for Delete entries).
	// Handlers may read it freely but must not mutate it; it is shared by
	// every subscriber.
	Note *nsf.Note
}

// Handler consumes feed entries on a subscriber's goroutine. Entries arrive
// one at a time in USN order.
type Handler interface {
	// Apply reflects one change. A panic drops the subscriber.
	Apply(Entry)
	// Resync is called instead of Apply when the subscriber fell out of the
	// feed's retention window, with the USN it had applied through. It must
	// reflect every change the store committed since then; entries appended
	// meanwhile are applied again afterwards. Returning an error drops the
	// subscriber.
	Resync(applied uint64) error
}

// Funcs adapts plain functions to Handler; nil fields are no-ops.
type Funcs struct {
	ApplyFunc  func(Entry)
	ResyncFunc func(applied uint64) error
}

// Apply implements Handler.
func (f Funcs) Apply(e Entry) {
	if f.ApplyFunc != nil {
		f.ApplyFunc(e)
	}
}

// Resync implements Handler.
func (f Funcs) Resync(applied uint64) error {
	if f.ResyncFunc != nil {
		return f.ResyncFunc(applied)
	}
	return nil
}

// DefaultCapacity is the retention window when New is given no capacity.
const DefaultCapacity = 8192

// Feed is a bounded change log. All methods are safe for concurrent use.
type Feed struct {
	capacity uint64

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on append, cursor advance, drop, close
	buf    []Entry    // ring: entry with USN u lives at buf[(u-1)%capacity]
	last   uint64     // highest USN appended; 0 when empty
	subs   []*subscriber
	closed bool
	wg     sync.WaitGroup
}

// New returns an empty feed retaining the last capacity USNs
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Feed {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	f := &Feed{capacity: uint64(capacity), buf: make([]Entry, capacity)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Append records a change the store committed at usn. Appends must come in
// increasing USN order (a database appends under its commit mutex); a USN
// at or below the last one is ignored, as is any append on a closed feed.
// It never blocks on consumers: the entry overwrites the one a full ring
// older, and subscribers still behind it will resync.
func (f *Feed) Append(usn uint64, kind Kind, unid nsf.UNID, note *nsf.Note) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || usn <= f.last {
		return
	}
	if f.last == 0 {
		// The first entry: subscribers registered on the empty feed are at
		// its head, whatever USN the store has reached.
		for _, s := range f.subs {
			s.applied = max(s.applied, usn-1)
		}
	}
	f.last = usn
	f.buf[(usn-1)%f.capacity] = Entry{USN: usn, Kind: kind, UNID: unid, Note: note}
	f.cond.Broadcast()
}

// LastUSN returns the USN of the most recent append (0 when none).
func (f *Feed) LastUSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// Subscribe registers a handler and starts its consumer goroutine. The
// subscriber's cursor starts at the current head: it observes only changes
// appended after Subscribe returns. The name labels the subscriber in
// stats and logs. Subscribing to a closed feed does nothing.
func (f *Feed) Subscribe(name string, h Handler) {
	s := &subscriber{feed: f, name: name, h: h}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	s.applied = f.last
	f.subs = append(f.subs, s)
	f.mu.Unlock()
	f.wg.Add(1)
	go s.run()
}

// WaitForUSN blocks until every live subscriber has applied through usn,
// or through the last USN appended when that is lower — the read-side
// refresh barrier. Dropped or exited subscribers are skipped, so a
// panicking consumer cannot wedge readers. Returns immediately when usn has
// already been covered (or nothing is subscribed).
func (f *Feed) WaitForUSN(usn uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		target := min(usn, f.last)
		pending := false
		for _, s := range f.subs {
			if s.dropped || s.exited {
				continue
			}
			if s.applied < target {
				pending = true
				break
			}
		}
		if !pending {
			return
		}
		f.cond.Wait()
	}
}

// Close stops the feed: appends become no-ops, subscribers drain what is
// already buffered, and Close returns once every consumer goroutine has
// exited.
func (f *Feed) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
	f.wg.Wait()
}

// SubscriberStats describes one subscriber's progress.
type SubscriberStats struct {
	// Name is the label given at Subscribe.
	Name string
	// Applied is the USN the subscriber has applied through.
	Applied uint64
	// Lag is how many entries behind the feed head the subscriber is.
	Lag uint64
	// Applies counts entries applied incrementally.
	Applies uint64
	// Resyncs counts overflow-triggered catch-ups.
	Resyncs uint64
	// Dropped reports whether the subscriber was dropped after a panic or
	// resync failure.
	Dropped bool
}

// Stats is a snapshot of feed and subscriber progress — the database's
// change-propagation observability surface.
type Stats struct {
	// LastUSN is the highest USN appended.
	LastUSN uint64
	// Capacity is the retention window in entries.
	Capacity int
	// MaxLag is the largest lag over live subscribers.
	MaxLag uint64
	// Subscribers lists per-subscriber progress in subscription order.
	Subscribers []SubscriberStats
}

// Stats returns a snapshot of the feed's counters.
func (f *Feed) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{LastUSN: f.last, Capacity: int(f.capacity)}
	for _, s := range f.subs {
		ss := SubscriberStats{
			Name:    s.name,
			Applied: s.applied,
			Applies: s.applies,
			Resyncs: s.resyncs,
			Dropped: s.dropped,
		}
		if !s.dropped && f.last > s.applied {
			ss.Lag = f.last - s.applied
			if ss.Lag > st.MaxLag {
				st.MaxLag = ss.Lag
			}
		}
		st.Subscribers = append(st.Subscribers, ss)
	}
	return st
}

// subscriber is one consumer's cursor into the feed.
type subscriber struct {
	feed *Feed
	name string
	h    Handler

	// The fields below are guarded by feed.mu.
	applied uint64 // USN applied through
	applies uint64
	resyncs uint64
	dropped bool
	exited  bool
}

// run is the consumer loop: apply entries in order, resync on overflow,
// drop on panic, drain on close.
func (s *subscriber) run() {
	f := s.feed
	defer f.wg.Done()
	f.mu.Lock()
	defer func() {
		s.exited = true
		f.cond.Broadcast()
		f.mu.Unlock()
	}()
	for {
		for !f.closed && !s.dropped && s.applied >= f.last {
			f.cond.Wait()
		}
		if s.dropped || s.applied >= f.last {
			return // closed and drained, or dropped
		}
		next := s.applied + 1
		if next+f.capacity <= f.last {
			// Fell out of the retention window: catch up from the store.
			applied, target := s.applied, f.last
			s.resyncs++
			f.mu.Unlock()
			ok := s.safeResync(applied)
			f.mu.Lock()
			if !ok {
				s.dropped = true
				f.cond.Broadcast()
				return
			}
			s.applied = target
			f.cond.Broadcast()
			continue
		}
		e := f.buf[(next-1)%f.capacity]
		if e.USN != next {
			// No entry was appended at this USN (Append takes increasing,
			// not consecutive, USNs); the slot holds an older one.
			s.applied = next
			continue
		}
		f.mu.Unlock()
		ok := s.safeApply(e)
		f.mu.Lock()
		if !ok {
			s.dropped = true
			f.cond.Broadcast()
			return
		}
		s.applied = e.USN
		s.applies++
		f.cond.Broadcast()
	}
}

// safeApply runs the handler, converting a panic into a drop.
func (s *subscriber) safeApply(e Entry) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("changefeed: subscriber %s panicked at USN %d: %v; dropping it", s.name, e.USN, r)
			ok = false
		}
	}()
	s.h.Apply(e)
	return true
}

// safeResync runs the handler's resync, converting a panic or error into a
// drop.
func (s *subscriber) safeResync(applied uint64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("changefeed: subscriber %s panicked during resync from USN %d: %v; dropping it", s.name, applied, r)
			ok = false
		}
	}()
	if err := s.h.Resync(applied); err != nil {
		log.Printf("changefeed: subscriber %s resync from USN %d failed: %v; dropping it", s.name, applied, err)
		return false
	}
	return true
}
