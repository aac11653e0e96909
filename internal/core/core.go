// Package core implements the NSF database object: note CRUD with
// originator-ID versioning and deletion stubs, ACL and Reader/Author
// enforcement through sessions, persistent view definitions with
// incrementally maintained indexes, optional full-text indexing, and the
// raw interfaces the replicator uses.
//
// Change propagation is asynchronous: each commit wakes the database's one
// maintainer goroutine, which walks the store's USN index from its cursor
// and hands each changed note to the views, full text, unread tables and
// OnChange callbacks, so write latency does not grow with their number.
// Readers get read-your-writes on demand through the refresh barrier
// (WaitForUSN / Refresh), which Session.Rows and Session.Search apply
// automatically — the Domino "view refresh on open".
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/acl"
	"repro/internal/clock"
	"repro/internal/dir"
	"repro/internal/formula"
	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/view"
)

// ErrNotFound is returned when a requested note does not exist (aliases the
// storage engine's error for errors.Is convenience).
var ErrNotFound = store.ErrNotFound

// ErrAccessDenied is returned when the session's identity lacks the rights
// for an operation.
var ErrAccessDenied = errors.New("core: access denied")

// Options configure a Database.
type Options struct {
	// Title is the database title (used on creation).
	Title string
	// ReplicaID makes the new database a replica of an existing one; zero
	// generates a fresh replica ID.
	ReplicaID nsf.ReplicaID
	// Directory resolves groups for ACL checks; may be nil.
	Directory *dir.Directory
	// Clock supplies timestamps; nil uses a new wall clock.
	Clock *clock.Clock
	// Store passes through storage engine options (sync, checkpointing).
	Store store.Options
}

// Database is an open NSF database.
type Database struct {
	st    *store.Store
	clock *clock.Clock
	dirs  *dir.Directory

	// wmu makes every versioned read-modify-write atomic: reading the
	// stored version, checking the write against it, computing
	// Seq/Revs/NoteID, and committing all happen under wmu, or two
	// concurrent saves of one UNID would both stamp Seq=N+1 and silently
	// lose an edit.
	//
	// Latch order: wmu → maint.mu → store latch (Put/AppendRecord take the
	// store latch internally). Code holding the store latch must never
	// acquire wmu — the store never calls back into core, so the order is
	// easy to keep.
	wmu sync.Mutex
	// notify are the channels Notify registered; commitLocked wakes them.
	// Guarded by wmu.
	notify []chan<- struct{}
	// prior, priorArena and priorRec are what putVersionedAsync reads the
	// version a write replaces into. Guarded by wmu; nothing of them
	// outlives one write.
	prior      nsf.Note
	priorArena nsf.Arena
	priorRec   []byte
	// maint keeps the indexes and OnChange callbacks up to date.
	maint maintainer

	mu    sync.RWMutex
	acl   *acl.ACL
	views map[string]*view.Index
	// viewList holds the indexes of views, replaced (never modified) by
	// setView, so the maintainer reads it without copying.
	viewList []*view.Index
	ftIndex  *ft.Index
	unread   map[string]*unreadTable
}

// Open opens or creates the database file at path.
func Open(path string, opts Options) (*Database, error) {
	ck := opts.Clock
	if ck == nil {
		ck = clock.New()
	}
	sopts := opts.Store
	sopts.ReplicaID = opts.ReplicaID
	sopts.Title = opts.Title
	if sopts.Created == 0 {
		sopts.Created = ck.Now()
	}
	st, err := store.Open(path, sopts)
	if err != nil {
		return nil, err
	}
	db := &Database{
		st:    st,
		clock: ck,
		dirs:  opts.Directory,
		views: make(map[string]*view.Index),
	}
	if err := db.loadDesign(); err != nil {
		st.Close()
		return nil, err
	}
	db.startMaintainer()
	return db, nil
}

// loadDesign applies the ACL note and the view notes, then builds every
// view in one walk of the store.
func (db *Database) loadDesign() error {
	db.acl = acl.New(acl.Manager) // open until an ACL note says otherwise
	var ixs []*view.Index
	var aerr error
	err := db.designNotes(func(n *nsf.Note) bool {
		var ix *view.Index
		if ix, aerr = db.applyDesign(n); ix != nil {
			ixs = append(ixs, ix)
		}
		return aerr == nil
	})
	if err := cmp.Or(err, aerr); err != nil {
		return err
	}
	return db.installViews(ixs...)
}

// Close stops the maintainer once it has applied everything already
// committed, persists the full-text sidecar (when enabled), checkpoints,
// and closes the database.
func (db *Database) Close() error {
	db.maint.stopOnce.Do(func() { close(db.maint.stop) })
	<-db.maint.done
	ftErr := db.SaveFullText()
	err := db.st.Close()
	if err == nil {
		err = ftErr
	}
	return err
}

// ReplicaID returns the database's replica identity.
func (db *Database) ReplicaID() nsf.ReplicaID { return db.st.ReplicaID() }

// Title returns the database title.
func (db *Database) Title() string { return db.st.Title() }

// Count returns the number of notes including stubs and design notes.
func (db *Database) Count() int { return db.st.Count() }

// Clock returns the database's clock (shared with its server).
func (db *Database) Clock() *clock.Clock { return db.clock }

// Stats reports database statistics: storage plus change propagation (the
// maintainer's lag and each consumer's drop flag).
type Stats struct {
	store.Stats
	// Feed reports the maintainer's progress.
	Feed FeedStats
}

// Stats returns current database statistics.
func (db *Database) Stats() Stats {
	st := Stats{Stats: db.st.Stats(), Feed: FeedStats{LastUSN: db.st.LastUSN()}}
	m, fs := &db.maint, &st.Feed
	m.mu.Lock()
	defer m.mu.Unlock()
	fs.MaxLag = fs.LastUSN - min(fs.LastUSN, m.cursor.USN)
	for _, c := range m.consumers {
		fs.Subscribers = append(fs.Subscribers, ConsumerStats{Name: c.name, Dropped: c.dropped})
	}
	return st
}

// LastUSN returns the update sequence number of the most recent committed
// change (0 when none). Combine with WaitForUSN for read-your-writes.
func (db *Database) LastUSN() uint64 { return db.st.LastUSN() }

// Cursor returns the database's position in its change history; see
// store.Store.Cursor.
func (db *Database) Cursor() store.Cursor { return db.st.Cursor() }

// ACL returns the database ACL.
func (db *Database) ACL() *acl.ACL {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.acl
}

// Notify registers c to be sent a value, without blocking, by every commit
// OnChange reports, as it commits: a wake for a consumer that reads what
// changed from the store by its own cursor (with a capacity of one, a
// burst leaves one pending wake). The refresh barrier never waits on it.
// After stop returns, c is sent nothing.
func (db *Database) Notify(c chan<- struct{}) (stop func()) {
	db.wmu.Lock()
	db.notify = append(db.notify, c)
	db.wmu.Unlock()
	return func() {
		db.wmu.Lock()
		defer db.wmu.Unlock()
		if i := slices.Index(db.notify, c); i >= 0 {
			db.notify = slices.Delete(db.notify, i, i+1)
		}
	}
}

// commitLocked is the one way a change reaches the store: it writes n (or,
// when n is nil, hard-deletes unid, listed for the maintainer) and wakes
// the maintainer, and every Notify channel for a Put OnChange reports.
// Call with wmu held, and wait on the returned ticket after releasing it:
// holding wmu across the log write would keep group-commit batches from
// forming.
func (db *Database) commitLocked(unid nsf.UNID, n *nsf.Note) (store.Commit, error) {
	var c store.Commit
	var err error
	if n == nil {
		m := &db.maint
		m.mu.Lock()
		c, err = db.st.DeleteAsync(unid)
		if c.USN != 0 {
			m.purged = append(m.purged, purge{c.USN, unid})
		}
		m.mu.Unlock()
	} else {
		c, err = db.st.PutAsync(n)
		if c.USN != 0 && n.Class != nsf.ClassReplFormula {
			for _, ch := range db.notify {
				select {
				case ch <- struct{}{}:
				default:
				}
			}
		}
	}
	if c.USN != 0 {
		select {
		case db.maint.wake <- struct{}{}:
		default:
		}
	}
	return c, err
}

// aclNoteUNID derives the deterministic UNID of the ACL note so that every
// replica addresses the same logical note and the ACL itself replicates.
func aclNoteUNID(r nsf.ReplicaID) nsf.UNID {
	var u nsf.UNID
	copy(u[:8], r[:])
	copy(u[8:], "ACLNOTE!")
	return u
}

// SaveACL persists the current ACL as the database's ACL note so it
// replicates. The caller's identity must hold Manager access; pass a nil
// session for administrative (server-local) writes.
func (db *Database) SaveACL(s *Session) error {
	if s != nil && !s.Identity().CanManageACL() {
		return fmt.Errorf("%w: %s may not modify the ACL", ErrAccessDenied, s.User())
	}
	n := &nsf.Note{OID: nsf.OID{UNID: aclNoteUNID(db.ReplicaID())}}
	db.ACL().WriteNote(n)
	return db.putVersioned(n, nil)
}

// putVersioned is putVersionedAsync waiting for durability.
func (db *Database) putVersioned(n *nsf.Note, check func(old *nsf.Note) error) error {
	c, err := db.putVersionedAsync(n, check)
	if err != nil {
		return err
	}
	return c.Wait()
}

// putVersionedAsync advances a note's OID and stores it, returning the
// store's durability ticket instead of waiting on it. A non-nil check
// judges the write on the version it replaces (nil when there is none)
// and may complete n from it; an error from check is returned and nothing
// is stored. check must keep nothing of old, which the next write reuses.
//
// The whole read-modify-write runs under wmu: the stored version is read
// once, checked, Seq and per-item Revs are computed from it, and the note
// is committed as one atomic section. Reading the old version outside wmu
// (as the seed did) let two concurrent saves of the same UNID both observe
// Seq=N and both stamp Seq=N+1 — one edit vanished and replication
// conflict detection (which compares Seq) lost the fork; a check made
// outside it judged a version another write could replace first.
func (db *Database) putVersionedAsync(n *nsf.Note, check func(old *nsf.Note) error) (store.Commit, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	old, err := db.storedLocked(n.OID.UNID)
	if err == nil && check != nil {
		err = check(old)
	}
	if err != nil {
		return store.Commit{}, err
	}
	if old == nil {
		n.OID.Seq = 1
		for i := range n.Items {
			n.Items[i].Rev = 1
		}
	} else {
		n.ID = old.ID
		n.OID.Seq = old.OID.Seq + 1
		n.Created = old.Created
		// Stamp per-item revisions: items whose values changed carry the
		// new sequence number (field-level merge uses these).
		for i := range n.Items {
			oldIt, ok := old.Item(n.Items[i].Name)
			if ok && oldIt.Value.Equal(n.Items[i].Value) && oldIt.Flags == n.Items[i].Flags {
				n.Items[i].Rev = oldIt.Rev
			} else {
				n.Items[i].Rev = n.OID.Seq
			}
		}
	}
	// Timestamps are issued inside the commit section, so SeqTime and
	// Modified order matches commit (USN) order.
	now := db.clock.Now()
	if old == nil && n.Created == 0 {
		n.Created = now
	}
	n.OID.SeqTime = now
	n.Modified = now
	return db.commitLocked(n.OID.UNID, n)
}

// storedLocked decodes the stored version of the note unid names into
// db.prior, or returns nil when there is none. Call with wmu held; the
// note is valid until the next call.
func (db *Database) storedLocked(unid nsf.UNID) (*nsf.Note, error) {
	rec, err := db.st.AppendRecord(db.priorRec[:0], unid)
	if cap(rec) <= maxKeptRecord {
		db.priorRec = rec
	}
	if errors.Is(err, ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	db.priorArena.Reset()
	if err := nsf.DecodeNoteIntoSrc(&db.prior, &db.priorArena, rec, string(rec)); err != nil {
		return nil, err
	}
	return &db.prior, nil
}

func (db *Database) evalContext(user string) *formula.Context {
	return &formula.Context{UserName: user, Now: db.clock.Now}
}

// --- raw (trusted) access, used by the replicator and server tasks ---

// RawGet returns a note bypassing ACL checks.
func (db *Database) RawGet(unid nsf.UNID) (*nsf.Note, error) {
	rec, err := db.st.AppendRecord(nil, unid)
	if err != nil {
		return nil, err
	}
	return nsf.DecodeNote(rec)
}

// RawRecord appends the stored record of the note unid names to dst
// (nsf.AppendNote's form, as the store holds it) bypassing ACL checks, and
// decodes its header, every field but Items, into hdr when hdr is non-nil.
// Every item is walked, so it rejects exactly the records RawGet rejects;
// on an error dst comes back as it was passed.
func (db *Database) RawRecord(dst []byte, unid nsf.UNID, hdr *nsf.Note) ([]byte, error) {
	start := len(dst)
	dst, err := db.st.AppendRecord(dst, unid)
	if err != nil {
		return dst, err
	}
	if err := nsf.DecodeHeader(dst[start:], hdr); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// recordPool recycles the buffers RawHeader reads records into.
var recordPool = sync.Pool{New: func() any { return new([]byte) }}

// maxKeptRecord caps the record buffers kept between reads (RawHeader's
// pool, the write path's db.priorRec), so one huge note cannot pin a huge
// buffer.
const maxKeptRecord = 1 << 20

// RawHeader returns the header of the note unid names, every field but
// Items, bypassing ACL checks: the version check replication makes before
// it fetches or applies a note. It rejects what RawGet rejects and makes
// no allocation once its pooled buffer has grown.
func (db *Database) RawHeader(unid nsf.UNID) (nsf.Note, error) {
	var h nsf.Note
	bp := recordPool.Get().(*[]byte)
	rec, err := db.RawRecord((*bp)[:0], unid, &h)
	if cap(rec) <= maxKeptRecord {
		*bp = rec
	}
	recordPool.Put(bp)
	if err != nil {
		return nsf.Note{}, err
	}
	return h, nil
}

// ErrChanged is returned by RawPutIf when the stored note is no longer the
// version the caller read.
var ErrChanged = errors.New("core: note changed since it was read")

// RawPut stores a note without touching its OID (the replicator supplies
// complete OIDs from the source replica). The maintainer brings views, full
// text and OnChange callbacks up to date. n itself is not
// modified: the local NoteID and the Modified stamp go on a copy of its
// header, which shares n's items. An ACL note that does not parse is
// refused with nothing stored: stored, it would keep the database from
// opening.
func (db *Database) RawPut(n *nsf.Note) error { return db.rawPut(n, nil) }

// RawPutIf is RawPut on the condition that the note n's UNID names is
// still at the version was describes, by OID and flags (a zero was: no
// such note); otherwise it stores nothing and returns ErrChanged. A
// replication apply decides on a header it read before this write's latch,
// and a local update or delete committed in between must not be
// overwritten by a decision made without it.
func (db *Database) RawPutIf(n *nsf.Note, was *nsf.Note) error { return db.rawPut(n, was) }

func (db *Database) rawPut(n *nsf.Note, was *nsf.Note) error {
	if n.Class == nsf.ClassACL && !n.IsStub() {
		if _, err := acl.FromNote(n); err != nil {
			return fmt.Errorf("core: replicated ACL note %s: %w", n.OID.UNID, err)
		}
	}
	db.clock.Observe(n.OID.SeqTime)
	db.clock.Observe(n.Modified)
	h := *n
	// A zero NoteID makes the store keep the one this UNID already has, or
	// allocate one, under the store latch that covers the put itself: a
	// concurrent delete-and-recreate of the same UNID can never leave two
	// NoteIDs live for one logical note.
	h.ID = 0
	db.wmu.Lock()
	if was != nil {
		cur, err := db.RawHeader(h.OID.UNID)
		if errors.Is(err, ErrNotFound) {
			err = nil
		}
		if err == nil && (cur.OID != was.OID || cur.Flags != was.Flags) {
			err = ErrChanged
		}
		if err != nil {
			db.wmu.Unlock()
			return err
		}
	}
	// Modified means "modified in this file": stamp the local receive time,
	// so unread marks (and @Modified, archiving cutoffs) see the arrival as
	// a change here, while the OID keeps the original version identity.
	h.Modified = db.clock.Now()
	c, err := db.commitLocked(h.OID.UNID, &h)
	db.wmu.Unlock()
	if err != nil {
		return err
	}
	// Await durability outside wmu so concurrent applies share the group
	// commit instead of serializing at this latch.
	if err := c.Wait(); err != nil {
		return err
	}
	// A design note arriving by replication must take effect. This stays on
	// the writer's path: it is rare and needs the store to be consistent
	// with the design registry. An ACL note parses: it was checked above.
	if ix, _ := db.applyDesign(n); ix != nil {
		return db.installViews(ix)
	}
	return nil
}

// RawDelete removes a note physically, bypassing stubs (used by the stub
// purger). Indexes drop the note at the maintainer's next pass.
func (db *Database) RawDelete(unid nsf.UNID) error {
	db.wmu.Lock()
	c, err := db.commitLocked(unid, nil)
	db.wmu.Unlock()
	if err != nil {
		return err
	}
	return c.Wait()
}

// ScanSince exposes the replication scan (stubs included, projected by
// keep) and returns the next scan's cursor; see store.Store.ScanSince.
func (db *Database) ScanSince(ctx context.Context, since store.Cursor, keep func(name []byte, flags nsf.ItemFlags) bool, fn func(*nsf.Note) bool) (store.Cursor, error) {
	var derr error
	dec := decoded(fn, &derr)
	next, err := db.st.ScanSince(ctx, since, keep, func(_ uint64, rec []byte) bool { return dec(rec) })
	return next, cmp.Or(err, derr)
}

// ScanAll visits every note, stubs and design notes included.
func (db *Database) ScanAll(fn func(*nsf.Note) bool) error {
	var derr error
	err := db.st.ScanRecords(context.Background(), 0, nil, decoded(fn, &derr))
	return cmp.Or(err, derr)
}

// decoded adapts a note callback to a record walk: each record is decoded
// whole into a note of fn's own. A record that does not decode stops the
// walk with its error in *err.
func decoded(fn func(*nsf.Note) bool, err *error) func(rec []byte) bool {
	return func(rec []byte) bool {
		n, derr := nsf.DecodeNote(rec)
		if derr != nil {
			*err = derr
			return false
		}
		return fn(n)
	}
}

// headers walks every note in NoteID order, reading its header (every
// field but Items, valid during want's call) and validating its record as
// RawRecord does, with no allocation for a note want declines. Each note
// want accepts is decoded whole and handed to fn, until fn returns false.
func (db *Database) headers(want func(hdr *nsf.Note) bool, fn func(*nsf.Note) bool) error {
	var hdr nsf.Note
	var derr error
	dec := decoded(fn, &derr)
	err := db.st.ScanRecords(context.Background(), 0, nil, func(rec []byte) bool {
		if derr = nsf.DecodeHeader(rec, &hdr); derr != nil || !want(&hdr) {
			return derr == nil
		}
		return dec(rec)
	})
	return cmp.Or(err, derr)
}

// PurgeStubs hard-deletes deletion stubs whose deletion happened before
// cutoff, returning how many were purged. A replica that has not synced
// since the cutoff can resurrect those deletes — exactly the documented
// Notes anomaly (see the T3 experiment).
func (db *Database) PurgeStubs(cutoff nsf.Timestamp) (int, error) {
	var victims []nsf.UNID
	err := db.headers(func(h *nsf.Note) bool {
		if h.IsStub() && h.OID.SeqTime < cutoff {
			victims = append(victims, h.OID.UNID)
		}
		return false
	}, nil)
	if err != nil {
		return 0, err
	}
	for _, u := range victims {
		if err := db.RawDelete(u); err != nil {
			return 0, err
		}
	}
	return len(victims), nil
}

// Checkpoint forces a storage checkpoint.
func (db *Database) Checkpoint() error { return db.st.Checkpoint() }

// Compact rewrites the database file to reclaim dead space (the Domino
// "compact" server task). Note identities are preserved, so views, the
// full-text index, and replication state remain valid. It returns the
// number of pages reclaimed.
func (db *Database) Compact() (int, error) { return db.st.Compact() }

// Verify checks the storage structures for cross-consistency (Domino's
// "fixup" in detect-only mode) and returns a description of each problem
// found; empty means healthy.
func (db *Database) Verify() []string { return db.st.Verify() }
