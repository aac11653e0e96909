// Package core implements the NSF database object: note CRUD with
// originator-ID versioning and deletion stubs, ACL and Reader/Author
// enforcement through sessions, persistent view definitions with
// incrementally maintained indexes, optional full-text indexing, and the
// raw interfaces the replicator uses.
//
// Change propagation is asynchronous: every mutation is appended, under the
// USN the store committed it at, to a per-database changefeed; view indexes,
// the full-text index, unread tables, and OnChange subscribers catch up on
// their own goroutines, and one that falls out of the feed catches up from
// the store by USN. Write latency is therefore independent of how many
// views or subscribers are open. Readers get read-your-writes on demand
// through the refresh barrier (WaitForUSN / Refresh), which Session.Rows
// and Session.Search apply automatically — the Domino "view refresh on
// open".
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/acl"
	"repro/internal/changefeed"
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

	// feed is the change log every consumer hangs off; wmu orders store
	// commits with feed appends (commitLocked) so consumers observe commit
	// order. It also makes every versioned read-modify-write atomic:
	// reading the stored version, computing Seq/Revs/NoteID, and committing
	// all happen under wmu, or two concurrent saves of one UNID would both
	// stamp Seq=N+1 and silently lose an edit.
	//
	// Latch order: wmu → store latch (Put/GetByUNID take the store latch
	// internally). Code holding the store latch must never acquire wmu —
	// the store never calls back into core, so the order is easy to keep.
	feed *changefeed.Feed
	wmu  sync.Mutex

	// ftCursor is the USN the full-text index reflects every change
	// through. The sidecar persists it, with the store's incarnation, so
	// reloads catch up incrementally.
	ftCursor atomic.Uint64

	mu        sync.RWMutex
	acl       *acl.ACL
	views     map[string]*view.Index
	ftIndex   *ft.Index
	onChanges int // counter naming OnChange subscribers
	unread    map[string]*unreadTable
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
		feed:  changefeed.New(changefeed.DefaultCapacity),
	}
	if err := db.loadDesign(); err != nil {
		st.Close()
		return nil, err
	}
	db.startMaintainers()
	return db, nil
}

// startMaintainers subscribes the index maintainers to the changefeed. They
// run for the life of the database, each on its own goroutine.
func (db *Database) startMaintainers() {
	db.feed.Subscribe("views", changefeed.Funcs{
		ApplyFunc:  db.applyToViews,
		ResyncFunc: db.resyncViews,
	})
	db.feed.Subscribe("fulltext", changefeed.Funcs{
		ApplyFunc:  db.applyToFullText,
		ResyncFunc: db.resyncFullText,
	})
	// Unread tables self-heal: UnreadCount prunes marks for vanished
	// documents, so an overflow needs no catch-up.
	db.feed.Subscribe("unread", changefeed.Funcs{ApplyFunc: db.applyToUnread})
}

// loadDesign reads the ACL note and view design notes.
func (db *Database) loadDesign() error {
	db.acl = acl.New(acl.Manager) // open until an ACL note says otherwise
	var designs []*nsf.Note
	err := db.st.ScanAll(func(n *nsf.Note) bool {
		switch n.Class {
		case nsf.ClassACL:
			if !n.IsStub() {
				designs = append(designs, n)
			}
		case nsf.ClassView:
			if !n.IsStub() {
				designs = append(designs, n)
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, n := range designs {
		switch n.Class {
		case nsf.ClassACL:
			a, err := acl.FromNote(n)
			if err != nil {
				return err
			}
			db.acl = a
		case nsf.ClassView:
			if n.Has(itemFolderTitle) {
				continue // folders carry membership, not an index definition
			}
			def, err := defFromNote(n)
			if err != nil {
				return fmt.Errorf("core: view note %s: %w", n.OID.UNID, err)
			}
			ix := view.NewIndex(def)
			if err := db.rebuildView(ix); err != nil {
				return err
			}
			db.views[strings.ToLower(def.Name)] = ix
		}
	}
	return nil
}

// Close drains the changefeed (maintainers apply everything already
// committed), persists the full-text sidecar (when enabled), checkpoints,
// and closes the database.
func (db *Database) Close() error {
	db.feed.Close()
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

// Stats reports database statistics: storage plus change-propagation (feed
// head, per-consumer lag, resync and drop counts).
type Stats struct {
	store.Stats
	// Feed reports changefeed position and per-subscriber progress.
	Feed changefeed.Stats
}

// Stats returns current database statistics.
func (db *Database) Stats() Stats {
	return Stats{Stats: db.st.Stats(), Feed: db.feed.Stats()}
}

// LastUSN returns the update sequence number of the most recent committed
// change (0 when none). Combine with WaitForUSN for read-your-writes.
func (db *Database) LastUSN() uint64 { return db.st.LastUSN() }

// WaitForUSN blocks until every live change consumer (views, full-text,
// unread tables, OnChange subscribers) has applied through usn — the
// read-side refresh barrier.
func (db *Database) WaitForUSN(usn uint64) { db.feed.WaitForUSN(usn) }

// Refresh waits until all change consumers have caught up with every
// change committed before the call — Domino's "view refresh", generalized.
// Session.Rows and Session.Search call it automatically.
func (db *Database) Refresh() { db.feed.WaitForUSN(db.feed.LastUSN()) }

// ACL returns the database ACL.
func (db *Database) ACL() *acl.ACL {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.acl
}

// OnChange registers fn to run after every note change (including
// replication applies and stub creation). Callbacks run asynchronously on
// a dedicated changefeed subscriber goroutine, in commit order; a callback
// that falls out of the feed is handed the current version of every note
// changed since it last ran, and may then see a few of them again. A
// callback that panics is dropped (with a log line) rather than unwinding
// anything else. Callbacks must not invoke the read barrier (Rows, Search,
// View, Refresh) on the same database — the barrier would wait on the
// callback's own cursor. Use Refresh from the outside to observe callback
// effects. The returned subscriber's Unsubscribe detaches the callback;
// callers that outlive their interest in changes (replication triggers,
// mesh links) should call it rather than leave a dead cursor on the feed.
//
// Local bookkeeping (notes of class ClassReplFormula: replication history,
// unread tables) never reaches fn: it never replicates, and the history
// save at the end of a replication run would otherwise look like a change
// to every consumer — retriggering replication forever and counting as
// database activity. Physical deletes (stub purges) stay local too.
func (db *Database) OnChange(fn func(*nsf.Note)) *changefeed.Subscriber {
	db.mu.Lock()
	db.onChanges++
	name := fmt.Sprintf("onchange-%d", db.onChanges)
	db.mu.Unlock()
	apply := func(e changefeed.Entry) {
		if e.Kind == changefeed.Put && e.Note.Class != nsf.ClassReplFormula {
			fn(e.Note)
		}
	}
	return db.feed.Subscribe(name, changefeed.Funcs{
		ApplyFunc: apply,
		ResyncFunc: func(applied uint64) error {
			_, err := db.catchUp(applied, nil, apply)
			return err
		},
	})
}

// commitLocked is the one way a change reaches the store: it writes n (or,
// when n is nil, hard-deletes unid) and appends the change to the feed at
// the USN the store committed it at, so the store and the feed share one
// sequence and feed order is commit order. Call with wmu held, and wait on
// the returned ticket after releasing it: holding wmu across the log write
// would serialize committers and no group-commit batch could form. The
// feed carries a clone, so a caller mutating n afterwards can never corrupt
// an index.
func (db *Database) commitLocked(unid nsf.UNID, n *nsf.Note) (store.Commit, error) {
	if n == nil {
		c, err := db.st.DeleteAsync(unid)
		if c.USN != 0 {
			db.feed.Append(c.USN, changefeed.Delete, unid, nil)
		}
		return c, err
	}
	c, err := db.st.PutAsync(n)
	if c.USN != 0 {
		db.feed.Append(c.USN, changefeed.Put, unid, n.Clone())
	}
	return c, err
}

// catchUp brings a consumer that missed the changes after USN applied up to
// date from the store: apply receives a Put entry for the current version
// of every note committed since, then a Delete entry for every UNID in held
// the store no longer has, since a hard delete leaves no USN to scan.
// Catch-up entries carry no USN; catchUp returns the USN the scan covered.
// A note committed again during the scan moves past that USN and is left
// to the feed: a resync resumes at the feed head it captured before the
// catch-up, which is at most that USN, so the ring still applies it.
func (db *Database) catchUp(applied uint64, held []nsf.UNID, apply func(changefeed.Entry)) (uint64, error) {
	since := store.Cursor{Incarnation: db.st.Incarnation(), USN: applied}
	next, err := db.st.ScanSince(context.Background(), since, nil, func(n *nsf.Note) bool {
		apply(changefeed.Entry{Kind: changefeed.Put, UNID: n.OID.UNID, Note: n})
		return true
	})
	if err != nil {
		return 0, err
	}
	for _, u := range held {
		ok, err := db.st.Exists(u)
		if err != nil {
			return 0, err
		}
		if !ok {
			apply(changefeed.Entry{Kind: changefeed.Delete, UNID: u})
		}
	}
	return next.USN, nil
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
	unid := aclNoteUNID(db.ReplicaID())
	n, err := db.st.GetByUNID(unid)
	if errors.Is(err, ErrNotFound) {
		n = &nsf.Note{OID: nsf.OID{UNID: unid}, Class: nsf.ClassACL, Created: db.clock.Now()}
		err = nil
	}
	if err != nil {
		return err
	}
	db.mu.RLock()
	a := db.acl
	db.mu.RUnlock()
	a.WriteNote(n)
	return db.putVersioned(n)
}

// putVersioned advances a note's OID and stores it durably.
func (db *Database) putVersioned(n *nsf.Note) error {
	c, err := db.putVersionedAsync(n)
	if err != nil {
		return err
	}
	return c.Wait()
}

// putVersionedAsync advances a note's OID and stores it, returning the
// store's durability ticket instead of waiting on it.
//
// The whole read-modify-write runs under wmu: the stored version is read,
// Seq and per-item Revs are computed, and the note is committed as one
// atomic section. Reading the old version outside wmu (as the seed did)
// let two concurrent saves of the same UNID both observe Seq=N and both
// stamp Seq=N+1 — one edit vanished and replication conflict detection
// (which compares Seq) lost the fork.
func (db *Database) putVersionedAsync(n *nsf.Note) (store.Commit, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	old, err := db.st.GetByUNID(n.OID.UNID)
	isNew := false
	switch {
	case errors.Is(err, ErrNotFound):
		isNew = true
		n.OID.Seq = 1
		for i := range n.Items {
			n.Items[i].Rev = 1
		}
	case err != nil:
		return store.Commit{}, err
	default:
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
	if isNew && n.Created == 0 {
		n.Created = now
	}
	n.OID.SeqTime = now
	n.Modified = now
	return db.commitLocked(n.OID.UNID, n)
}

func (db *Database) evalContext(user string) *formula.Context {
	return &formula.Context{UserName: user, Now: db.clock.Now}
}

// --- changefeed maintainers (each runs on its own subscriber goroutine) ---

// openViews returns the registered view indexes.
func (db *Database) openViews() []*view.Index {
	db.mu.RLock()
	defer db.mu.RUnlock()
	views := make([]*view.Index, 0, len(db.views))
	for _, ix := range db.views {
		views = append(views, ix)
	}
	return views
}

// applyToViews reflects one change in every open view index.
func (db *Database) applyToViews(e changefeed.Entry) {
	views := db.openViews()
	if e.Kind == changefeed.Delete {
		for _, ix := range views {
			ix.Remove(e.UNID)
		}
		return
	}
	ctx := db.evalContext("")
	for _, ix := range views {
		// Design changes to the view itself are handled by AddView; data
		// note errors here indicate a broken column formula — surface by
		// dropping the note from the view rather than failing maintenance.
		if _, err := ix.Update(e.Note, ctx); err != nil {
			ix.Remove(e.UNID)
		}
	}
}

// resyncViews catches every view up from the store after the maintainer
// fell out of the feed window.
func (db *Database) resyncViews(applied uint64) error {
	var held []nsf.UNID
	for _, ix := range db.openViews() {
		for _, e := range ix.Entries() {
			held = append(held, e.UNID)
		}
	}
	_, err := db.catchUp(applied, held, db.applyToViews)
	return err
}

// applyToFullText reflects one change in the full-text index, advancing the
// sidecar catch-up cursor.
func (db *Database) applyToFullText(e changefeed.Entry) {
	if ix := db.FullText(); ix != nil {
		applyToFT(ix, e)
		db.ftCursor.Store(e.USN)
	}
}

// resyncFullText catches the full-text index up from the store after the
// maintainer fell out of the feed window.
func (db *Database) resyncFullText(applied uint64) error {
	ix := db.FullText()
	if ix == nil {
		return nil
	}
	through, err := db.catchUpFullText(ix, applied)
	if err != nil {
		return err
	}
	db.ftCursor.Store(through)
	return nil
}

// applyToUnread drops read marks for documents that no longer exist, so
// loaded unread tables do not accumulate marks for purged notes.
func (db *Database) applyToUnread(e changefeed.Entry) {
	if e.Kind != changefeed.Delete && (e.Note == nil || !e.Note.IsStub()) {
		return
	}
	db.mu.RLock()
	tables := make([]*unreadTable, 0, len(db.unread))
	for _, t := range db.unread {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	for _, t := range tables {
		t.mu.Lock()
		delete(t.read, e.UNID)
		t.mu.Unlock()
	}
}

// --- raw (trusted) access, used by the replicator and server tasks ---

// RawGet returns a note bypassing ACL checks.
func (db *Database) RawGet(unid nsf.UNID) (*nsf.Note, error) { return db.st.GetByUNID(unid) }

// RawPut stores a note without touching its OID (the replicator supplies
// complete OIDs from the source replica). Views, full-text, and change
// subscribers are maintained through the changefeed.
func (db *Database) RawPut(n *nsf.Note) error {
	db.clock.Observe(n.OID.SeqTime)
	db.clock.Observe(n.Modified)
	db.wmu.Lock()
	// Preserve the local NoteID if this UNID already exists. The lookup
	// must sit inside wmu with the Put: done outside (as the seed did), a
	// concurrent delete-and-recreate of the same UNID could interleave so
	// that two NoteIDs end up live for one logical note — an orphan byID
	// entry the UNID index no longer points at.
	n.ID = 0
	if old, err := db.st.GetByUNID(n.OID.UNID); err == nil {
		n.ID = old.ID
	} else if !errors.Is(err, ErrNotFound) {
		db.wmu.Unlock()
		return err
	}
	// Modified means "modified in this file": stamp the local receive time,
	// so unread marks (and @Modified, archiving cutoffs) see the arrival as
	// a change here, while the OID keeps the original version identity.
	n.Modified = db.clock.Now()
	c, err := db.commitLocked(n.OID.UNID, n)
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
	// with the design registry.
	if n.Class == nsf.ClassACL && !n.IsStub() {
		if a, err := acl.FromNote(n); err == nil {
			db.mu.Lock()
			db.acl = a
			db.mu.Unlock()
		}
	}
	if n.Class == nsf.ClassView && !n.IsStub() {
		if def, err := defFromNote(n); err == nil {
			ix := view.NewIndex(def)
			if err := db.installView(ix); err != nil {
				return err
			}
		}
	}
	return nil
}

// RawDelete removes a note physically, bypassing stubs (used by the stub
// purger). Indexes drop the note when the feed entry reaches them.
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
	return db.st.ScanSince(ctx, since, keep, fn)
}

// ScanAll visits every note, stubs and design notes included.
func (db *Database) ScanAll(fn func(*nsf.Note) bool) error { return db.st.ScanAll(fn) }

// PurgeStubs hard-deletes deletion stubs whose deletion happened before
// cutoff, returning how many were purged. A replica that has not synced
// since the cutoff can resurrect those deletes — exactly the documented
// Notes anomaly (see the T3 experiment).
func (db *Database) PurgeStubs(cutoff nsf.Timestamp) (int, error) {
	var victims []nsf.UNID
	err := db.st.ScanAll(func(n *nsf.Note) bool {
		if n.IsStub() && n.OID.SeqTime < cutoff {
			victims = append(victims, n.OID.UNID)
		}
		return true
	})
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
