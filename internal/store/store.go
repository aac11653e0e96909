package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/nsf"
)

// ErrNotFound is returned when a requested note does not exist.
var ErrNotFound = errors.New("store: note not found")

// ErrQuotaExceeded is returned when a write would grow the database past
// its configured quota.
var ErrQuotaExceeded = errors.New("store: database quota exceeded")

// Options configure a Store.
type Options struct {
	// ReplicaID identifies the replica when creating a new database. If
	// zero, a random one is generated.
	ReplicaID nsf.ReplicaID
	// Title is the human-readable database title (creation only).
	Title string
	// Created stamps the database creation time (creation only).
	Created nsf.Timestamp
	// SyncWAL fsyncs the WAL before any commit is acknowledged. Off by
	// default: the WAL is still written before the acknowledgement, so only
	// an OS crash (not a process crash) can lose acknowledged commits.
	SyncWAL bool
	// GroupCommitWindow is how long a SyncWAL committer whose record would
	// otherwise be forced alone waits for company before forcing the log.
	// Every commit goes through group commit: committers enqueue their WAL
	// records into a shared batch and one leader writes (and, with SyncWAL,
	// fsyncs) the whole batch. Batching is natural — whatever accumulates
	// during the previous flush forms the next batch — so under concurrency
	// no one sleeps and zero is a good default; the window only helps a
	// lightly loaded SyncWAL store trade a lone writer's latency for fewer
	// fsyncs. It is ignored when SyncWAL is off.
	GroupCommitWindow time.Duration
	// CheckpointEvery triggers an automatic checkpoint after this many
	// logged operations. Zero means the default (8192); negative disables
	// automatic checkpoints.
	CheckpointEvery int
	// ArchiveDir, when non-empty, turns on log archiving: at every
	// checkpoint the sealed WAL contents are rotated into this directory as
	// a CRC-framed segment file instead of being discarded, preserving the
	// complete operation history for incremental backup verification and
	// point-in-time recovery. The directory is created if missing.
	ArchiveDir string
	// QuotaBytes caps the database file size; writes that would grow the
	// file past the quota fail with ErrQuotaExceeded (reads, deletes, and
	// in-place updates that do not grow the file still work). Zero means
	// unlimited.
	QuotaBytes int64
}

// Store is a persistent note store: the storage half of an NSF database.
// All methods are safe for concurrent use.
//
// Latching discipline: mu is a reader/writer latch. Point reads (GetByUNID,
// Exists, Count, metadata, Stats, Verify) take the read latch and run
// concurrently with each other; mutations (Put, Delete, Checkpoint,
// Compact, Close) take the exclusive latch. The pager's buffer pool and the
// heap's free-space map carry their own internal latches so concurrent
// readers can fault pages in safely. ScanAll and ScanSince are snapshot
// scans: they collect the ID list under a short read latch, then
// fetch notes in batches (each batch under its own brief read latch) and
// run the callback with no latch held — a full scan never blocks a writer
// for more than one batch fetch. Notes deleted between the ID snapshot and
// the fetch are skipped. This replaces the seed's literal reproduction of
// Domino's per-database update semaphore (one mutex around everything),
// which made every view rebuild or replication scan stall all writers.
type Store struct {
	mu              sync.RWMutex
	path            string
	pg              *pager
	wal             *wal
	gc              *commitGroup // every commit's way into the WAL
	heap            *heap
	cache           *noteCache // decoded-note cache
	byID            *btree     // NoteID (4B BE) -> RecordID (8B BE) + USN (8B BE)
	byUNID          *btree     // UNID (16B)     -> NoteID (4B BE)
	byUSN           *btree     // USN (8B BE)    -> NoteID (4B BE)
	opts            Options
	count           int // live notes (including stubs)
	sinceCheckpoint int
	closed          bool

	// usn is the update sequence number of the last committed operation.
	// It is dense (every Put/Delete advances it by one), persisted in the
	// header at checkpoints, and recovered exactly by WAL replay — the
	// change cursor every "what changed since" reader is built on.
	usn uint64
	// nextSegSeq numbers the next archived WAL segment (when archiving).
	nextSegSeq uint32
	// ckHold suspends checkpoints while a hot backup copies the page file
	// (writes keep appending to the WAL); ckDeferred remembers that a
	// checkpoint came due during the hold, and ckFree (on mu) wakes a
	// Compact waiting for the last hold to go.
	ckHold     int
	ckDeferred bool
	ckFree     *sync.Cond
}

// Open opens or creates the database at path (page file) with a companion
// WAL at path+".wal", and runs crash recovery.
func Open(path string, opts Options) (*Store, error) {
	replica := opts.ReplicaID
	if replica.IsZero() {
		replica = nsf.NewReplicaID()
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 8192
	}
	pg, err := openPager(path, replica, opts.Title, opts.Created)
	if err != nil {
		return nil, err
	}
	w, err := openWAL(path + ".wal")
	if err != nil {
		pg.close()
		return nil, err
	}
	s := &Store{path: path, pg: pg, wal: w, heap: newHeap(pg), opts: opts}
	s.ckFree = sync.NewCond(&s.mu)
	s.gc = newCommitGroup(w, opts.SyncWAL, opts.GroupCommitWindow)
	s.cache = newNoteCache()
	s.byID = &btree{pg: pg, slot: rootSlotByID}
	s.byUNID = &btree{pg: pg, slot: rootSlotByUNID}
	s.byUSN = &btree{pg: pg, slot: rootSlotByUSN}
	if opts.ArchiveDir != "" {
		if err := s.initArchive(); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if err := s.markOpen(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// markOpen durably clears the header's clean mark before any cursor is
// issued. A cursor counts commits not yet logged, which a crash can drop
// and recovery then renumbers below it, so a file opened without the mark
// (crashed, copied while open, or new) takes a fresh incarnation.
func (s *Store) markOpen() error {
	s.pg.hdrDirty = true
	if !s.pg.clean {
		s.pg.incarnation = rand.Uint64()
		return nil // already clear on disk: a crash before a checkpoint re-mints
	}
	s.pg.clean = false
	return s.pg.flush()
}

// recover rebuilds in-memory state from the checkpointed page file and
// replays the WAL through replayRecord.
func (s *Store) recover() error {
	if err := s.heap.rebuild(); err != nil {
		return err
	}
	n, err := s.byID.Len()
	if err != nil {
		return err
	}
	s.count = n
	s.usn = s.pg.lastUSN
	replayed := 0
	err = s.wal.replay(func(rec walRecord) error {
		replayed++
		return s.replayRecord(rec)
	})
	if err != nil {
		return err
	}
	if replayed > 0 {
		// Fold the replayed tail into a fresh checkpoint so the WAL shrinks
		// and a second crash replays nothing twice. (With archiving on this
		// also seals the replayed records into a segment; a crash between
		// sealing and the reset re-seals them, which the archive reader
		// tolerates because replay skips already-applied USNs.)
		if err := s.checkpointLocked(); err != nil {
			return err
		}
	}
	return nil
}

// replayRecord re-applies one logged operation — the redo step shared by
// crash recovery and archive roll-forward. A put stores the logged encoding
// itself; decoding only recovers the keys it is indexed under.
func (s *Store) replayRecord(rec walRecord) error {
	if rec.USN > s.usn {
		s.usn = rec.USN
	}
	switch rec.Kind {
	case walPut:
		note, err := nsf.DecodeNote(rec.Payload)
		if err != nil {
			return fmt.Errorf("store: replay put USN %d: %w", rec.USN, err)
		}
		return s.applyPutEncoded(note, rec.Payload, rec.USN)
	case walDelete:
		if len(rec.Payload) != 16 {
			return fmt.Errorf("store: replay delete USN %d: payload length %d", rec.USN, len(rec.Payload))
		}
		if err := s.applyDelete(nsf.UNID(rec.Payload)); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		return nil
	default:
		return fmt.Errorf("store: replay: unknown record kind %d", rec.Kind)
	}
}

// Path returns the page file path the store was opened with.
func (s *Store) Path() string { return s.path }

// Exists reports whether a note with the given UNID is stored, without
// loading it.
func (s *Store) Exists(unid nsf.UNID) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok, err := s.byUNID.Get(unid[:])
	return ok, err
}

// ReplicaID returns the database's replica identity.
func (s *Store) ReplicaID() nsf.ReplicaID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pg.replicaID
}

// Title returns the database title.
func (s *Store) Title() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pg.title
}

// Created returns the database creation timestamp.
func (s *Store) Created() nsf.Timestamp {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pg.created
}

// Count returns the number of stored notes, deletion stubs included.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

func idKey(id nsf.NoteID) []byte {
	var k [4]byte
	binary.BigEndian.PutUint32(k[:], uint32(id))
	return k[:]
}

// usnKey is a note's byUSN key: the USN of its last commit, big-endian so
// keys sort in commit order. An array, so a key costs no allocation.
func usnKey(usn uint64) (k [8]byte) {
	binary.BigEndian.PutUint64(k[:], usn)
	return k
}

// location decodes a byID value: where the note's record lives and the USN
// of the commit that stored it (its byUSN key).
func location(v []byte) (RecordID, uint64) {
	return RecordID(binary.BigEndian.Uint64(v)), binary.BigEndian.Uint64(v[8:])
}

// Commit is a durability ticket for one logged operation. Wait blocks until
// the operation's WAL record has been written (and fsynced per the store's
// SyncWAL setting) and returns the log-write error, if any. Many tickets
// resolve with one shared write. The zero Commit waits for nothing.
type Commit struct {
	// USN is the update sequence number the store assigned the operation.
	USN uint64
	g   *commitGroup
	b   *pendingBatch
}

// Wait blocks until the logged operation is durable.
func (c Commit) Wait() error {
	if c.g == nil {
		return nil
	}
	return c.g.wait(c.b)
}

// logRecord enqueues one WAL record on the commit group and returns the
// ticket to wait on.
func (s *Store) logRecord(kind byte, usn uint64, payload []byte) Commit {
	return Commit{USN: usn, g: s.gc, b: s.gc.enqueue(kind, usn, payload)}
}

// encBufPool recycles per-put note-encode buffers. Both the commit group's
// batch and the heap copy the encoding, so the buffer is free for reuse as
// soon as the apply completes.
var encBufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledEncBuf caps what goes back in the pool so one giant note does not
// pin a giant buffer forever.
const maxPooledEncBuf = 1 << 20

// Put stores a note (insert or update, keyed by UNID), assigning a NoteID
// when the note is new. The commit's USN indexes it for ScanSince; callers
// (internal/core) maintain OID versioning and the Modified stamp.
func (s *Store) Put(n *nsf.Note) error {
	c, err := s.PutAsync(n)
	if err != nil {
		return err
	}
	return c.Wait()
}

// PutAsync applies a put and returns a durability ticket instead of waiting
// for the WAL force. The note is visible to reads immediately; it is
// guaranteed on disk only after Wait returns nil. Callers that acknowledge
// writes (internal/core) wait outside their own latches so concurrent
// committers can share one group-commit fsync.
func (s *Store) PutAsync(n *nsf.Note) (Commit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Commit{}, errors.New("store: closed")
	}
	if n.OID.UNID.IsZero() {
		return Commit{}, errors.New("store: note has zero UNID")
	}
	if n.ID == 0 {
		// Reuse the NoteID if this UNID already exists; otherwise allocate.
		if v, ok, err := s.byUNID.Get(n.OID.UNID[:]); err != nil {
			return Commit{}, err
		} else if ok {
			n.ID = nsf.NoteID(binary.BigEndian.Uint32(v))
		} else {
			n.ID = nsf.NoteID(s.pg.nextNoteID)
			s.pg.nextNoteID++
			s.pg.hdrDirty = true
		}
	}
	bufp := encBufPool.Get().(*[]byte)
	enc := nsf.AppendNote((*bufp)[:0], n)
	defer func() {
		if cap(enc) <= maxPooledEncBuf {
			*bufp = enc
		}
		encBufPool.Put(bufp)
	}()
	// Quota check against the projected file size: current pages plus a
	// worst-case estimate for this note's records and index growth.
	// Deletion stubs are exempt — deleting must always be possible at
	// quota, since it is how users make room.
	if q := s.opts.QuotaBytes; q > 0 && !n.IsStub() {
		projected := int64(s.pg.pageCount)*PageSize + int64(len(enc)) + 4*PageSize
		if projected > q {
			return Commit{}, fmt.Errorf("%w: file would reach %d bytes (quota %d)", ErrQuotaExceeded, projected, q)
		}
	}
	ticket := s.logRecord(walPut, s.usn+1, enc)
	s.usn++
	if err := s.applyPutEncoded(n, enc, s.usn); err != nil {
		return ticket, err
	}
	return ticket, s.maybeCheckpoint()
}

// applyPutEncoded stores enc as note n's current version, committed at usn.
func (s *Store) applyPutEncoded(n *nsf.Note, enc []byte, usn uint64) error {
	if uint32(n.ID) >= s.pg.nextNoteID {
		s.pg.nextNoteID = uint32(n.ID) + 1
		s.pg.hdrDirty = true
	}
	// Remove the previous version, if any.
	if v, ok, err := s.byID.Get(idKey(n.ID)); err != nil {
		return err
	} else if ok {
		oldRID, oldUSN := location(v)
		s.cache.invalidate(oldRID)
		k := usnKey(oldUSN)
		if _, err := s.byUSN.Delete(k[:]); err != nil {
			return err
		}
		if err := s.heap.delete(oldRID); err != nil {
			return err
		}
		s.count--
	}
	rid, err := s.heap.insert(enc)
	if err != nil {
		return err
	}
	var loc [16]byte
	binary.BigEndian.PutUint64(loc[:], uint64(rid))
	binary.BigEndian.PutUint64(loc[8:], usn)
	id := idKey(n.ID)
	if err := s.byID.Put(id, loc[:]); err != nil {
		return err
	}
	if err := s.byUNID.Put(n.OID.UNID[:], id); err != nil {
		return err
	}
	k := usnKey(usn)
	if err := s.byUSN.Put(k[:], id); err != nil {
		return err
	}
	s.count++
	return nil
}

// Delete removes a note physically (hard delete). Logical deletion —
// replacing a note with a deletion stub so the delete replicates — is the
// job of internal/core; the storage engine only ever hard-deletes, e.g.
// when purging stubs past the cutoff.
func (s *Store) Delete(unid nsf.UNID) error {
	c, err := s.DeleteAsync(unid)
	if err != nil {
		return err
	}
	return c.Wait()
}

// DeleteAsync is Delete returning a durability ticket; see PutAsync.
func (s *Store) DeleteAsync(unid nsf.UNID) (Commit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Commit{}, errors.New("store: closed")
	}
	// Check existence before logging: a delete of a missing note must not
	// consume a USN or leave a record for recovery to replay.
	if _, ok, err := s.byUNID.Get(unid[:]); err != nil {
		return Commit{}, err
	} else if !ok {
		return Commit{}, ErrNotFound
	}
	ticket := s.logRecord(walDelete, s.usn+1, unid[:])
	s.usn++
	if err := s.applyDelete(unid); err != nil {
		return ticket, err
	}
	return ticket, s.maybeCheckpoint()
}

func (s *Store) applyDelete(unid nsf.UNID) error {
	v, ok, err := s.byUNID.Get(unid[:])
	if err != nil {
		return err
	}
	if !ok {
		return ErrNotFound
	}
	id := nsf.NoteID(binary.BigEndian.Uint32(v))
	rv, ok, err := s.byID.Get(idKey(id))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("store: index inconsistency: UNID %s maps to missing NoteID %d", unid, id)
	}
	rid, usn := location(rv)
	s.cache.invalidate(rid)
	k := usnKey(usn)
	if _, err := s.byUSN.Delete(k[:]); err != nil {
		return err
	}
	if _, err := s.byID.Delete(idKey(id)); err != nil {
		return err
	}
	if _, err := s.byUNID.Delete(unid[:]); err != nil {
		return err
	}
	if err := s.heap.delete(rid); err != nil {
		return err
	}
	s.count--
	return nil
}

// GetByUNID returns the note with the given UNID.
func (s *Store) GetByUNID(unid nsf.UNID) (*nsf.Note, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Hot path: the cache's UNID hint skips both index descents.
	if n, ok := s.cache.getByUNID(unid); ok {
		return n, nil
	}
	v, ok, err := s.byUNID.Get(unid[:])
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	return s.getByIDLocked(nsf.NoteID(binary.BigEndian.Uint32(v)), true)
}

// getByIDLocked loads a note by NoteID. The caller holds the store latch
// (read or exclusive).
func (s *Store) getByIDLocked(id nsf.NoteID, admit bool) (*nsf.Note, error) {
	v, ok, err := s.byID.Get(idKey(id))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	rid := RecordID(binary.BigEndian.Uint64(v))
	if n, ok := s.cache.get(rid); ok {
		return n, nil
	}
	enc, err := s.heap.get(rid)
	if err != nil {
		return nil, err
	}
	n, err := nsf.DecodeNote(enc)
	if err != nil {
		return nil, err
	}
	// Scans pass admit=false for scan resistance: one pass over a corpus
	// larger than the cache would otherwise evict the point-read working
	// set (and pay an eviction per miss) without ever re-using what it
	// inserted.
	if !admit {
		return n, nil
	}
	// The cache takes ownership of the decoded note and hands back a copy,
	// so a caller mutating its result can never corrupt a later read.
	return s.cache.add(rid, n), nil
}

// scanBatch is how many notes a snapshot scan fetches per read-latch hold.
const scanBatch = 256

// Cursor is a position in one copy's change history: every change committed
// at or below USN has been seen. USNs belong to one copy and rewind when it
// is restored to an earlier point, so a cursor also names the incarnation
// that issued it, and a scan handed a cursor from another incarnation starts
// over from USN 0 — the way a scan cursor is bound to the server that
// minted it.
type Cursor struct {
	Incarnation uint64
	USN         uint64
}

// ScanSince calls fn for the current version of every note whose last
// commit comes after since, in commit (USN) order, until fn returns false —
// the delta replication and full-text catch-up read. Deletion stubs are
// notes and are included; hard deletes leave nothing to report.
//
// The scan is snapshot-style: it observes the notes indexed when it starts,
// fetches them in batches, and runs fn with no latch held — writers are
// never stalled for the duration of the scan. Notes deleted while the scan
// is in flight are skipped; notes modified while it is in flight may be
// observed in either version.
//
// It returns the cursor for the next incremental scan: the store's USN read
// under the same latch as the snapshot. Every commit at or below it is in
// the snapshot, so the cursor can never run ahead of what was indexed.
func (s *Store) ScanSince(since Cursor, fn func(*nsf.Note) bool) (Cursor, error) {
	s.mu.RLock()
	if since.Incarnation != s.pg.incarnation {
		since.USN = 0
	}
	next := Cursor{Incarnation: s.pg.incarnation, USN: s.usn}
	from := usnKey(since.USN + 1)
	var ids []nsf.NoteID
	err := s.byUSN.Ascend(from[:], func(_, v []byte) bool {
		ids = append(ids, nsf.NoteID(binary.BigEndian.Uint32(v)))
		return true
	})
	s.mu.RUnlock()
	if err != nil {
		return Cursor{}, err
	}
	return next, s.fetchNotesCtx(context.Background(), ids, fn)
}

// ScanAll calls fn for every note in NoteID order until fn returns false:
// ScanFromCtx from the first NoteID, without a deadline.
func (s *Store) ScanAll(fn func(*nsf.Note) bool) error {
	return s.ScanFromCtx(context.Background(), 0, fn)
}

// ScanFromCtx calls fn for every note with NoteID strictly greater than
// after, in NoteID order, until fn returns false or ctx is done. Snapshot
// semantics match ScanSince: the ID list is collected under a short read
// latch, notes are fetched in batches, fn runs with no latch held, and
// concurrently deleted notes are skipped. The deadline is checked between
// fetch batches, so a cancelled scan stops within one scanBatch of work.
// NoteIDs are assigned monotonically from 1 and survive compaction, so a
// bulk reader that remembers the last ID it consumed can resume a scan of
// this physical database exactly where it stopped — the cursor the wire
// scan ops page with. (NoteIDs are per-copy: a cursor is meaningless
// against another replica of the same database.)
func (s *Store) ScanFromCtx(ctx context.Context, after nsf.NoteID, fn func(*nsf.Note) bool) error {
	if after == ^nsf.NoteID(0) {
		return nil
	}
	s.mu.RLock()
	var ids []nsf.NoteID
	err := s.byID.Ascend(idKey(after+1), func(k, _ []byte) bool {
		ids = append(ids, nsf.NoteID(binary.BigEndian.Uint32(k)))
		return true
	})
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	return s.fetchNotesCtx(ctx, ids, fn)
}

// fetchNotesCtx delivers the snapshot ID list to fn: each batch of notes is
// fetched under one brief read latch, then fn runs latch-free, so fn may
// re-enter the store (even to write) and a slow consumer never holds the
// latch. IDs whose notes vanished since the snapshot are skipped. The
// deadline is checked before each batch's latch acquisition: a cancelled
// scan returns ctx's error without fetching or delivering the rest of the
// snapshot.
func (s *Store) fetchNotesCtx(ctx context.Context, ids []nsf.NoteID, fn func(*nsf.Note) bool) error {
	batch := make([]*nsf.Note, 0, scanBatch)
	for len(ids) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := ids
		if len(chunk) > scanBatch {
			chunk = chunk[:scanBatch]
		}
		ids = ids[len(chunk):]
		batch = batch[:0]
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return errors.New("store: closed")
		}
		for _, id := range chunk {
			n, err := s.getByIDLocked(id, false)
			if err != nil {
				if errors.Is(err, ErrNotFound) {
					continue
				}
				s.mu.RUnlock()
				return err
			}
			batch = append(batch, n)
		}
		s.mu.RUnlock()
		for _, n := range batch {
			if !fn(n) {
				return nil
			}
		}
	}
	return nil
}

// maybeCheckpoint checkpoints when the configured operation budget since the
// last checkpoint is exhausted.
func (s *Store) maybeCheckpoint() error {
	s.sinceCheckpoint++
	if s.opts.CheckpointEvery < 0 || s.sinceCheckpoint < s.opts.CheckpointEvery {
		return nil
	}
	return s.checkpointLocked()
}

// Checkpoint flushes all dirty pages and truncates the WAL (sealing it into
// the archive first when log archiving is on).
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	if s.ckHold > 0 {
		// A hot backup is copying the page file: the file must not change
		// under the copy. The checkpoint runs when the hold is released
		// (or, after a crash, recovery replays the intact WAL).
		s.ckDeferred = true
		return nil
	}
	// Flush the forming group-commit batch first: sealing or resetting the
	// WAL while records sit in memory would lose them. A failed flush
	// poisons the group, so the checkpoint must not proceed past it.
	if err := s.gc.drain(); err != nil {
		return err
	}
	// Seal the WAL into the archive before touching the page file: if we
	// crash after sealing, recovery replays the intact WAL and re-seals
	// (overlap the archive reader skips); if we crash after the flush but
	// before the reset, likewise. Log history is never lost.
	if err := s.sealWALLocked(); err != nil {
		return err
	}
	s.pg.lastUSN = s.usn
	s.pg.hdrDirty = true
	if err := s.pg.flush(); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.sinceCheckpoint = 0
	s.ckDeferred = false
	return nil
}

// LastUSN returns the update sequence number of the last committed
// operation. USNs are dense, persistent, and recovered exactly by crash
// recovery.
func (s *Store) LastUSN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.usn
}

// Incarnation returns the identity of this copy's USN sequence, which only
// markOpen (create, crash recovery) and Reincarnate (restore) replace.
func (s *Store) Incarnation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pg.incarnation
}

// Reincarnate mints a new incarnation, durable at the next checkpoint, so
// cursors issued by any earlier copy of this file restart from USN 0 here:
// a restored copy's USNs may rewind below what those cursors saw.
func (s *Store) Reincarnate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pg.incarnation = rand.Uint64()
	s.pg.hdrDirty = true
}

// AdvanceUSN raises the store's USN to at least usn without logging an
// operation. Restore uses it after applying a backup image so subsequent
// point-in-time log replay lines up with the image's cursor.
func (s *Store) AdvanceUSN(usn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if usn > s.usn {
		s.usn = usn
	}
}

// Stats reports storage statistics.
type Stats struct {
	Notes      int
	Pages      int
	DirtyPages int
	WALBytes   int64
	// LastUSN is the update sequence number of the last committed
	// operation (persistent across reopens).
	LastUSN uint64
	// NoteCacheEntries/Hits/Misses report the decoded-note cache.
	NoteCacheEntries int
	NoteCacheHits    uint64
	NoteCacheMisses  uint64
	// GroupCommitFlushes/Records report group commit: batches written and
	// logical records carried by them. Records/Flushes is the achieved
	// write (and, with SyncWAL, fsync) amortization factor.
	GroupCommitFlushes uint64
	GroupCommitRecords uint64
}

// Stats returns current storage statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, hits, misses := s.cache.stats()
	flushes, records := s.gc.stats()
	return Stats{
		Notes:              s.count,
		Pages:              int(s.pg.pageCount),
		DirtyPages:         s.pg.dirtyCount(),
		WALBytes:           s.wal.size.Load(),
		LastUSN:            s.usn,
		NoteCacheEntries:   entries,
		NoteCacheHits:      hits,
		NoteCacheMisses:    misses,
		GroupCommitFlushes: flushes,
		GroupCommitRecords: records,
	}
}

// Close checkpoints and releases the underlying files.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.pg.clean = true // the final checkpoint folds in every issued USN
	err := s.checkpointLocked()
	if cerr := s.closeFiles(); err == nil {
		err = cerr
	}
	return err
}

func (s *Store) closeFiles() error {
	err := s.pg.close()
	if werr := s.wal.close(); err == nil {
		err = werr
	}
	return err
}
