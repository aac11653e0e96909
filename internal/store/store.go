package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/nsf"
	"repro/internal/vfs"
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
	// FS is the filesystem every file of the store, its archive and its
	// publishes goes through. Nil means the operating system (vfs.OS);
	// tests pass a fault-injecting one (internal/faultfs).
	FS vfs.FS
}

// Store is a persistent note store: the storage half of an NSF database.
// All methods are safe for concurrent use.
//
// Latching discipline: mu is a reader/writer latch. Point reads
// (AppendRecord, GetByUNID, Exists, Count, metadata, Stats, Verify) take
// the read latch and run concurrently with each other; mutations (Put,
// Delete, Checkpoint, Compact, Close) take the exclusive latch. The
// pager's buffer pool and the heap's free-space map carry their own
// internal latches so concurrent readers can fault pages in safely. Scans never hold the latch across
// their callback: ScanFromCtx and ScanSince are one bounded walk, of the
// NoteID or the USN index, one batch per brief read latch — a full scan
// never blocks a writer for more than one batch. Notes deleted mid-scan are
// skipped. This replaces the seed's literal reproduction of Domino's
// per-database update semaphore (one mutex around everything), which made
// every view rebuild or replication scan stall all writers.
type Store struct {
	mu              sync.RWMutex
	path            string
	pg              *pager
	wal             *wal
	gc              *commitGroup // every commit's way into the WAL
	heap            *heap
	byID            *btree // NoteID (4B BE) -> RecordID (8B BE) + USN (8B BE)
	byUNID          *btree // UNID (16B)     -> NoteID (4B BE)
	byUSN           *btree // USN (8B BE)    -> NoteID (4B BE)
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
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	pg, isNew, err := openPager(opts.FS, path, replica, opts.Title, opts.Created)
	if err != nil {
		return nil, err
	}
	w, err := openWAL(opts.FS, path+".wal")
	if err != nil {
		pg.close()
		return nil, err
	}
	// A new database's names must be durable before its first commit is
	// acknowledged, or a power loss could take the files with it.
	if isNew {
		if err := syncDir(opts.FS, filepath.Dir(path)); err != nil {
			pg.close()
			w.close()
			return nil, err
		}
	}
	s := &Store{path: path, pg: pg, wal: w, heap: newHeap(pg), opts: opts}
	s.ckFree = sync.NewCond(&s.mu)
	s.gc = newCommitGroup(w, opts.SyncWAL, opts.GroupCommitWindow)
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

// markOpen durably clears the header's close stamp before any cursor is
// issued. A cursor counts commits not yet logged, which a crash can drop
// and recovery then renumbers below it, so a file opened without a stamp
// (crashed, copied while open, or new) takes a fresh incarnation. So does a
// file closed somewhere else: a copy of a closed file would otherwise share
// its source's incarnation, and a cursor one issued would be honoured by
// the other, whose notes at the same USNs differ. The flush writes the
// header page alone (recovery left nothing else dirty), which needs no
// logged image: the header fits in one sector, so a torn write leaves it
// either stamped or cleared.
func (s *Store) markOpen() error {
	if s.pg.closedAt != closeStamp(s.path) {
		s.pg.incarnation = rand.Uint64()
	}
	if s.pg.closedAt == 0 {
		return nil // already clear on disk: a crash before a checkpoint re-mints
	}
	s.pg.closedAt = 0
	return s.pg.flush()
}

// closeStamp names where a file is closed: a hash of its absolute path,
// never 0 (the stamp of a file that is open). It cannot tell hosts apart:
// a copy opened at the same absolute path on another host keeps the
// incarnation, so such a copy must be seeded by restore.
func closeStamp(path string) uint64 {
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64() | 1
}

// recover rebuilds in-memory state from the checkpointed page file and
// replays the WAL through replayRecord. A checkpoint that crashed while
// overwriting pages left some old and some new, which logical redo cannot
// repair; its logged page images (walPages) can. So recovery first writes
// the last image frame's pages back in place, then redoes only the records
// logged after it.
func (s *Store) recover() (err error) {
	images, imagesUSN, err := s.wal.lastImages()
	if err != nil {
		return err
	}
	if images != nil {
		if err := s.pg.restore(images); err != nil {
			return err
		}
		// Pages off the log are trusted only once the structures they form
		// check out (Verify below). A corrupt image can hold any bytes,
		// including ones the B+tree and heap code index out of range on.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("store: logged page images are corrupt: %v", r)
			}
		}()
	}
	if err := s.heap.rebuild(); err != nil {
		return err
	}
	n, err := s.byID.Len()
	if err != nil {
		return err
	}
	s.count = n
	s.usn = s.pg.lastUSN
	if images != nil {
		if problems := s.Verify(); len(problems) != 0 {
			return fmt.Errorf("store: logged page images are inconsistent: %s", problems[0])
		}
	}
	replayed := 0
	err = s.wal.replay(func(rec walRecord) error {
		if rec.Kind == walPages || (images != nil && rec.USN <= imagesUSN) {
			return nil // already in the restored pages
		}
		replayed++
		return s.replayRecord(rec)
	})
	if err != nil {
		return err
	}
	if replayed > 0 || images != nil {
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
		if ok, err := s.idFits(note); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("store: replay put USN %d: NoteID %d conflicts with the indexes", rec.USN, note.ID)
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

// idFits reports whether a logged put of n keeps the NoteID its UNID
// already has, or takes one no other note has. Anything else is a corrupt
// log, and applying it would leave two UNIDs on one NoteID.
func (s *Store) idFits(n *nsf.Note) (bool, error) {
	if n.ID == 0 || n.OID.UNID.IsZero() {
		return false, nil
	}
	var buf [16]byte
	v, ok, err := s.byUNID.Get(n.OID.UNID[:], buf[:0])
	if err != nil || ok {
		return ok && nsf.NoteID(binary.BigEndian.Uint32(v)) == n.ID, err
	}
	_, taken, err := s.byID.Get(idKey(n.ID), buf[:0])
	return !taken, err
}

// Path returns the page file path the store was opened with.
func (s *Store) Path() string { return s.path }

// FS returns the filesystem the store's files live on (Options.FS).
func (s *Store) FS() vfs.FS { return s.opts.FS }

// Exists reports whether a note with the given UNID is stored, without
// loading it.
func (s *Store) Exists(unid nsf.UNID) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var buf [4]byte
	_, ok, err := s.byUNID.Get(unid[:], buf[:0])
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
		var buf [4]byte
		if v, ok, err := s.byUNID.Get(n.OID.UNID[:], buf[:0]); err != nil {
			return Commit{}, err
		} else if ok {
			n.ID = nsf.NoteID(binary.BigEndian.Uint32(v))
		} else {
			n.ID = nsf.NoteID(s.pg.nextNoteID)
			s.pg.nextNoteID++
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
	}
	// Remove the previous version, if any.
	var buf [16]byte
	if v, ok, err := s.byID.Get(idKey(n.ID), buf[:0]); err != nil {
		return err
	} else if ok {
		oldRID, oldUSN := location(v)
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
	var buf [4]byte
	if _, ok, err := s.byUNID.Get(unid[:], buf[:0]); err != nil {
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
	id, rid, usn, err := s.locate(unid)
	if err != nil {
		return err
	}
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

// GetByUNID returns the note with the given UNID, decoded whole from its
// stored record.
func (s *Store) GetByUNID(unid nsf.UNID) (*nsf.Note, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, rid, _, err := s.locate(unid)
	if err != nil {
		return nil, err
	}
	enc, err := s.heap.view(rid, nil)
	if err != nil {
		return nil, err
	}
	return nsf.DecodeNote(enc)
}

// scanBatch is how many index entries a note walk visits per latch hold.
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
// commit comes after since, in commit (USN) order, until fn returns false
// or ctx is done — the delta replication and index catch-up read. Deletion
// stubs are notes and are included; hard deletes leave nothing to report.
// Each note carries only the items keep accepts (nil keeps all).
//
// The store's USN, read under the walk's first latch hold, bounds it and is
// the cursor returned. A note committed again during the walk moves past
// that cursor, so the next scan delivers it instead of this one: no note
// comes twice in one scan, and a scan plus the next one from its cursor
// never skip a latest version.
func (s *Store) ScanSince(ctx context.Context, since Cursor, keep func(name []byte, flags nsf.ItemFlags) bool, fn func(*nsf.Note) bool) (Cursor, error) {
	var derr error
	dec := decoded(fn, &derr)
	next, err := s.scanSince(ctx, since, false, keep, func(_ uint64, rec []byte) bool { return dec(rec) })
	if err == nil {
		err = derr
	}
	return next, err
}

// ScanSinceRecords calls fn with the USN and the record of every note
// whose last commit comes after since, in USN order, until fn returns
// false or ctx is done; a record is as ScanRecords hands it out.
//
// Unlike ScanSince it has no bound: it ends at the latch hold that reaches
// the end of the USN index, and returns that hold's USN. A note committed
// again during the walk lands past the walk's position, so fn got every
// note whose last commit is at or below that cursor, at that commit: the
// cursor a change consumer is current through. Commits arriving faster
// than fn takes them keep the walk from ending.
func (s *Store) ScanSinceRecords(ctx context.Context, since Cursor, keep func(name []byte, flags nsf.ItemFlags) bool, fn func(usn uint64, rec []byte) bool) (Cursor, error) {
	return s.scanSince(ctx, since, true, keep, fn)
}

// scanSince is the USN index walk behind ScanSince and ScanSinceRecords.
// A cursor from another incarnation starts it over from USN 0.
func (s *Store) scanSince(ctx context.Context, since Cursor, chase bool, keep func(name []byte, flags nsf.ItemFlags) bool, fn func(usn uint64, rec []byte) bool) (Cursor, error) {
	var next Cursor
	last, err := s.walk(ctx, true, chase, func() (after, last uint64) {
		if next.Incarnation = s.pg.incarnation; since.Incarnation == next.Incarnation {
			after = since.USN
		}
		return after, s.usn
	}, keep, fn)
	next.USN = last
	return next, err
}

// ScanFromCtx calls fn for every note with NoteID strictly greater than
// after, in NoteID order, until fn returns false or ctx is done. Each note
// carries only the items keep accepts (nil keeps all): it is ScanRecords
// with each record decoded.
func (s *Store) ScanFromCtx(ctx context.Context, after nsf.NoteID, keep func(name []byte, flags nsf.ItemFlags) bool, fn func(*nsf.Note) bool) error {
	var derr error
	err := s.ScanRecords(ctx, after, keep, decoded(fn, &derr))
	if err == nil {
		err = derr
	}
	return err
}

// ScanRecords calls fn with the record of every note with NoteID strictly
// greater than after, in NoteID order, until fn returns false or ctx is
// done. A record is the note's encoding (nsf.EncodeNote's form) carrying
// only the items keep accepts (nsf.AppendProjected, which validates it),
// or with a nil keep the stored record as it is, and is valid only during
// the call.
//
// The walk stops at the NoteID high-water mark read under its first latch
// hold, so notes created during the scan are never visited and the scan
// always ends. NoteIDs are assigned monotonically from 1 and survive
// compaction, so a bulk reader that remembers the last ID it consumed can
// resume a scan of this physical database exactly where it stopped — the
// cursor the wire scan ops page with. (NoteIDs are per-copy: a cursor is
// meaningless against another replica of the same database.)
func (s *Store) ScanRecords(ctx context.Context, after nsf.NoteID, keep func(name []byte, flags nsf.ItemFlags) bool, fn func(rec []byte) bool) error {
	_, err := s.walk(ctx, false, false, func() (uint64, uint64) {
		return uint64(after), uint64(s.pg.nextNoteID) - 1
	}, keep, func(_ uint64, rec []byte) bool { return fn(rec) })
	return err
}

// decoded adapts a note callback to the record walk: each record is
// decoded whole, so the note carries exactly the items the walk kept. A
// record that does not decode stops the walk with its error in *err.
func decoded(fn func(*nsf.Note) bool, err *error) func([]byte) bool {
	return func(rec []byte) bool {
		n, derr := nsf.DecodeNote(rec)
		if derr != nil {
			*err = derr
			return false
		}
		return fn(n)
	}
}

// walk is the one note walk, behind ScanRecords (byUSN false: the NoteID
// index) and scanSince (byUSN true: the USN index), handing fn each note's
// key in that index with its record. start, called under the first
// read-latch hold, names the key the walk resumes after and the last key
// it may visit; with chase, each later hold moves that last key up to the
// store's USN. walk returns the last key in force when it ended. Each hold walks up to scanBatch entries and appends
// each note's record, projected to the items keep accepts, to one arena
// that every hold reuses (a chained record is assembled in one reused
// buffer first), so a hold allocates nothing per note. fn then gets the
// records with no latch held, so fn may re-enter the store (even to write)
// and a slow consumer never holds the latch. The next hold resumes after
// the last key walked. Notes deleted during the walk are skipped. ctx is
// checked before each hold, so a cancelled walk stops within one scanBatch of work.
func (s *Store) walk(ctx context.Context, byUSN, chase bool, start func() (after, last uint64), keep func([]byte, nsf.ItemFlags) bool, fn func(key uint64, rec []byte) bool) (uint64, error) {
	type span struct {
		key uint64
		end int // where the record ends in arena
	}
	var after, last uint64
	var arena, chain []byte
	ends := make([]span, 0, scanBatch)
	more := false
	var werr error
	visit := func(k, v []byte) bool {
		key, rid, err := s.walkEntry(byUSN, k, v)
		if err != nil || key > last {
			werr = err
			return false
		}
		if len(ends) == scanBatch {
			more = true
			return false
		}
		arena, err = s.appendRecord(arena, rid, &chain, keep, int(min(last-after, 4<<10)))
		if err != nil {
			werr = err
			return false
		}
		ends = append(ends, span{key, len(arena)})
		after = key
		return true
	}
	for first := true; ; first = false {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		arena, ends, more, werr = arena[:0], ends[:0], false, nil
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return last, errors.New("store: closed")
		}
		if first {
			after, last = start()
		} else if chase {
			last = s.usn
		}
		if after >= last {
			s.mu.RUnlock()
			return last, nil
		}
		ix, from := s.byID, idKey(nsf.NoteID(after+1))
		if byUSN {
			k := usnKey(after + 1)
			ix, from = s.byUSN, k[:]
		}
		err := ix.Ascend(from, visit)
		s.mu.RUnlock()
		if err == nil {
			err = werr
		}
		if err != nil {
			return last, err
		}
		begin := 0
		for _, e := range ends {
			if !fn(e.key, arena[begin:e.end:e.end]) {
				return last, nil
			}
			begin = e.end
		}
		if !more {
			return last, nil
		}
	}
}

// appendRecord appends the record rid names, projected to the items keep
// accepts (nil: the stored record as it is, validated where it is
// decoded), to arena; a chained record is assembled in *chain first. The
// arena doubles, rather than growing by the quarter append adds past 256
// bytes, from 4 KiB or, with fewer records left, that many of this one's
// size. The caller holds the store latch.
func (s *Store) appendRecord(arena []byte, rid RecordID, chain *[]byte, keep func([]byte, nsf.ItemFlags) bool, left int) ([]byte, error) {
	rec, err := s.heap.view(rid, chain)
	if err != nil {
		return arena, err
	}
	if cap(arena)-len(arena) < len(rec) {
		arena = slices.Grow(arena, max(len(rec)+len(arena), min(4<<10, min(left, 4<<10)*len(rec))))
	}
	if keep == nil {
		return append(arena, rec...), nil
	}
	return nsf.AppendProjected(arena, rec, keep)
}

// AppendRecord appends the stored record of the note unid names to dst,
// as it is stored (nsf.EncodeNote's form), or returns dst and ErrNotFound
// when there is no such note: the point read a Get ships. A chained record
// is assembled in dst's spare room, so a caller that reuses dst makes no
// allocation.
func (s *Store) AppendRecord(dst []byte, unid nsf.UNID) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return dst, errors.New("store: closed")
	}
	_, rid, _, err := s.locate(unid)
	if err != nil {
		return dst, err
	}
	chain := dst[len(dst):]
	return s.appendRecord(dst, rid, &chain, nil, 1)
}

// RecordsByUNID calls fn(i, rec) for i from 0 to n-1, in order, with the
// record of the note unid(i) names, projected to the items keep accepts
// as ScanRecords projects it, or a nil rec when there is no such note,
// until fn returns false or ctx is done. It is the search join's lookup,
// run as the note walk runs: holds of at most scanBatch lookups copy the
// records into one arena every hold reuses (no allocation per note), ctx
// is checked before each hold, and fn runs with no latch held and a record
// is valid only during its call. unid runs under the read latch and must
// not call into the store.
func (s *Store) RecordsByUNID(ctx context.Context, n int, unid func(i int) nsf.UNID, keep func([]byte, nsf.ItemFlags) bool, fn func(i int, rec []byte) bool) error {
	var arena, chain []byte
	ends := make([]int, 0, min(n, scanBatch)) // where each record in arena ends; -1: no such note
	for i := 0; i < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		arena, ends = arena[:0], ends[:0]
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return errors.New("store: closed")
		}
		var err error
		for j := i; j < min(n, i+scanBatch) && err == nil; j++ {
			var rid RecordID
			if _, rid, _, err = s.locate(unid(j)); err == nil {
				arena, err = s.appendRecord(arena, rid, &chain, keep, n-j)
				ends = append(ends, len(arena))
			} else if errors.Is(err, ErrNotFound) {
				err = nil
				ends = append(ends, -1)
			}
		}
		s.mu.RUnlock()
		if err != nil {
			return err
		}
		begin := 0
		for _, end := range ends {
			var rec []byte
			if end >= 0 {
				rec, begin = arena[begin:end:end], end
			}
			if !fn(i, rec) {
				return nil
			}
			i++
		}
	}
	return nil
}

// locate finds the note unid names: its NoteID, its record and the USN of
// the commit that stored it, or ErrNotFound. The index values are copied
// into stack buffers, so a lookup allocates nothing. The caller holds the
// store latch.
func (s *Store) locate(unid nsf.UNID) (nsf.NoteID, RecordID, uint64, error) {
	var idBuf [4]byte
	var locBuf [16]byte
	id, ok, err := s.byUNID.Get(unid[:], idBuf[:0])
	if err == nil && !ok {
		err = ErrNotFound
	}
	if err != nil {
		return 0, 0, 0, err
	}
	loc, ok, err := s.byID.Get(id, locBuf[:0])
	if err == nil && !ok {
		err = fmt.Errorf("store: index inconsistency: UNID %s maps to missing NoteID %d", unid, binary.BigEndian.Uint32(id))
	}
	if err != nil {
		return 0, 0, 0, err
	}
	rid, usn := location(loc)
	return nsf.NoteID(binary.BigEndian.Uint32(id)), rid, usn, nil
}

// walkEntry reads an entry of the index a walk follows: its key (a NoteID,
// or with byUSN a USN) and the heap record of the note it names. A byID
// value holds the record; a byUSN value holds the NoteID to look it up by.
// The caller holds the store latch.
func (s *Store) walkEntry(byUSN bool, k, v []byte) (uint64, RecordID, error) {
	if !byUSN {
		rid, _ := location(v)
		return uint64(binary.BigEndian.Uint32(k)), rid, nil
	}
	var buf [16]byte
	loc, ok, err := s.byID.Get(v, buf[:0])
	if err == nil && !ok {
		err = fmt.Errorf("store: index inconsistency: USN %d maps to missing NoteID %d", binary.BigEndian.Uint64(k), binary.BigEndian.Uint32(v))
	}
	if err != nil {
		return 0, 0, err
	}
	rid, _ := location(loc)
	return binary.BigEndian.Uint64(k), rid, nil
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
	// Log the header and every dirty page, synced, before overwriting any
	// of them in place: a crash amid the overwrites then recovers from the
	// images (see recover). A failed flush leaves the frame in the log and
	// the pages dirty, so the next checkpoint writes them again.
	if err := s.wal.appendImages(s.usn, s.pg); err != nil {
		return err
	}
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
func (s *Store) LastUSN() uint64 { return s.Cursor().USN }

// Cursor returns the incarnation and the USN under one latch hold: the
// cursor a ScanSince started now would return.
func (s *Store) Cursor() Cursor {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Cursor{Incarnation: s.pg.incarnation, USN: s.usn}
}

// Incarnation returns the identity of this copy's USN sequence, which only
// markOpen (create, crash recovery) and Reincarnate (restore) replace.
func (s *Store) Incarnation() uint64 { return s.Cursor().Incarnation }

// Reincarnate mints a new incarnation, durable at the next checkpoint, so
// cursors issued by any earlier copy of this file restart from USN 0 here:
// a restored copy's USNs may rewind below what those cursors saw.
func (s *Store) Reincarnate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pg.incarnation = rand.Uint64()
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
	// NoteCacheEntries/Hits/Misses are always 0: the store keeps no
	// decoded-note cache. They stay only because the benchmark reads them.
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
	flushes, records := s.gc.stats()
	return Stats{
		Notes:              s.count,
		Pages:              int(s.pg.pageCount),
		DirtyPages:         s.pg.dirtyCount(),
		WALBytes:           s.wal.size.Load(),
		LastUSN:            s.usn,
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
	s.pg.closedAt = closeStamp(s.path) // the final checkpoint folds in every issued USN
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
