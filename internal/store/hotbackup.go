package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/nsf"
)

// Hot (online) backup. The no-steal durability model makes this cheap: the
// on-disk page file only ever changes at a checkpoint, so between
// checkpoints it is an immutable, consistent snapshot and the WAL holds
// everything since. A hot backup therefore (1) suspends checkpoints and
// compaction, (2) copies the page file through the pager's descriptor while
// commits keep appending to the WAL, (3) snapshots the WAL tail and cursors
// under the store mutex, and (4) releases the hold, running any checkpoint
// that came due. The commit path is never blocked for the duration of the
// copy.

// BackupMark describes the consistent point a hot backup captured.
type BackupMark struct {
	// LastUSN is the USN of the last operation included in the snapshot.
	LastUSN uint64
	// Incarnation identifies the USN sequence LastUSN belongs to.
	Incarnation uint64
	// PageBytes and WALBytes are the sizes of the two copied streams.
	PageBytes int64
	WALBytes  int64
	// Replica is the database's replica identity.
	Replica nsf.ReplicaID
}

// holdCheckpoints suspends checkpoints (and compaction) and returns the
// pager, whose file cannot change until the release function runs. Release
// resumes checkpoints, running a deferred one if it came due, and returns
// that checkpoint's error (nil when none ran); calls after the first do
// nothing.
func (s *Store) holdCheckpoints() (*pager, func() error, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, errors.New("store: closed")
	}
	s.ckHold++
	released := false
	return s.pg, func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if released {
			return nil
		}
		released = true
		s.ckHold--
		if s.ckHold > 0 {
			return nil
		}
		s.ckFree.Broadcast()
		if s.ckDeferred && !s.closed {
			return s.checkpointLocked()
		}
		return nil
	}, nil
}

// HotBackup streams a consistent snapshot of the database to pageW (the
// page file image) and walW (the WAL tail), without blocking concurrent
// commits. The snapshot reflects exactly the operations with USN <=
// mark.LastUSN: restoring both streams and running ordinary crash recovery
// reproduces that state.
func (s *Store) HotBackup(pageW, walW io.Writer) (BackupMark, error) {
	pg, release, err := s.holdCheckpoints()
	if err != nil {
		return BackupMark{}, err
	}
	defer release()

	// Phase 2: copy the page file through the pager's own descriptor. The
	// file cannot change or be swapped while the hold is open, so a
	// sequential copy is a consistent snapshot.
	pageBytes, err := pg.copyTo(pageW)
	if err != nil {
		return BackupMark{}, fmt.Errorf("store: copy page file: %w", err)
	}

	// Phase 3: snapshot the WAL tail and cursors atomically. The WAL is
	// append-only, so everything up to the recorded size is immutable; the
	// copy itself happens outside the lock.
	s.mu.Lock()
	// Records can sit in the forming group-commit batch: settle them into
	// the WAL first, or the snapshot would claim a LastUSN whose trailing
	// operations are missing from the copied log.
	if err := s.gc.drain(); err != nil {
		s.mu.Unlock()
		return BackupMark{}, err
	}
	raw, err := s.wal.readAll()
	mark := BackupMark{
		LastUSN:     s.usn,
		Incarnation: s.pg.incarnation,
		PageBytes:   pageBytes,
		WALBytes:    int64(len(raw)),
		Replica:     s.pg.replicaID,
	}
	s.mu.Unlock()
	if err != nil {
		return BackupMark{}, err
	}
	if _, err := walW.Write(raw); err != nil {
		return BackupMark{}, fmt.Errorf("store: copy wal tail: %w", err)
	}
	if err := release(); err != nil {
		return BackupMark{}, err
	}
	return mark, nil
}

// SnapshotSince returns the encoded form of every note last committed after
// USN after, the full set of live UNIDs, and the store cursors, all captured
// atomically under one lock hold — the delta an incremental backup writes.
// Notes are returned in USN order. The UNID manifest is what lets a restore
// reproduce hard deletes: any note staged from earlier images whose UNID is
// absent from the manifest was deleted in the span the delta covers.
func (s *Store) SnapshotSince(after uint64) ([][]byte, []nsf.UNID, BackupMark, error) {
	// One read-latch hold across the whole capture: the note delta, the
	// UNID manifest, and the cursors must be mutually consistent, so
	// writers are held off for the duration — but concurrent readers are
	// not, and the hold is bounded by the delta size, not the database.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, nil, BackupMark{}, errors.New("store: closed")
	}
	from := usnKey(after + 1)
	var ids []nsf.NoteID
	err := s.byUSN.Ascend(from[:], func(_, v []byte) bool {
		ids = append(ids, nsf.NoteID(binary.BigEndian.Uint32(v)))
		return true
	})
	if err != nil {
		return nil, nil, BackupMark{}, err
	}
	notes := make([][]byte, 0, len(ids))
	for _, id := range ids {
		v, ok, err := s.byID.Get(idKey(id))
		if err != nil {
			return nil, nil, BackupMark{}, err
		}
		if !ok {
			continue // deleted between index scan and read (same lock: cannot happen; defensive)
		}
		enc, err := s.heap.get(RecordID(binary.BigEndian.Uint64(v)))
		if err != nil {
			return nil, nil, BackupMark{}, err
		}
		notes = append(notes, enc)
	}
	manifest := make([]nsf.UNID, 0, s.count)
	err = s.byUNID.Ascend(nil, func(k, _ []byte) bool {
		var u nsf.UNID
		copy(u[:], k)
		manifest = append(manifest, u)
		return true
	})
	if err != nil {
		return nil, nil, BackupMark{}, err
	}
	mark := BackupMark{
		LastUSN:     s.usn,
		Incarnation: s.pg.incarnation,
		Replica:     s.pg.replicaID,
	}
	return notes, manifest, mark, nil
}
