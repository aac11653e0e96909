package store

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/nsf"
)

// Compact rewrites the database into a fresh file, dropping dead space
// (freed pages, slack in heap pages, shallow B+trees), then atomically
// swaps it in place and reopens. Note IDs, UNIDs, versions and the replica
// identity are all preserved, so views and replication state stay valid.
// It returns the number of pages reclaimed.
func (s *Store) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	// Quiesce group commit before touching files: an in-flight leader may
	// still be appending to the WAL we are about to close and swap out, and
	// pending waiters must be acked against the old file while it exists.
	if s.gc != nil {
		if err := s.gc.drain(); err != nil {
			return 0, err
		}
	}
	// Make the page file current first.
	if err := s.pg.flush(); err != nil {
		return 0, err
	}
	before := int(s.pg.pageCount)

	tmpPath := s.path + ".compact"
	// A stale temp file from an interrupted compaction is discarded.
	os.Remove(tmpPath)
	os.Remove(tmpPath + ".wal")
	fresh, err := Open(tmpPath, Options{
		ReplicaID:       s.pg.replicaID,
		Title:           s.pg.title,
		Created:         s.pg.created,
		CheckpointEvery: -1,
	})
	if err != nil {
		return 0, err
	}
	cleanupFresh := func() {
		fresh.Close()
		os.Remove(tmpPath)
		os.Remove(tmpPath + ".wal")
	}
	// Copy every live note. Iterate via the byID tree directly (we already
	// hold s.mu, so the public Scan methods would deadlock).
	var ids []nsf.NoteID
	err = s.byID.Ascend(nil, func(k, _ []byte) bool {
		ids = append(ids, decodeIDKey(k))
		return true
	})
	if err != nil {
		cleanupFresh()
		return 0, err
	}
	for _, id := range ids {
		// admit=false: the one-shot rewrite pass must not evict the live
		// working set (the cache is cleared after the swap anyway).
		n, err := s.getByIDLocked(id, false)
		if err != nil {
			cleanupFresh()
			return 0, err
		}
		if err := fresh.Put(n); err != nil {
			cleanupFresh()
			return 0, err
		}
	}
	// Preserve the allocation high-water marks: future NoteIDs never
	// collide with ones handed out before compaction, and the USN stream
	// continues where the original left off (the copy loop above burned
	// fresh-store USNs that mean nothing — overwrite them).
	fresh.mu.Lock()
	if fresh.pg.nextNoteID < s.pg.nextNoteID {
		fresh.pg.nextNoteID = s.pg.nextNoteID
		fresh.pg.hdrDirty = true
	}
	fresh.usn = s.usn
	fresh.modHigh = s.modHigh
	fresh.mu.Unlock()
	if err := fresh.Checkpoint(); err != nil {
		cleanupFresh()
		return 0, err
	}
	after := int(fresh.pg.pageCount)
	if err := fresh.closeFilesLocked(); err != nil {
		cleanupFresh()
		return 0, err
	}
	// The checkpoint above fsynced both temp files (page-file flush and WAL
	// reset both sync), so their contents are durable before the renames
	// make them visible.
	// Swap the files in. Rename is atomic per file; a crash between the two
	// renames leaves a fresh page file with a stale WAL, which reset-on-
	// checkpoint made empty above, so recovery is still correct.
	if err := s.closeFiles(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return 0, fmt.Errorf("store: swap compacted file: %w", err)
	}
	if err := os.Rename(tmpPath+".wal", s.path+".wal"); err != nil {
		return 0, fmt.Errorf("store: swap compacted wal: %w", err)
	}
	// Make the rename pair durable: without a directory fsync a power loss
	// here could surface the old page file next to the new WAL (or neither
	// rename), a resurrect-prone half-swapped store.
	if err := syncDir(filepath.Dir(s.path)); err != nil {
		return 0, err
	}
	// Reopen in place.
	pg, err := openPager(s.path, s.pg.replicaID, s.pg.title, s.pg.created)
	if err != nil {
		return 0, err
	}
	w, err := openWAL(s.path + ".wal")
	if err != nil {
		pg.close()
		return 0, err
	}
	s.pg = pg
	s.wal = w
	if s.gc != nil {
		// The group was drained above and new enqueues are excluded by s.mu,
		// so it is idle; point it at the swapped-in WAL.
		s.gc.rebind(w)
	}
	s.heap = newHeap(pg)
	s.byID = &btree{pg: pg, slot: rootSlotByID}
	s.byUNID = &btree{pg: pg, slot: rootSlotByUNID}
	s.byMod = &btree{pg: pg, slot: rootSlotByMod}
	if err := s.heap.rebuild(); err != nil {
		return 0, err
	}
	// The rewrite recycled the whole RecordID space: every cached decode
	// now points at reused page/slot coordinates. Drop them all.
	s.cache.clear()
	s.sinceCheckpoint = 0
	return before - after, nil
}

// closeFilesLocked closes a store's files assuming the caller coordinates
// exclusivity (used by Compact on its private fresh store).
func (s *Store) closeFilesLocked() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.closeFiles()
}

func decodeIDKey(k []byte) nsf.NoteID {
	return nsf.NoteID(uint32(k[0])<<24 | uint32(k[1])<<16 | uint32(k[2])<<8 | uint32(k[3]))
}
