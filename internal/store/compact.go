package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
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
	if err := s.gc.drain(); err != nil {
		return 0, err
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
	// Copy the heap records and the three indexes straight across, in key
	// order. Only byID holds RecordIDs, so its entries are re-pointed at each
	// record's new home; the UNID and Modified indexes copy entry for entry.
	// Nothing is logged and no USN is spent: the checkpoint in fresh.Close
	// below is what makes the copy durable before the swap.
	var ridBuf [8]byte
	err = copyTree(s.byID, fresh.byID, func(v []byte) ([]byte, error) {
		enc, err := s.heap.get(RecordID(binary.BigEndian.Uint64(v)))
		if err != nil {
			return nil, err
		}
		rid, err := fresh.heap.insert(enc)
		binary.BigEndian.PutUint64(ridBuf[:], uint64(rid))
		return ridBuf[:], err
	})
	if err == nil {
		err = copyTree(s.byUNID, fresh.byUNID, nil)
	}
	if err == nil {
		err = copyTree(s.byMod, fresh.byMod, nil)
	}
	if err != nil {
		cleanupFresh()
		return 0, err
	}
	// Carry the allocation high-water marks over: future NoteIDs never
	// collide with ones handed out before compaction, and the USN stream
	// continues where the original left off.
	fresh.pg.nextNoteID = s.pg.nextNoteID
	fresh.usn = s.usn
	if err := fresh.Close(); err != nil {
		cleanupFresh()
		return 0, err
	}
	after := int(fresh.pg.pageCount)
	// fresh.Close checkpointed, fsyncing both temp files (page-file flush
	// and WAL reset both sync), so their contents are durable before the
	// renames make them visible.
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
	// The group was drained above and new enqueues are excluded by s.mu, so
	// it is idle; point it at the swapped-in WAL.
	s.gc.rebind(w)
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

// copyTree inserts every entry of src into dst in key order, mapping each
// value through val when it is non-nil.
func copyTree(src, dst *btree, val func([]byte) ([]byte, error)) error {
	var err error
	aerr := src.Ascend(nil, func(k, v []byte) bool {
		if val != nil {
			if v, err = val(v); err != nil {
				return false
			}
		}
		err = dst.Put(k, v)
		return err == nil
	})
	if aerr != nil {
		return aerr
	}
	return err
}
