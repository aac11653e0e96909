package store

import (
	"encoding/binary"
	"fmt"
	"os"
)

// Compact rewrites the database into a fresh file, dropping dead space
// (freed pages, slack in heap pages, shallow B+trees), then atomically
// swaps it in place and reopens. Note IDs, UNIDs, versions, USNs and the
// replica identity and incarnation are all preserved, so views, replication
// cursors and backup chains stay valid.
// It returns the number of pages reclaimed. While a hot backup is copying
// the page file, Compact waits for the copy to finish.
func (s *Store) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A hot backup is copying the page file this would rewrite and swap:
	// wait for it (Wait releases the latch, so commits continue).
	for s.ckHold > 0 && !s.closed {
		s.ckFree.Wait()
	}
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	// Checkpoint first. It settles group commit (an in-flight leader may
	// still be appending to the WAL about to be swapped out, and pending
	// waiters must be acked against it), seals the WAL into the archive
	// (the swap discards it), and empties it, so a crash between Install's
	// two renames finds nothing to replay on top of the fresh page file.
	if err := s.checkpointLocked(); err != nil {
		return 0, err
	}
	before := int(s.pg.pageCount)

	tmpPath := s.path + ".compact"
	// A stale temp file from an interrupted compaction is discarded.
	removeDB(tmpPath)
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
		removeDB(tmpPath)
	}
	// Copy the heap records and the three indexes straight across, in key
	// order. Only byID holds RecordIDs, so its entries are re-pointed at each
	// record's new home (keeping their USNs); the UNID and USN indexes copy
	// entry for entry. Nothing is logged and no USN is spent: the checkpoint
	// in fresh.Close below is what makes the copy durable before the swap.
	var loc [16]byte
	err = copyTree(s.byID, fresh.byID, func(v []byte) ([]byte, error) {
		oldRID, usn := location(v)
		enc, err := s.heap.get(oldRID)
		if err != nil {
			return nil, err
		}
		rid, err := fresh.heap.insert(enc)
		binary.BigEndian.PutUint64(loc[:], uint64(rid))
		binary.BigEndian.PutUint64(loc[8:], usn)
		return loc[:], err
	})
	if err == nil {
		err = copyTree(s.byUNID, fresh.byUNID, nil)
	}
	if err == nil {
		err = copyTree(s.byUSN, fresh.byUSN, nil)
	}
	if err != nil {
		cleanupFresh()
		return 0, err
	}
	// Carry the allocation high-water marks and the incarnation over: future
	// NoteIDs never collide with ones handed out before compaction, and the
	// USN stream continues where the original left off, under the same
	// identity, so existing cursors stay valid.
	fresh.pg.nextNoteID = s.pg.nextNoteID
	fresh.pg.incarnation = s.pg.incarnation
	fresh.usn = s.usn
	if err := fresh.Close(); err != nil {
		cleanupFresh()
		return 0, err
	}
	after := int(fresh.pg.pageCount)
	// fresh.Close checkpointed, fsyncing both temp files, so Install can
	// swap them in.
	if err := s.closeFiles(); err != nil {
		return 0, err
	}
	if err := Install(tmpPath, s.path); err != nil {
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
	s.byUSN = &btree{pg: pg, slot: rootSlotByUSN}
	if err := s.heap.rebuild(); err != nil {
		return 0, err
	}
	// Clear the clean mark fresh.Close left; the incarnation stays.
	if err := s.markOpen(); err != nil {
		return 0, err
	}
	// The rewrite recycled the whole RecordID space: every cached decode
	// now points at reused page/slot coordinates. Drop them all.
	s.cache.clear()
	s.sinceCheckpoint = 0
	return before - after, nil
}

// removeDB deletes the page file and WAL at path, if present.
func removeDB(path string) {
	for _, p := range []string{path, path + ".wal"} {
		os.Remove(p)
	}
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
