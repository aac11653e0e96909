package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/store"
)

// Full-text index persistence. Like Domino's .ft directories, the index is
// kept in a sidecar file next to the database (path + ".ft") so
// EnableFullText on a large database loads a snapshot and catches up from
// the store's USN index instead of re-tokenizing everything.
//
// Sidecar format: magic "NSFFT002", the catch-up cursor (store incarnation
// and USN, 8 bytes each), then the ft.Index snapshot, published through
// store.Publish. Snapshots are local state and never replicate.
const ftSidecarMagic = "NSFFT002"

func (db *Database) ftSidecarPath() string { return db.st.Path() + ".ft" }

// EnableFullText builds or loads the database's full-text index; after it
// returns, the index is maintained incrementally through the changefeed,
// and Close persists it. The commit lock is held across the build so the
// scan sees a frozen store; feed entries still in flight re-apply versions
// the scan already saw, which the index absorbs idempotently.
func (db *Database) EnableFullText() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	// With the commit lock held nothing commits, so an index covering the
	// current store is complete through the feed's USN; everything after
	// flows through the feed maintainer.
	pre := db.LastUSN()
	ix, err := db.loadFullText()
	if err != nil {
		// No usable snapshot: full build.
		ix = ft.NewIndex()
		err := db.st.ScanAll(func(n *nsf.Note) bool {
			ix.Update(n)
			return true
		})
		if err != nil {
			return err
		}
	}
	db.mu.Lock()
	db.ftIndex = ix
	db.mu.Unlock()
	db.ftCursor.Store(pre)
	return nil
}

// loadFullText loads the sidecar snapshot and catches up: documents that
// vanished while the index was offline are dropped, and everything
// committed since the cursor is re-indexed. A sidecar another incarnation
// wrote (the copy before a restore) is refused, so the caller rebuilds: its
// index may hold versions the restored copy never had.
func (db *Database) loadFullText() (*ft.Index, error) {
	f, err := os.Open(db.ftSidecarPath())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	magic := make([]byte, len(ftSidecarMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, err
	}
	if string(magic) != ftSidecarMagic {
		return nil, fmt.Errorf("core: bad full-text sidecar magic %q", magic)
	}
	var cursorBuf [16]byte
	if _, err := io.ReadFull(f, cursorBuf[:]); err != nil {
		return nil, err
	}
	cursor := store.Cursor{
		Incarnation: binary.LittleEndian.Uint64(cursorBuf[:]),
		USN:         binary.LittleEndian.Uint64(cursorBuf[8:]),
	}
	if cursor.Incarnation != db.st.Incarnation() {
		return nil, errors.New("core: full-text sidecar was written by another incarnation")
	}
	ix, err := ft.ReadIndex(f)
	if err != nil {
		return nil, err
	}
	// Drop documents hard-deleted (e.g. purged stubs) while offline.
	for _, u := range ix.Docs() {
		ok, err := db.st.Exists(u)
		if err != nil {
			return nil, err
		}
		if !ok {
			ix.Remove(u)
		}
	}
	// Catch up on everything committed since the snapshot.
	_, err = db.st.ScanSince(cursor, func(n *nsf.Note) bool {
		ix.Update(n)
		return true
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// SaveFullText writes the full-text sidecar snapshot (a no-op when
// full-text is not enabled). Close calls it automatically.
func (db *Database) SaveFullText() error {
	db.mu.RLock()
	ix := db.ftIndex
	db.mu.RUnlock()
	if ix == nil {
		return nil
	}
	// Drain pending maintenance so the snapshot is current, then record the
	// maintainer's catch-up cursor: every change at or below it is in the
	// index; writes racing the save are re-indexed by the next catch-up,
	// never lost. (After Close the feed is already drained and the barrier
	// returns immediately.)
	db.Refresh()
	hdr := binary.LittleEndian.AppendUint64([]byte(ftSidecarMagic), db.st.Incarnation())
	hdr = binary.LittleEndian.AppendUint64(hdr, db.ftCursor.Load())
	return store.Publish(db.ftSidecarPath(), func(f *os.File) error {
		if _, err := f.Write(hdr); err != nil {
			return err
		}
		_, err := ix.WriteTo(f)
		return err
	})
}

// DropFullTextSidecar deletes the persisted snapshot (e.g. before a manual
// full rebuild).
func (db *Database) DropFullTextSidecar() error {
	err := os.Remove(db.ftSidecarPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}
