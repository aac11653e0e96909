package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/changefeed"
	"repro/internal/ft"
	"repro/internal/store"
)

// Full-text index persistence. Like Domino's .ft directories, the index is
// kept in a sidecar file next to the database (path + ".ft") so
// EnableFullText on a large database loads a snapshot and catches up from
// the store's USN index (catchUp) instead of re-tokenizing everything.
//
// Sidecar format: magic "NSFFT002", the catch-up cursor (store incarnation
// and USN, 8 bytes each), then the ft.Index snapshot, published through
// store.Publish. Snapshots are local state and never replicate.
const ftSidecarMagic = "NSFFT002"

func (db *Database) ftSidecarPath() string { return db.st.Path() + ".ft" }

// EnableFullText loads the database's full-text index from its sidecar, or
// starts an empty one, and catches it up from the store; after it returns,
// the index is maintained incrementally through the changefeed, and Close
// persists it. The commit lock is held across the catch-up so the scan sees
// a frozen store; feed entries still in flight re-apply versions the scan
// already saw, which the index absorbs idempotently.
func (db *Database) EnableFullText() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	ix, from, err := db.loadFullText()
	if err != nil {
		// No usable snapshot: index every note.
		ix, from = ft.NewIndex(), 0
	}
	through, err := db.catchUpFullText(ix, from)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.ftIndex = ix
	db.mu.Unlock()
	db.ftCursor.Store(through)
	return nil
}

// catchUpFullText brings ix, which reflects every change through USN from,
// up to date with the store, returning the USN it now reflects.
func (db *Database) catchUpFullText(ix *ft.Index, from uint64) (uint64, error) {
	return db.catchUp(from, ix.Docs(), func(e changefeed.Entry) { applyToFT(ix, e) })
}

// applyToFT reflects one change in a full-text index.
func applyToFT(ix *ft.Index, e changefeed.Entry) {
	if e.Kind == changefeed.Delete {
		ix.Remove(e.UNID)
	} else {
		ix.Update(e.Note)
	}
}

// loadFullText loads the sidecar snapshot and the USN it reflects every
// change through. A sidecar another incarnation wrote (the copy before a
// restore) is refused, so the caller rebuilds: its index may hold versions
// the restored copy never had.
func (db *Database) loadFullText() (*ft.Index, uint64, error) {
	f, err := os.Open(db.ftSidecarPath())
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	magic := make([]byte, len(ftSidecarMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, 0, err
	}
	if string(magic) != ftSidecarMagic {
		return nil, 0, fmt.Errorf("core: bad full-text sidecar magic %q", magic)
	}
	var cursor [16]byte
	if _, err := io.ReadFull(f, cursor[:]); err != nil {
		return nil, 0, err
	}
	if binary.LittleEndian.Uint64(cursor[:]) != db.st.Incarnation() {
		return nil, 0, errors.New("core: full-text sidecar was written by another incarnation")
	}
	ix, err := ft.ReadIndex(f)
	if err != nil {
		return nil, 0, err
	}
	return ix, binary.LittleEndian.Uint64(cursor[8:]), nil
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
