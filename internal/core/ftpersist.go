package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/vfs"
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

// EnableFullText loads the database's full-text index from its sidecar, or
// starts an empty one, and catches it up from the store: it indexes the
// current version of every note committed since the snapshot, then removes
// each document the store no longer has, since a hard delete leaves no USN
// to walk. The commit lock is held across the catch-up so the scan sees a
// frozen store; a maintainer pass behind it re-applies versions the scan
// already saw, which the index absorbs. After it returns, the maintainer
// keeps the index up to date, and Close persists it.
func (db *Database) EnableFullText() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	ix, from, err := db.loadFullText()
	if err != nil {
		// No usable snapshot: index every note.
		ix, from = ft.NewIndex(), 0
	}
	since := store.Cursor{Incarnation: db.st.Incarnation(), USN: from}
	_, err = db.st.ScanSince(context.Background(), since, nil, func(n *nsf.Note) bool {
		ix.Update(n)
		return true
	})
	for _, u := range ix.Docs() {
		if err != nil {
			break
		}
		var ok bool
		if ok, err = db.st.Exists(u); err == nil && !ok {
			ix.Remove(u)
		}
	}
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.ftIndex = ix
	db.mu.Unlock()
	return nil
}

// loadFullText loads the sidecar snapshot and the USN it reflects every
// change through. A sidecar another incarnation wrote (the copy before a
// restore) is refused, so the caller rebuilds: its index may hold versions
// the restored copy never had.
func (db *Database) loadFullText() (*ft.Index, uint64, error) {
	file, err := db.st.FS().OpenFile(db.ftSidecarPath(), os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer file.Close()
	size, err := file.Size()
	if err != nil {
		return nil, 0, err
	}
	f := io.NewSectionReader(file, 0, size)
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
	// Record the cursor the barrier brings the index to, or 0 once its
	// consumer was dropped, so the next load re-walks every note. Writes
	// racing the save are re-indexed by the next catch-up, never lost.
	db.Refresh()
	m := &db.maint
	m.mu.Lock()
	through := m.cursor.USN
	if m.consumers[ftConsumer].dropped {
		through = 0
	}
	m.mu.Unlock()
	hdr := binary.LittleEndian.AppendUint64([]byte(ftSidecarMagic), db.st.Incarnation())
	hdr = binary.LittleEndian.AppendUint64(hdr, through)
	return store.Publish(db.st.FS(), db.ftSidecarPath(), func(f vfs.File) error {
		w := io.NewOffsetWriter(f, 0)
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		_, err := ix.WriteTo(w)
		return err
	})
}

// DropFullTextSidecar deletes the persisted snapshot (e.g. before a manual
// full rebuild).
func (db *Database) DropFullTextSidecar() error {
	err := db.st.FS().Remove(db.ftSidecarPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}
