package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/nsf"
	"repro/internal/vfs"
)

const (
	headerMagic   = "NSFGODB1"
	formatVersion = 2
	// cacheCap is the buffer-pool capacity in pages (16 MiB).
	cacheCap = 4096
)

// Header page layout (page 0):
//
//	off  size  field
//	0    8     magic
//	8    4     format version
//	12   4     page size
//	16   4     page count
//	20   4     free list head
//	24   4     byID root
//	28   4     byUNID root
//	32   4     byUSN root
//	36   4     next NoteID
//	40   8     replica ID
//	48   8     created timestamp
//	56   2     title length, followed by title bytes (max 256)
//	320  8     last USN folded into the page file by the last checkpoint
//	328  8     incarnation: random, so USN cursors from another copy are
//	           recognisable (see Store.markOpen and Store.Reincarnate)
//	336  1     clean mark: 1 from a Close's final checkpoint until the next
//	           open clears it
const (
	hdrOffVersion  = 8
	hdrOffPageSize = 12
	hdrOffCount    = 16
	hdrOffFreeHead = 20
	hdrOffRootByID = 24
	hdrOffRootUNID = 28
	hdrOffRootUSN  = 32
	hdrOffNextNote = 36
	hdrOffReplica  = 40
	hdrOffCreated  = 48
	hdrOffTitle    = 56
	hdrOffLastUSN  = 320
	hdrOffIncarn   = 328
	hdrOffClean    = 336
	maxTitleLen    = 256
)

// pager manages the page file: allocation, the buffer pool, and the header.
//
// mu guards the buffer-pool map only. Concurrent readers (holding the
// store's read latch) fault pages in as they go, so the map itself needs
// its own latch; page *contents* and the header mirror need none, because
// they are only mutated under the store's exclusive latch, which excludes
// every reader. Eviction still happens only at flush time (a quiescent
// point under the exclusive latch), so frames held by an in-progress
// operation are never invalidated underneath it.
type pager struct {
	mu    sync.Mutex
	f     vfs.File
	pages map[PageID]*page
	// header state, mirrored from page 0 and written back on flush.
	pageCount   uint32
	freeHead    PageID
	rootByID    PageID
	rootByUNID  PageID
	rootByUSN   PageID
	nextNoteID  uint32
	replicaID   nsf.ReplicaID
	created     nsf.Timestamp
	title       string
	lastUSN     uint64
	incarnation uint64
	clean       bool
}

// openPager opens or creates the page file at path. When creating, replica
// identifies the new database, and the header is synced before openPager
// returns (isNew reports this, so the caller can make the name durable).
func openPager(fsys vfs.FS, path string, replica nsf.ReplicaID, title string, created nsf.Timestamp) (p *pager, isNew bool, err error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("store: open page file: %w", err)
	}
	p = &pager{f: f, pages: make(map[PageID]*page)}
	size, err := f.Size()
	if err != nil {
		err = fmt.Errorf("store: stat page file: %w", err)
	} else if isNew = size == 0; isNew {
		err = p.initHeader(replica, title, created)
	} else {
		err = p.loadHeader()
	}
	if err != nil {
		f.Close()
		return nil, false, err
	}
	return p, isNew, nil
}

func (p *pager) initHeader(replica nsf.ReplicaID, title string, created nsf.Timestamp) error {
	if len(title) > maxTitleLen {
		title = title[:maxTitleLen]
	}
	p.pageCount = 1
	p.freeHead = nilPage
	p.nextNoteID = 1
	p.replicaID = replica
	p.created = created
	p.title = title
	return p.flush()
}

func (p *pager) loadHeader() error {
	var buf [PageSize]byte
	if _, err := p.f.ReadAt(buf[:], 0); err != nil {
		return fmt.Errorf("store: read header: %w", err)
	}
	if string(buf[:8]) != headerMagic {
		return fmt.Errorf("store: not a database file (bad magic %q)", buf[:8])
	}
	if v := binary.LittleEndian.Uint32(buf[hdrOffVersion:]); v != formatVersion {
		return fmt.Errorf("store: unsupported format version %d (this build reads version %d; version 1 files predate the USN change index)", v, formatVersion)
	}
	if ps := binary.LittleEndian.Uint32(buf[hdrOffPageSize:]); ps != PageSize {
		return fmt.Errorf("store: page size mismatch: file has %d, build uses %d", ps, PageSize)
	}
	p.pageCount = binary.LittleEndian.Uint32(buf[hdrOffCount:])
	p.freeHead = PageID(binary.LittleEndian.Uint32(buf[hdrOffFreeHead:]))
	p.rootByID = PageID(binary.LittleEndian.Uint32(buf[hdrOffRootByID:]))
	p.rootByUNID = PageID(binary.LittleEndian.Uint32(buf[hdrOffRootUNID:]))
	p.rootByUSN = PageID(binary.LittleEndian.Uint32(buf[hdrOffRootUSN:]))
	p.nextNoteID = binary.LittleEndian.Uint32(buf[hdrOffNextNote:])
	copy(p.replicaID[:], buf[hdrOffReplica:hdrOffReplica+8])
	p.created = nsf.Timestamp(binary.LittleEndian.Uint64(buf[hdrOffCreated:]))
	tl := int(binary.LittleEndian.Uint16(buf[hdrOffTitle:]))
	if tl > maxTitleLen {
		return fmt.Errorf("store: corrupt header title length %d", tl)
	}
	p.title = string(buf[hdrOffTitle+2 : hdrOffTitle+2+tl])
	p.lastUSN = binary.LittleEndian.Uint64(buf[hdrOffLastUSN:])
	p.incarnation = binary.LittleEndian.Uint64(buf[hdrOffIncarn:])
	p.clean = buf[hdrOffClean] == 1
	return nil
}

// headerImage encodes the header mirror as page 0. Every field lies in the
// first 512 bytes, one disk sector, so a torn header write leaves either
// the old header or the new one.
func (p *pager) headerImage(buf *[PageSize]byte) {
	*buf = [PageSize]byte{}
	copy(buf[:8], headerMagic)
	binary.LittleEndian.PutUint32(buf[hdrOffVersion:], formatVersion)
	binary.LittleEndian.PutUint32(buf[hdrOffPageSize:], PageSize)
	binary.LittleEndian.PutUint32(buf[hdrOffCount:], p.pageCount)
	binary.LittleEndian.PutUint32(buf[hdrOffFreeHead:], uint32(p.freeHead))
	binary.LittleEndian.PutUint32(buf[hdrOffRootByID:], uint32(p.rootByID))
	binary.LittleEndian.PutUint32(buf[hdrOffRootUNID:], uint32(p.rootByUNID))
	binary.LittleEndian.PutUint32(buf[hdrOffRootUSN:], uint32(p.rootByUSN))
	binary.LittleEndian.PutUint32(buf[hdrOffNextNote:], p.nextNoteID)
	copy(buf[hdrOffReplica:], p.replicaID[:])
	binary.LittleEndian.PutUint64(buf[hdrOffCreated:], uint64(p.created))
	binary.LittleEndian.PutUint16(buf[hdrOffTitle:], uint16(len(p.title)))
	copy(buf[hdrOffTitle+2:], p.title)
	binary.LittleEndian.PutUint64(buf[hdrOffLastUSN:], p.lastUSN)
	binary.LittleEndian.PutUint64(buf[hdrOffIncarn:], p.incarnation)
	if p.clean {
		buf[hdrOffClean] = 1
	}
}

// get returns the buffer-pool frame for id, reading it from disk if needed.
// Safe for concurrent readers: the disk read happens outside the pool
// latch, and a raced double-read keeps the first admitted frame (both
// frames carry identical bytes — no writer can have intervened while the
// callers hold the store's read latch).
func (p *pager) get(id PageID) (*page, error) {
	if id == nilPage || id >= PageID(p.pageCount) {
		return nil, fmt.Errorf("store: page %d out of range (count %d)", id, p.pageCount)
	}
	p.mu.Lock()
	if pg, ok := p.pages[id]; ok {
		p.mu.Unlock()
		return pg, nil
	}
	p.mu.Unlock()
	pg := &page{id: id}
	if _, err := p.f.ReadAt(pg.data[:], int64(id)*PageSize); err != nil && err != io.EOF {
		return nil, fmt.Errorf("store: read page %d: %w", id, err)
	}
	p.mu.Lock()
	if cur, ok := p.pages[id]; ok {
		p.mu.Unlock()
		return cur, nil
	}
	p.pages[id] = pg
	p.mu.Unlock()
	return pg, nil
}

// admit inserts a frame into the pool (write path: alloc).
func (p *pager) admit(pg *page) {
	p.mu.Lock()
	p.pages[pg.id] = pg
	p.mu.Unlock()
}

// alloc returns a zeroed page, reusing the free list when possible.
func (p *pager) alloc() (*page, error) {
	if p.freeHead != nilPage {
		pg, err := p.get(p.freeHead)
		if err != nil {
			return nil, err
		}
		p.freeHead = PageID(binary.LittleEndian.Uint32(pg.data[4:]))
		pg.data = [PageSize]byte{}
		pg.dirty = true
		return pg, nil
	}
	id := PageID(p.pageCount)
	p.pageCount++
	pg := &page{id: id, dirty: true}
	p.admit(pg)
	return pg, nil
}

// free returns a page to the free list.
func (p *pager) free(id PageID) error {
	pg, err := p.get(id)
	if err != nil {
		return err
	}
	pg.data = [PageSize]byte{}
	pg.data[0] = pageFree
	binary.LittleEndian.PutUint32(pg.data[4:], uint32(p.freeHead))
	pg.dirty = true
	p.freeHead = id
	return nil
}

// images calls fn with the header image and then every dirty page: the
// page images a checkpoint logs (walPages) before flush overwrites them in
// place.
func (p *pager) images(fn func(id PageID, data []byte) error) error {
	var hdr [PageSize]byte
	p.headerImage(&hdr)
	if err := fn(0, hdr[:]); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, pg := range p.pages {
		if pg.dirty {
			if err := fn(id, pg.data[:]); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush writes the header and every dirty page in place (the same pages
// images yields) and syncs the file. A crash midway leaves each page old or
// new, so a checkpoint logs the images first (see Store.checkpointLocked);
// after flush returns nil the page file is a consistent snapshot of the
// database. Frames are marked clean only once the sync succeeds: a failed
// sync may have dropped the writes, so the next flush must write them
// again.
func (p *pager) flush() error {
	err := p.images(func(id PageID, data []byte) error {
		if _, err := p.f.WriteAt(data, int64(id)*PageSize); err != nil {
			return fmt.Errorf("store: write page %d: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("store: sync page file: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pg := range p.pages {
		pg.dirty = false
	}
	// Trim the pool back to capacity now that every frame is clean. No
	// operation is in flight during a flush (the caller holds the store's
	// exclusive latch), so dropping frames is safe.
	if len(p.pages) > cacheCap {
		for id := range p.pages {
			delete(p.pages, id)
			if len(p.pages) <= cacheCap {
				break
			}
		}
	}
	return nil
}

// dirtyCount returns the number of dirty pages held in the pool.
func (p *pager) dirtyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, pg := range p.pages {
		if pg.dirty {
			n++
		}
	}
	return n
}

// restore writes logged page images (a walPages payload, header first)
// in place, syncs, and reloads the header from them. Recovery calls it
// before anything is read through the pool.
func (p *pager) restore(images []byte) error {
	size, err := p.f.Size()
	if err != nil {
		return fmt.Errorf("store: restore pages: %w", err)
	}
	// A checkpoint logs every page it added, so the images past the file's
	// end are exactly the pages from there up to the logged header's count
	// (validImages bounds every ID by that count). Anything else is
	// corruption, refused before a byte is written: it could grow the file
	// to a page ID far past its end.
	end, count := size/PageSize, int64(binary.LittleEndian.Uint32(images[4+hdrOffCount:]))
	past := map[uint32]bool{}
	for q := images; len(q) > 0; q = q[pageImageSize:] {
		if id := binary.LittleEndian.Uint32(q); int64(id) >= end {
			past[id] = true
		}
	}
	if int64(len(past)) != max(count-end, 0) {
		return fmt.Errorf("store: logged header counts %d pages, but the file holds %d and the log %d more", count, end, len(past))
	}
	for ; len(images) > 0; images = images[pageImageSize:] {
		id := binary.LittleEndian.Uint32(images)
		if _, err := p.f.WriteAt(images[4:pageImageSize], int64(id)*PageSize); err != nil {
			return fmt.Errorf("store: restore page %d: %w", id, err)
		}
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("store: sync page file: %w", err)
	}
	p.pages = make(map[PageID]*page)
	return p.loadHeader()
}

// copyTo streams the page file as the last flush left it.
func (p *pager) copyTo(w io.Writer) (int64, error) {
	size, err := p.f.Size()
	if err != nil {
		return 0, err
	}
	return io.Copy(w, io.NewSectionReader(p.f, 0, size))
}

func (p *pager) close() error {
	return p.f.Close()
}
