package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
)

// Heap page layout:
//
//	off 0  u8   page type (pageHeap)
//	off 1  u8   reserved
//	off 2  u16  number of slots
//	off 4  u16  cellStart: lowest byte offset used by record bytes
//	off 6  u16  × nslots: slot table, each slot is offset u16 | length u16;
//	            offset 0xFFFF marks a free slot
//
// Record bytes grow downward from the page end. A logical record larger
// than a page is stored as a chain of segments; each segment is prefixed by
// a one-byte flag and, when the flag says so, an 8-byte continuation
// RecordID.
const (
	heapHdrSize  = 6
	heapSlotSize = 4
	freeSlotMark = 0xFFFF
	segFlagNone  = 0
	segFlagNext  = 1
	// maxSegPayload leaves room for the page header, one slot, the segment
	// flag, and a continuation pointer.
	maxSegPayload = PageSize - heapHdrSize - heapSlotSize - 9
)

// RecordID locates a stored record: page ID in the high 48 bits, slot in
// the low 16.
type RecordID uint64

func makeRecordID(pg PageID, slot int) RecordID {
	return RecordID(uint64(pg)<<16 | uint64(uint16(slot)))
}

func (r RecordID) page() PageID { return PageID(r >> 16) }
func (r RecordID) slot() int    { return int(uint16(r)) }

// IsZero reports whether r is unset.
func (r RecordID) IsZero() bool { return r == 0 }

func heapSlotCount(pg *page) int { return int(binary.LittleEndian.Uint16(pg.data[2:])) }
func setHeapSlotCount(pg *page, n int) {
	binary.LittleEndian.PutUint16(pg.data[2:], uint16(n))
}
func heapCellStart(pg *page) int { return int(binary.LittleEndian.Uint16(pg.data[4:])) }
func setHeapCellStart(pg *page, off int) {
	binary.LittleEndian.PutUint16(pg.data[4:], uint16(off))
}

func heapSlot(pg *page, i int) (off, length int) {
	base := heapHdrSize + i*heapSlotSize
	return int(binary.LittleEndian.Uint16(pg.data[base:])),
		int(binary.LittleEndian.Uint16(pg.data[base+2:]))
}

func setHeapSlot(pg *page, i, off, length int) {
	base := heapHdrSize + i*heapSlotSize
	binary.LittleEndian.PutUint16(pg.data[base:], uint16(off))
	binary.LittleEndian.PutUint16(pg.data[base+2:], uint16(length))
}

func initHeapPage(pg *page) {
	pg.data = [PageSize]byte{}
	pg.data[0] = pageHeap
	setHeapCellStart(pg, PageSize)
	pg.dirty = true
}

// heapPotential returns the bytes a record could occupy on the page after
// compaction, reserving room for a slot entry. This is the metric the
// free-space map tracks: tryPlace compacts when fragmentation alone is in
// the way.
func heapPotential(pg *page) int {
	return PageSize - heapHdrSize - heapLive(pg) - heapSlotSize
}

// heapFree returns usable bytes for a new record on the page, accounting
// for a possibly-needed new slot entry.
func heapFree(pg *page) int {
	n := heapSlotCount(pg)
	free := heapCellStart(pg) - (heapHdrSize + n*heapSlotSize)
	// Reserve room for one more slot unless a free slot can be reused.
	for i := 0; i < n; i++ {
		if off, _ := heapSlot(pg, i); off == freeSlotMark {
			return free
		}
	}
	return free - heapSlotSize
}

// heapLive returns bytes of live record data plus the slot table.
func heapLive(pg *page) int {
	n := heapSlotCount(pg)
	total := n * heapSlotSize
	for i := 0; i < n; i++ {
		if off, l := heapSlot(pg, i); off != freeSlotMark {
			total += l
			_ = off
		}
	}
	return total
}

// heapCompact rewrites live records contiguously at the page end.
func heapCompact(pg *page) {
	n := heapSlotCount(pg)
	var scratch [PageSize]byte
	off := PageSize
	type live struct{ slot, off, length int }
	var lives []live
	for i := 0; i < n; i++ {
		o, l := heapSlot(pg, i)
		if o == freeSlotMark {
			continue
		}
		off -= l
		copy(scratch[off:], pg.data[o:o+l])
		lives = append(lives, live{i, off, l})
	}
	copy(pg.data[off:], scratch[off:])
	setHeapCellStart(pg, off)
	for _, lv := range lives {
		setHeapSlot(pg, lv.slot, lv.off, lv.length)
	}
	pg.dirty = true
}

// heap allocates and retrieves variable-length records across heap pages.
// It keeps an in-memory free-space map, rebuilt on open by scanning pages.
//
// mu guards the free-space map. Mutations (insert, delete, rebuild) only
// run under the store's exclusive latch today, but the heap carries its own
// latch so its invariant is local: reads (get) never touch the map and are
// safe under the store's read latch.
type heap struct {
	pg *pager
	mu sync.Mutex
	// avail maps heap pages to their approximate free byte count.
	avail map[PageID]int
}

func newHeap(pg *pager) *heap {
	return &heap{pg: pg, avail: make(map[PageID]int)}
}

// rebuild scans the file and reconstructs the free-space map.
func (h *heap) rebuild() error {
	avail := make(map[PageID]int)
	for id := PageID(1); id < PageID(h.pg.pageCount); id++ {
		pg, err := h.pg.get(id)
		if err != nil {
			return err
		}
		if nodeType(pg) == pageHeap {
			if free := heapPotential(pg); free > 64 {
				avail[id] = free
			}
		}
	}
	h.mu.Lock()
	h.avail = avail
	h.mu.Unlock()
	return nil
}

// insert stores data and returns its RecordID. Large records are chained
// across multiple segments, written back-to-front so each segment knows its
// continuation.
func (h *heap) insert(data []byte) (RecordID, error) {
	// Split payload into segments of at most maxSegPayload.
	var segs [][]byte
	for len(data) > maxSegPayload {
		segs = append(segs, data[:maxSegPayload])
		data = data[maxSegPayload:]
	}
	segs = append(segs, data)
	next := RecordID(0)
	for i := len(segs) - 1; i >= 0; i-- {
		var buf []byte
		if next.IsZero() {
			buf = make([]byte, 0, 1+len(segs[i]))
			buf = append(buf, segFlagNone)
		} else {
			buf = make([]byte, 0, 9+len(segs[i]))
			buf = append(buf, segFlagNext)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(next))
		}
		buf = append(buf, segs[i]...)
		rid, err := h.insertSegment(buf)
		if err != nil {
			return 0, err
		}
		next = rid
	}
	return next, nil
}

// insertSegment stores one physical segment (<= page capacity).
func (h *heap) insertSegment(seg []byte) (RecordID, error) {
	need := len(seg)
	// First fit from the free-space map, with a bounded probe: scanning the
	// whole map for every large segment that fits nowhere would make big
	// inserts O(#pages). A short probe keeps inserts O(1) at a small
	// fragmentation cost. Candidates are collected under the map latch,
	// then tried outside it (tryPlace re-enters the latch via noteFree).
	h.mu.Lock()
	var cands []PageID
	probes := 0
	for id, free := range h.avail {
		if probes >= 16 {
			break
		}
		probes++
		if free >= need {
			cands = append(cands, id)
		}
	}
	h.mu.Unlock()
	for _, id := range cands {
		pg, err := h.pg.get(id)
		if err != nil {
			return 0, err
		}
		rid, ok := h.tryPlace(pg, seg)
		if ok {
			return rid, nil
		}
		// Map was stale; refresh it.
		h.noteFree(pg)
	}
	pg, err := h.pg.alloc()
	if err != nil {
		return 0, err
	}
	initHeapPage(pg)
	rid, ok := h.tryPlace(pg, seg)
	if !ok {
		return 0, fmt.Errorf("store: segment of %d bytes does not fit an empty heap page", len(seg))
	}
	return rid, nil
}

// tryPlace attempts to store seg on pg, compacting if fragmentation alone is
// the obstacle.
func (h *heap) tryPlace(pg *page, seg []byte) (RecordID, bool) {
	if heapFree(pg) < len(seg) {
		if PageSize-heapHdrSize-heapLive(pg)-heapSlotSize < len(seg) {
			return 0, false
		}
		heapCompact(pg)
	}
	// Find or create a slot.
	n := heapSlotCount(pg)
	slot := -1
	for i := 0; i < n; i++ {
		if off, _ := heapSlot(pg, i); off == freeSlotMark {
			slot = i
			break
		}
	}
	if slot == -1 {
		slot = n
		setHeapSlotCount(pg, n+1)
	}
	off := heapCellStart(pg) - len(seg)
	copy(pg.data[off:], seg)
	setHeapCellStart(pg, off)
	setHeapSlot(pg, slot, off, len(seg))
	pg.dirty = true
	h.noteFree(pg)
	return makeRecordID(pg.id, slot), true
}

// noteFree refreshes the free-space map entry for pg.
func (h *heap) noteFree(pg *page) {
	free := heapPotential(pg)
	h.mu.Lock()
	if free > 64 {
		h.avail[pg.id] = free
	} else {
		delete(h.avail, pg.id)
	}
	h.mu.Unlock()
}

// get returns a copy of the record stored at rid, for callers that keep
// the bytes after releasing the store latch.
func (h *heap) get(rid RecordID) ([]byte, error) {
	rec, err := h.view(rid, nil)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(rec), nil
}

// view returns the record stored at rid. A one-segment record is aliased
// straight from its page and is valid only while the caller holds the
// store latch; a chained record is assembled by appending its segments to
// *chain (a fresh buffer when chain is nil), so a walk reuses one buffer
// for every chained record it meets.
func (h *heap) view(rid RecordID, chain *[]byte) ([]byte, error) {
	var out []byte
	if chain != nil {
		out = (*chain)[:0]
	}
	for segs := 0; ; segs++ {
		pg, err := h.pg.get(rid.page())
		if err != nil {
			return nil, err
		}
		if nodeType(pg) != pageHeap {
			return nil, fmt.Errorf("store: record %x points at non-heap page %d", rid, rid.page())
		}
		if rid.slot() >= heapSlotCount(pg) {
			return nil, fmt.Errorf("store: record %x slot out of range", rid)
		}
		off, length := heapSlot(pg, rid.slot())
		if off == freeSlotMark {
			return nil, fmt.Errorf("store: record %x slot is free", rid)
		}
		seg := pg.data[off : off+length]
		flag := seg[0]
		switch flag {
		case segFlagNone:
			if segs == 0 {
				return seg[1:], nil
			}
			out = append(out, seg[1:]...)
			if chain != nil {
				*chain = out
			}
			return out, nil
		case segFlagNext:
			next := RecordID(binary.LittleEndian.Uint64(seg[1:9]))
			out = append(out, seg[9:]...)
			rid = next
		default:
			return nil, fmt.Errorf("store: record %x has bad segment flag %d", rid, flag)
		}
	}
}

// delete removes the record chain starting at rid.
func (h *heap) delete(rid RecordID) error {
	for !rid.IsZero() {
		pg, err := h.pg.get(rid.page())
		if err != nil {
			return err
		}
		if rid.slot() >= heapSlotCount(pg) {
			return fmt.Errorf("store: delete record %x: slot out of range", rid)
		}
		off, length := heapSlot(pg, rid.slot())
		if off == freeSlotMark {
			return fmt.Errorf("store: delete record %x: slot already free", rid)
		}
		next := RecordID(0)
		if pg.data[off] == segFlagNext {
			next = RecordID(binary.LittleEndian.Uint64(pg.data[off+1 : off+9]))
		}
		_ = length
		setHeapSlot(pg, rid.slot(), freeSlotMark, 0)
		pg.dirty = true
		h.noteFree(pg)
		rid = next
	}
	return nil
}
