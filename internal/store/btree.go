package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// B+tree node layout (both kinds):
//
//	off 0   u8   page type (pageLeaf or pageBranch)
//	off 1   u8   reserved
//	off 2   u16  number of cells
//	off 4   u32  leaf: next leaf      branch: unused
//	off 8   u32  leaf: previous leaf  branch: rightmost child
//	off 12  u16  cellStart: lowest byte offset used by cell bodies
//	off 14  u16  × nkeys: slot array of cell body offsets, sorted by key
//
// Cell bodies grow downward from the end of the page:
//
//	leaf cell:   klen u16 | vlen u16 | key | value
//	branch cell: klen u16 | child u32 | key
//
// In a branch, cell i's child covers keys <= cell i's key; the rightmost
// child covers keys greater than every cell key.
const (
	nodeHdrSize = 14
	slotSize    = 2

	// MaxKeyLen and MaxValueLen bound entry sizes so that a byte-balanced
	// split always leaves room for one more maximum-size cell: with cell
	// overhead (4) plus a slot (2), the largest cell is 1012 bytes, which is
	// under a quarter of the usable page (4082 bytes). After a split each
	// half holds at most half the live bytes plus one straddling cell
	// (2041+1012), so inserting another maximal cell (1012) still fits.
	MaxKeyLen   = 256
	MaxValueLen = 750
)

type btree struct {
	pg *pager
	// slot selects which header root field this tree uses.
	slot int
}

const (
	rootSlotByID = iota
	rootSlotByUNID
	rootSlotByUSN
)

func (t *btree) root() PageID {
	switch t.slot {
	case rootSlotByID:
		return t.pg.rootByID
	case rootSlotByUNID:
		return t.pg.rootByUNID
	default:
		return t.pg.rootByUSN
	}
}

func (t *btree) setRoot(id PageID) {
	switch t.slot {
	case rootSlotByID:
		t.pg.rootByID = id
	case rootSlotByUNID:
		t.pg.rootByUNID = id
	default:
		t.pg.rootByUSN = id
	}
	t.pg.hdrDirty = true
}

// --- node accessors ---

func nodeType(pg *page) byte { return pg.data[0] }
func nodeCount(pg *page) int { return int(binary.LittleEndian.Uint16(pg.data[2:])) }
func setNodeCount(pg *page, n int) {
	binary.LittleEndian.PutUint16(pg.data[2:], uint16(n))
}
func leafNext(pg *page) PageID { return PageID(binary.LittleEndian.Uint32(pg.data[4:])) }
func setLeafNext(pg *page, id PageID) {
	binary.LittleEndian.PutUint32(pg.data[4:], uint32(id))
}
func leafPrev(pg *page) PageID { return PageID(binary.LittleEndian.Uint32(pg.data[8:])) }
func setLeafPrev(pg *page, id PageID) {
	binary.LittleEndian.PutUint32(pg.data[8:], uint32(id))
}
func branchRight(pg *page) PageID { return PageID(binary.LittleEndian.Uint32(pg.data[8:])) }
func setBranchRight(pg *page, id PageID) {
	binary.LittleEndian.PutUint32(pg.data[8:], uint32(id))
}
func cellStart(pg *page) int { return int(binary.LittleEndian.Uint16(pg.data[12:])) }
func setCellStart(pg *page, off int) {
	binary.LittleEndian.PutUint16(pg.data[12:], uint16(off))
}

func slotOffset(pg *page, i int) int {
	return int(binary.LittleEndian.Uint16(pg.data[nodeHdrSize+i*slotSize:]))
}
func setSlotOffset(pg *page, i, off int) {
	binary.LittleEndian.PutUint16(pg.data[nodeHdrSize+i*slotSize:], uint16(off))
}

func initNode(pg *page, typ byte) {
	pg.data = [PageSize]byte{}
	pg.data[0] = typ
	setCellStart(pg, PageSize)
	pg.dirty = true
}

// leafCell returns the key and value of leaf cell i.
func leafCell(pg *page, i int) (key, val []byte) {
	off := slotOffset(pg, i)
	klen := int(binary.LittleEndian.Uint16(pg.data[off:]))
	vlen := int(binary.LittleEndian.Uint16(pg.data[off+2:]))
	key = pg.data[off+4 : off+4+klen]
	val = pg.data[off+4+klen : off+4+klen+vlen]
	return key, val
}

// branchCell returns the key and child of branch cell i.
func branchCell(pg *page, i int) (key []byte, child PageID) {
	off := slotOffset(pg, i)
	klen := int(binary.LittleEndian.Uint16(pg.data[off:]))
	child = PageID(binary.LittleEndian.Uint32(pg.data[off+2:]))
	key = pg.data[off+6 : off+6+klen]
	return key, child
}

func leafCellSize(klen, vlen int) int { return 4 + klen + vlen }
func branchCellSize(klen int) int     { return 6 + klen }

// freeSpace returns the bytes available between the slot array and cells.
func freeSpace(pg *page) int {
	return cellStart(pg) - (nodeHdrSize + nodeCount(pg)*slotSize)
}

// nodeKey returns cell i's key regardless of node type.
func nodeKey(pg *page, i int) []byte {
	if nodeType(pg) == pageLeaf {
		k, _ := leafCell(pg, i)
		return k
	}
	k, _ := branchCell(pg, i)
	return k
}

// search finds the first cell with key >= target; found reports an exact hit.
func search(pg *page, target []byte) (idx int, found bool) {
	lo, hi := 0, nodeCount(pg)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(nodeKey(pg, mid), target) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// insertLeafCell places key/val at slot idx, assuming space is available.
func insertLeafCell(pg *page, idx int, key, val []byte) {
	size := leafCellSize(len(key), len(val))
	off := cellStart(pg) - size
	binary.LittleEndian.PutUint16(pg.data[off:], uint16(len(key)))
	binary.LittleEndian.PutUint16(pg.data[off+2:], uint16(len(val)))
	copy(pg.data[off+4:], key)
	copy(pg.data[off+4+len(key):], val)
	setCellStart(pg, off)
	n := nodeCount(pg)
	copy(pg.data[nodeHdrSize+(idx+1)*slotSize:nodeHdrSize+(n+1)*slotSize],
		pg.data[nodeHdrSize+idx*slotSize:nodeHdrSize+n*slotSize])
	setSlotOffset(pg, idx, off)
	setNodeCount(pg, n+1)
	pg.dirty = true
}

// insertBranchCell places key/child at slot idx, assuming space is available.
func insertBranchCell(pg *page, idx int, key []byte, child PageID) {
	size := branchCellSize(len(key))
	off := cellStart(pg) - size
	binary.LittleEndian.PutUint16(pg.data[off:], uint16(len(key)))
	binary.LittleEndian.PutUint32(pg.data[off+2:], uint32(child))
	copy(pg.data[off+6:], key)
	setCellStart(pg, off)
	n := nodeCount(pg)
	copy(pg.data[nodeHdrSize+(idx+1)*slotSize:nodeHdrSize+(n+1)*slotSize],
		pg.data[nodeHdrSize+idx*slotSize:nodeHdrSize+n*slotSize])
	setSlotOffset(pg, idx, off)
	setNodeCount(pg, n+1)
	pg.dirty = true
}

// removeCell deletes slot idx. Cell bodies are not reclaimed immediately;
// compact handles that when the node needs space.
func removeCell(pg *page, idx int) {
	n := nodeCount(pg)
	copy(pg.data[nodeHdrSize+idx*slotSize:nodeHdrSize+(n-1)*slotSize],
		pg.data[nodeHdrSize+(idx+1)*slotSize:nodeHdrSize+n*slotSize])
	setNodeCount(pg, n-1)
	pg.dirty = true
}

// compact rewrites live cells contiguously at the end of the page,
// reclaiming the space of removed or superseded cells.
func compact(pg *page) {
	n := nodeCount(pg)
	typ := nodeType(pg)
	var scratch [PageSize]byte
	off := PageSize
	offsets := make([]int, n)
	for i := 0; i < n; i++ {
		src := slotOffset(pg, i)
		var size int
		klen := int(binary.LittleEndian.Uint16(pg.data[src:]))
		if typ == pageLeaf {
			vlen := int(binary.LittleEndian.Uint16(pg.data[src+2:]))
			size = leafCellSize(klen, vlen)
		} else {
			size = branchCellSize(klen)
		}
		off -= size
		copy(scratch[off:], pg.data[src:src+size])
		offsets[i] = off
	}
	copy(pg.data[off:], scratch[off:])
	setCellStart(pg, off)
	for i, o := range offsets {
		setSlotOffset(pg, i, o)
	}
	pg.dirty = true
}

// liveBytes returns the byte total of live cells plus slots.
func liveBytes(pg *page) int {
	n := nodeCount(pg)
	typ := nodeType(pg)
	total := n * slotSize
	for i := 0; i < n; i++ {
		src := slotOffset(pg, i)
		klen := int(binary.LittleEndian.Uint16(pg.data[src:]))
		if typ == pageLeaf {
			vlen := int(binary.LittleEndian.Uint16(pg.data[src+2:]))
			total += leafCellSize(klen, vlen)
		} else {
			total += branchCellSize(klen)
		}
	}
	return total
}

// Get returns the value stored under key, or (nil, false).
func (t *btree) Get(key []byte) ([]byte, bool, error) {
	id := t.root()
	if id == nilPage {
		return nil, false, nil
	}
	for {
		pg, err := t.pg.get(id)
		if err != nil {
			return nil, false, err
		}
		idx, found := search(pg, key)
		if nodeType(pg) == pageLeaf {
			if !found {
				return nil, false, nil
			}
			_, v := leafCell(pg, idx)
			out := make([]byte, len(v))
			copy(out, v)
			return out, true, nil
		}
		id = t.childAt(pg, idx, found)
	}
}

// childAt maps a search result position in a branch to the child to descend.
func (t *btree) childAt(pg *page, idx int, found bool) PageID {
	// Cell i covers keys <= key[i]; an exact hit therefore descends cell idx.
	if found {
		_, c := branchCell(pg, idx)
		return c
	}
	if idx < nodeCount(pg) {
		_, c := branchCell(pg, idx)
		return c
	}
	return branchRight(pg)
}

// pathEntry records a branch visited during descent and the position taken.
type pathEntry struct {
	pg  *page
	idx int // slot index descended, nodeCount(pg) means rightmost child
}

// descend walks from the root to the leaf responsible for key, recording the
// branch path.
func (t *btree) descend(key []byte) (*page, []pathEntry, error) {
	id := t.root()
	var path []pathEntry
	for {
		pg, err := t.pg.get(id)
		if err != nil {
			return nil, nil, err
		}
		if nodeType(pg) == pageLeaf {
			return pg, path, nil
		}
		idx, found := search(pg, key)
		pos := idx
		if !found && idx == nodeCount(pg) {
			pos = nodeCount(pg)
		}
		path = append(path, pathEntry{pg: pg, idx: pos})
		id = t.childAt(pg, idx, found)
	}
}

// Put inserts or replaces key's value.
func (t *btree) Put(key, val []byte) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return fmt.Errorf("store: btree key length %d out of range [1,%d]", len(key), MaxKeyLen)
	}
	if len(val) > MaxValueLen {
		return fmt.Errorf("store: btree value length %d exceeds %d", len(val), MaxValueLen)
	}
	if t.root() == nilPage {
		pg, err := t.pg.alloc()
		if err != nil {
			return err
		}
		initNode(pg, pageLeaf)
		t.setRoot(pg.id)
	}
	leaf, path, err := t.descend(key)
	if err != nil {
		return err
	}
	idx, found := search(leaf, key)
	if found {
		removeCell(leaf, idx)
	}
	need := leafCellSize(len(key), len(val)) + slotSize
	if freeSpace(leaf) < need {
		if PageSize-nodeHdrSize-liveBytes(leaf) >= need {
			compact(leaf)
		} else {
			return t.splitAndInsert(leaf, path, key, val)
		}
	}
	insertLeafCell(leaf, idx, key, val)
	return nil
}

// splitAndInsert splits leaf into two and inserts key/val into the proper
// half, then threads the new separator up the path, splitting branches as
// needed.
func (t *btree) splitAndInsert(leaf *page, path []pathEntry, key, val []byte) error {
	right, err := t.pg.alloc()
	if err != nil {
		return err
	}
	initNode(right, pageLeaf)
	compact(leaf)
	n := nodeCount(leaf)
	// Byte-balanced split point: the first index where the cumulative cell
	// bytes reach half the total, clamped so both sides are non-empty.
	total := 0
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		k, v := leafCell(leaf, i)
		sizes[i] = leafCellSize(len(k), len(v)) + slotSize
		total += sizes[i]
	}
	half := n - 1
	cum := 0
	for i := 0; i < n-1; i++ {
		cum += sizes[i]
		if cum >= total/2 {
			half = i + 1
			break
		}
	}
	// Move cells [half, n) to the right node.
	for i := half; i < n; i++ {
		k, v := leafCell(leaf, i)
		insertLeafCell(right, i-half, k, v)
	}
	setNodeCount(leaf, half)
	compact(leaf)
	// Thread the leaf chain: leaf <-> right <-> old next.
	oldNext := leafNext(leaf)
	setLeafNext(right, oldNext)
	setLeafPrev(right, leaf.id)
	setLeafNext(leaf, right.id)
	if oldNext != nilPage {
		np, err := t.pg.get(oldNext)
		if err != nil {
			return err
		}
		setLeafPrev(np, right.id)
		np.dirty = true
	}
	leaf.dirty = true
	right.dirty = true
	// Insert the pending entry into the correct half.
	sep := append([]byte(nil), nodeKey(leaf, nodeCount(leaf)-1)...)
	target := leaf
	if bytes.Compare(key, sep) > 0 {
		target = right
	}
	idx, found := search(target, key)
	if found {
		removeCell(target, idx)
	}
	if freeSpace(target) < leafCellSize(len(key), len(val))+slotSize {
		compact(target)
	}
	insertLeafCell(target, idx, key, val)
	return t.insertSeparator(path, sep, leaf.id, right.id)
}

// insertSeparator records that left was split, with sep as the greatest key
// in left and right as the new sibling.
func (t *btree) insertSeparator(path []pathEntry, sep []byte, left, right PageID) error {
	if len(path) == 0 {
		// Split the root: make a new branch root.
		rootPg, err := t.pg.alloc()
		if err != nil {
			return err
		}
		initNode(rootPg, pageBranch)
		insertBranchCell(rootPg, 0, sep, left)
		setBranchRight(rootPg, right)
		t.setRoot(rootPg.id)
		return nil
	}
	parent := path[len(path)-1]
	pg := parent.pg
	// The child pointer at parent.idx pointed at left; it must now point at
	// right (which holds the larger keys), and a new cell (sep -> left) is
	// inserted before it.
	if parent.idx == nodeCount(pg) {
		setBranchRight(pg, right)
	} else {
		off := slotOffset(pg, parent.idx)
		binary.LittleEndian.PutUint32(pg.data[off+2:], uint32(right))
	}
	pg.dirty = true
	need := branchCellSize(len(sep)) + slotSize
	if freeSpace(pg) < need {
		if PageSize-nodeHdrSize-liveBytes(pg) >= need {
			compact(pg)
		} else {
			return t.splitBranchAndInsert(pg, path[:len(path)-1], parent.idx, sep, left)
		}
	}
	insertBranchCell(pg, parent.idx, sep, left)
	return nil
}

// splitBranchAndInsert splits branch pg and inserts (sep -> left) at idx.
func (t *btree) splitBranchAndInsert(pg *page, path []pathEntry, idx int, sep []byte, left PageID) error {
	right, err := t.pg.alloc()
	if err != nil {
		return err
	}
	initNode(right, pageBranch)
	compact(pg)
	// Insert first into an overflow-free representation: collect all cells.
	type cell struct {
		key   []byte
		child PageID
	}
	n := nodeCount(pg)
	cells := make([]cell, 0, n+1)
	for i := 0; i < n; i++ {
		k, c := branchCell(pg, i)
		cells = append(cells, cell{append([]byte(nil), k...), c})
	}
	cells = append(cells[:idx], append([]cell{{append([]byte(nil), sep...), left}}, cells[idx:]...)...)
	rightmost := branchRight(pg)
	// Split: left half keeps cells[0:half], the separator pushed up is
	// cells[half].key, right half gets cells[half+1:]. Choose half so the
	// split is byte-balanced (see MaxKeyLen for the fit argument).
	total := 0
	sizes := make([]int, len(cells))
	for i, c := range cells {
		sizes[i] = branchCellSize(len(c.key)) + slotSize
		total += sizes[i]
	}
	half := len(cells) - 1
	cum := 0
	for i := 0; i < len(cells)-1; i++ {
		cum += sizes[i]
		if cum >= total/2 {
			half = i
			break
		}
	}
	if half == 0 && len(cells) > 2 {
		half = 1
	}
	pushKey := cells[half].key
	initNode(pg, pageBranch)
	for i := 0; i < half; i++ {
		insertBranchCell(pg, i, cells[i].key, cells[i].child)
	}
	setBranchRight(pg, cells[half].child)
	for i := half + 1; i < len(cells); i++ {
		insertBranchCell(right, i-half-1, cells[i].key, cells[i].child)
	}
	setBranchRight(right, rightmost)
	pg.dirty = true
	right.dirty = true
	return t.insertSeparator(path, pushKey, pg.id, right.id)
}

// Delete removes key if present and reports whether it was found. Nodes that
// become empty are unlinked and freed ("free at empty").
func (t *btree) Delete(key []byte) (bool, error) {
	if t.root() == nilPage {
		return false, nil
	}
	leaf, path, err := t.descend(key)
	if err != nil {
		return false, err
	}
	idx, found := search(leaf, key)
	if !found {
		return false, nil
	}
	removeCell(leaf, idx)
	if nodeCount(leaf) == 0 {
		if err := t.freeEmptyLeaf(leaf, path); err != nil {
			return true, err
		}
	}
	return true, nil
}

// freeEmptyLeaf unlinks an empty leaf from the chain and removes its pointer
// from the parent, collapsing empty branches recursively.
func (t *btree) freeEmptyLeaf(leaf *page, path []pathEntry) error {
	if len(path) == 0 {
		// Empty root leaf: keep it; the tree is simply empty.
		return nil
	}
	prev, next := leafPrev(leaf), leafNext(leaf)
	if prev != nilPage {
		p, err := t.pg.get(prev)
		if err != nil {
			return err
		}
		setLeafNext(p, next)
		p.dirty = true
	}
	if next != nilPage {
		n, err := t.pg.get(next)
		if err != nil {
			return err
		}
		setLeafPrev(n, prev)
		n.dirty = true
	}
	if err := t.pg.free(leaf.id); err != nil {
		return err
	}
	return t.removeChild(path)
}

// removeChild deletes the child pointer recorded at the tail of path.
func (t *btree) removeChild(path []pathEntry) error {
	parent := path[len(path)-1]
	pg := parent.pg
	n := nodeCount(pg)
	if parent.idx == n {
		// Removing the rightmost child: promote the last cell's child.
		if n == 0 {
			// Branch with a single (rightmost) child that vanished: the
			// branch itself is now empty; collapse it upward.
			if err := t.pg.free(pg.id); err != nil {
				return err
			}
			if len(path) == 1 {
				t.setRoot(nilPage)
				return nil
			}
			return t.removeChild(path[:len(path)-1])
		}
		_, c := branchCell(pg, n-1)
		setBranchRight(pg, c)
		removeCell(pg, n-1)
	} else {
		removeCell(pg, parent.idx)
	}
	if nodeCount(pg) == 0 {
		// One child (rightmost) remains: splice it into the grandparent.
		only := branchRight(pg)
		if err := t.pg.free(pg.id); err != nil {
			return err
		}
		if len(path) == 1 {
			t.setRoot(only)
			return nil
		}
		gp := path[len(path)-2]
		if gp.idx == nodeCount(gp.pg) {
			setBranchRight(gp.pg, only)
		} else {
			off := slotOffset(gp.pg, gp.idx)
			binary.LittleEndian.PutUint32(gp.pg.data[off+2:], uint32(only))
		}
		gp.pg.dirty = true
	}
	return nil
}

// Ascend calls fn for each entry with key >= from, in ascending key order,
// until fn returns false or the tree is exhausted. The key and value slices
// passed to fn alias page memory and must not be retained or modified.
func (t *btree) Ascend(from []byte, fn func(key, val []byte) bool) error {
	id := t.root()
	if id == nilPage {
		return nil
	}
	// Descend to the leaf containing the first key >= from.
	for {
		pg, err := t.pg.get(id)
		if err != nil {
			return err
		}
		if nodeType(pg) == pageLeaf {
			break
		}
		idx, found := search(pg, from)
		id = t.childAt(pg, idx, found)
	}
	for id != nilPage {
		pg, err := t.pg.get(id)
		if err != nil {
			return err
		}
		idx, _ := search(pg, from)
		for ; idx < nodeCount(pg); idx++ {
			k, v := leafCell(pg, idx)
			if !fn(k, v) {
				return nil
			}
		}
		id = leafNext(pg)
		from = nil
		if id != nilPage {
			// After the first leaf, start each leaf from its first cell.
			from = []byte{}
		}
	}
	return nil
}

// Len returns the number of entries, by full scan (used in tests and stats).
func (t *btree) Len() (int, error) {
	n := 0
	err := t.Ascend(nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}
