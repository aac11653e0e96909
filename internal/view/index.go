package view

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/acl"
	"repro/internal/formula"
	"repro/internal/nsf"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// Index is a materialized view: entries kept in collation order. It is safe
// for concurrent use.
type Index struct {
	def *Definition

	mu      sync.RWMutex
	entries []*Entry            // sorted by key
	byUNID  map[nsf.UNID]string // UNID -> current key, for O(log n) removal
	// restricted counts the entries with an access list. While it is zero,
	// a page of a flat view is a slice of entries.
	restricted int

	// work is the memory an entry is built in, reused from one entry to
	// the next; its lock serializes the builds.
	work struct {
		sync.Mutex
		vals []nsf.Value // the column values
		buf  []byte      // the collation key, then the entry's strings
	}
}

// maxKeptBuf caps the build buffer an index keeps between entries, so one
// huge note cannot pin a huge buffer.
const maxKeptBuf = 1 << 16

// NewIndex returns an empty index over def.
func NewIndex(def *Definition) *Index {
	return &Index{def: def, byUNID: make(map[nsf.UNID]string)}
}

// Definition returns the view definition.
func (ix *Index) Definition() *Definition { return ix.def }

// Len returns the number of entries.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.entries)
}

// locate returns the position of key in entries (exact match required).
func (ix *Index) locate(key string) (int, bool) {
	i := sort.Search(len(ix.entries), func(i int) bool { return ix.entries[i].key >= key })
	return i, i < len(ix.entries) && ix.entries[i].key == key
}

// entry builds note's entry in the index's working memory, or returns
// nil when the view holds none for it: a stub, a note that is not a
// document, or one the selection drops. An error is a selection or column
// formula that failed on the note, which the view leaves out too.
func (ix *Index) entry(note *nsf.Note, ctx *formula.Context) (*Entry, error) {
	if note.IsStub() || note.Class != nsf.ClassDocument {
		return nil, nil
	}
	if ok, err := ix.def.Selection.Selects(note, ctx); !ok || err != nil {
		return nil, err
	}
	w := &ix.work
	w.Lock()
	defer w.Unlock()
	vals, err := evalColumns(w.vals[:0], ix.def, note, ctx)
	w.vals = vals
	defer clear(vals) // the values share the note's arrays
	if err != nil {
		return nil, err
	}
	buf := collationKey(w.buf[:0], ix.def, vals, note.OID.UNID)
	e, buf := newEntry(note, vals, buf)
	if cap(buf) <= maxKeptBuf {
		w.buf = buf
	}
	return e, nil
}

// newEntry builds note's entry from its column values and buf, which holds
// its collation key, and returns buf grown. The entry keeps nothing of the
// note or of vals: its strings (text entries and the access list) are
// copied into one string, after the key, and their headers into room
// allocated with the Entry. An unrestricted entry with no number, time or
// raw value, and 8 or fewer text entries, costs three allocations: the
// Entry, its values array and that string.
func newEntry(note *nsf.Note, vals []nsf.Value, buf []byte) (*Entry, []byte) {
	access := acl.ReadAccess(note)
	keyLen, strs := len(buf), len(access)
	for _, v := range vals {
		strs += len(v.Text)
		for _, t := range v.Text {
			buf = append(buf, t...)
		}
	}
	for _, a := range access {
		buf = append(buf, a...)
	}
	slab := string(buf)
	e, room := allocEntry(strs)
	off := keyLen
	copyStrings := func(src []string) []string {
		if src == nil {
			return nil
		}
		dst := room[:len(src):len(src)]
		room = room[len(src):]
		for i, t := range src {
			dst[i] = slab[off : off+len(t)]
			off += len(t)
		}
		return dst
	}
	values := make([]nsf.Value, len(vals))
	for i, v := range vals {
		values[i] = nsf.Value{
			Type:    v.Type,
			Text:    copyStrings(v.Text),
			Numbers: slices.Clone(v.Numbers),
			Times:   slices.Clone(v.Times),
			Raw:     slices.Clone(v.Raw),
		}
	}
	*e = Entry{
		UNID:   note.OID.UNID,
		NoteID: note.ID,
		Values: values,
		Access: copyStrings(access),
		Parent: parentOf(note),
		key:    slab[:keyLen],
	}
	return e, buf[:0]
}

// entryWith is an Entry allocated together with room for the headers of
// the strings it keeps.
type entryWith[S any] struct {
	Entry
	strs S
}

// allocEntry returns a new Entry and room for n string headers, in one
// allocation for n up to 8.
func allocEntry(n int) (*Entry, []string) {
	switch {
	case n == 0:
		return new(Entry), nil
	case n <= 2:
		b := new(entryWith[[2]string])
		return &b.Entry, b.strs[:n]
	case n <= 4:
		b := new(entryWith[[4]string])
		return &b.Entry, b.strs[:n]
	case n <= 8:
		b := new(entryWith[[8]string])
		return &b.Entry, b.strs[:n]
	}
	return new(Entry), make([]string, n)
}

// Update reflects a single note change in the index: the note is inserted,
// repositioned, or removed, as entry decides. A note the view's formulas
// fail on leaves the view, and the error is returned. It reports whether
// the index changed.
func (ix *Index) Update(note *nsf.Note, ctx *formula.Context) (bool, error) {
	e, err := ix.entry(note, ctx)
	if e == nil {
		return ix.Remove(note.OID.UNID), err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if oldKey, ok := ix.byUNID[e.UNID]; ok {
		if oldKey == e.key {
			// Same position: replace values in place.
			if i, found := ix.locate(oldKey); found {
				ix.restricted += e.restrictedCount() - ix.entries[i].restrictedCount()
				ix.entries[i] = e
				return true, nil
			}
		}
		ix.removeKeyLocked(oldKey)
	}
	i, _ := ix.locate(e.key)
	ix.entries = append(ix.entries, nil)
	copy(ix.entries[i+1:], ix.entries[i:])
	ix.entries[i] = e
	ix.byUNID[e.UNID] = e.key
	ix.restricted += e.restrictedCount()
	return true, nil
}

// Remove deletes the entry for unid, reporting whether it was present.
func (ix *Index) Remove(unid nsf.UNID) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	key, ok := ix.byUNID[unid]
	if !ok {
		return false
	}
	ix.removeKeyLocked(key)
	delete(ix.byUNID, unid)
	return true
}

func (ix *Index) removeKeyLocked(key string) {
	if i, found := ix.locate(key); found {
		ix.restricted -= ix.entries[i].restrictedCount()
		ix.entries = append(ix.entries[:i], ix.entries[i+1:]...)
	}
}

// Rebuild clears the index and repopulates it from scan: Rebuild with
// this one index.
func (ix *Index) Rebuild(ctx *formula.Context, scan func(fn func(*nsf.Note) bool) error) error {
	return Rebuild(ctx, scan, ix)
}

// Rebuild clears each of ixs and repopulates it from one scan, which must
// invoke its callback once per candidate note; the note is lent for the
// call. Each index takes the entry Update would give the note, so a note
// its formulas fail on is left out, as upkeep leaves it out.
func Rebuild(ctx *formula.Context, scan func(fn func(*nsf.Note) bool) error, ixs ...*Index) error {
	fresh := make([][]*Entry, len(ixs))
	err := scan(func(n *nsf.Note) bool {
		for i, ix := range ixs {
			if e, _ := ix.entry(n, ctx); e != nil {
				fresh[i] = append(fresh[i], e)
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	for i, ix := range ixs {
		ix.fill(fresh[i])
	}
	return nil
}

// fill replaces the index's entries with entries, in any order.
func (ix *Index) fill(entries []*Entry) {
	slices.SortFunc(entries, func(a, b *Entry) int { return strings.Compare(a.key, b.key) })
	byUNID := make(map[nsf.UNID]string, len(entries))
	restricted := 0
	for _, e := range entries {
		byUNID[e.UNID] = e.key
		restricted += e.restrictedCount()
	}
	ix.mu.Lock()
	ix.entries = entries
	ix.byUNID = byUNID
	ix.restricted = restricted
	ix.mu.Unlock()
}

// Entries returns a snapshot of all entries in collation order.
func (ix *Index) Entries() []*Entry {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]*Entry, len(ix.entries))
	copy(out, ix.entries)
	return out
}

// Row is a rendered view row: either a category header or a document entry.
type Row struct {
	// Category is the header text for category rows; empty for documents.
	Category string
	// Indent is the category nesting depth of the row.
	Indent int
	// Entry is nil for category rows.
	Entry *Entry
	// Totals holds, for category rows (and the grand-total row), the sum of
	// each Totals column over the rows beneath; nil when the view has no
	// totals columns or for document rows.
	Totals map[int]float64
	// GrandTotal marks the synthetic final row carrying view-wide totals.
	GrandTotal bool
}

// Rows renders the view with category headers synthesized from the
// categorized columns, Notes style, and — when the definition enables
// ShowResponses — responses nested beneath their parents. Entries for which
// allow returns false are skipped (pass nil to include everything); empty
// categories are suppressed automatically. A view with Totals columns ends
// with a grand-total row.
func (ix *Index) Rows(allow func(*Entry) bool) []Row {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var rows []Row
	if ix.def.ShowResponses {
		rows, _ = ix.responseRows(context.Background(), allow)
	} else {
		rows, _, _ = ix.window(context.Background(), allow, 0, -1)
	}
	return ix.addTotals(rows)
}

// RowsRange renders rows[start : start+limit] of the view along with the
// total row count, for paginated readers. Row indices are positions in the
// full Rows rendering minus the synthetic grand-total row, which is
// excluded here — it would otherwise sit at a shifting index as documents
// arrive, breaking cursor arithmetic (category totals on header rows are
// still present). Indices are stable across pages as long as the index
// itself does not change between calls; a reader that needs exactness
// checks the returned total against its cursor. limit <= 0 means "to the
// end"; start past the end returns an empty page.
//
// allow must admit every entry without an access list: a flat view none of
// whose entries is restricted is paged without consulting it.
func (ix *Index) RowsRange(allow func(*Entry) bool, start, limit int) ([]Row, int) {
	rows, total, _ := ix.RowsRangeCtx(context.Background(), allow, start, limit)
	return rows, total
}

// rowsCtxStride is how many entries a render walk visits between deadline
// checks. Small enough that a cancelled render releases the read lock in
// microseconds, large enough that ctx.Err() stays off the per-entry path.
const rowsCtxStride = 512

// RowsRangeCtx is RowsRange with cooperative cancellation. A page costs
// its window, not the view: a flat view with no restricted entry is sliced
// directly; a categorized or restricted view is walked once to count its
// rows, building only the window's rows and summing the totals of the
// window's category headers. A ShowResponses view renders in full. A walk
// checks ctx every rowsCtxStride entries and returns ctx's error once the
// deadline is spent, so a reader whose budget expired releases the view's
// read lock promptly.
func (ix *Index) RowsRangeCtx(ctx context.Context, allow func(*Entry) bool, start, limit int) ([]Row, int, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	start = max(start, 0)
	end := -1
	if limit > 0 {
		end = start + limit
	}
	switch {
	case ix.def.ShowResponses:
		rows, err := ix.responseRows(ctx, allow)
		if err != nil {
			return nil, 0, err
		}
		lo, hi := clip(len(rows), start, end)
		return rows[lo:hi], len(rows), nil
	case ix.restricted == 0 && len(columnsWith(ix.def, isCategorized)) == 0:
		lo, hi := clip(len(ix.entries), start, end)
		rows := make([]Row, hi-lo)
		for i, e := range ix.entries[lo:hi] {
			rows[i].Entry = e
		}
		return rows, len(ix.entries), nil
	default:
		return ix.window(ctx, allow, start, end)
	}
}

// clip bounds the window [start, end) (end < 0: to the end) to n rows.
func clip(n, start, end int) (int, int) {
	if end < 0 || end > n {
		end = n
	}
	return min(start, end), end
}

func isCategorized(c Column) bool { return c.Categorized }
func isTotals(c Column) bool      { return c.Totals }

// columnsWith returns the indexes of def's columns for which want is true.
func columnsWith(def *Definition, want func(Column) bool) []int {
	var out []int
	for i, c := range def.Columns {
		if want(c) {
			out = append(out, i)
		}
	}
	return out
}

// window walks the entries once and renders rows [start, end) (end < 0: to
// the last row) of the categorized rendering, returning them with the row
// count of the whole rendering. Rows outside the window are counted, not
// built; a header row's Totals sum every document beneath it, including
// those past end.
func (ix *Index) window(ctx context.Context, allow func(*Entry) bool, start, end int) ([]Row, int, error) {
	catCols := columnsWith(ix.def, isCategorized)
	totalCols := columnsWith(ix.def, isTotals)
	depth := len(catCols)
	// cur is the category path of the last visible entry, next the current
	// entry's; open[j] is the index in rows of the header at depth j, or -1
	// when that header lies outside the window.
	cur, next := make([]string, depth), make([]string, depth)
	open := make([]int, depth)
	var rows []Row
	pos := 0
	inWindow := func() bool { return pos >= start && (end < 0 || pos < end) }
	for i, e := range ix.entries {
		if i%rowsCtxStride == rowsCtxStride-1 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if allow != nil && !allow(e) {
			continue
		}
		if depth > 0 {
			for j, ci := range catCols {
				next[j] = e.ColumnText(ci)
			}
			// Emit headers where the category path diverges.
			diverge := 0
			for pos > 0 && diverge < depth && next[diverge] == cur[diverge] {
				diverge++
			}
			for j := diverge; j < depth; j++ {
				open[j] = -1
				if inWindow() {
					open[j] = len(rows)
					rows = append(rows, Row{Category: next[j], Indent: j})
					if len(totalCols) > 0 {
						rows[open[j]].Totals = make(map[int]float64, len(totalCols))
					}
				}
				pos++
			}
			cur, next = next, cur
		}
		if inWindow() {
			rows = append(rows, Row{Entry: e, Indent: depth})
		}
		pos++
		for _, oi := range open {
			if oi < 0 {
				continue
			}
			for _, c := range totalCols {
				rows[oi].Totals[c] += e.total(c)
			}
		}
	}
	return rows, pos, nil
}

// addTotals appends the grand-total row: the sums of the Totals columns
// over every document row. A no-op when the view defines no totals columns.
func (ix *Index) addTotals(rows []Row) []Row {
	totalCols := columnsWith(ix.def, isTotals)
	if len(totalCols) == 0 {
		return rows
	}
	grand := make(map[int]float64, len(totalCols))
	for _, r := range rows {
		if r.Entry == nil {
			continue
		}
		for _, c := range totalCols {
			grand[c] += r.Entry.total(c)
		}
	}
	return append(rows, Row{GrandTotal: true, Totals: grand})
}

// responseRows renders the response hierarchy: main documents in collation
// order, each followed by its (visible) responses, recursively indented.
// Responses whose parent is absent or hidden surface at the top level, so a
// restricted parent never hides an unrestricted reply entirely. The walk
// checks ctx every rowsCtxStride entries.
func (ix *Index) responseRows(ctx context.Context, allow func(*Entry) bool) ([]Row, error) {
	visible := make(map[nsf.UNID]bool, len(ix.entries))
	children := make(map[nsf.UNID][]*Entry)
	for i, e := range ix.entries {
		if i%rowsCtxStride == rowsCtxStride-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if allow != nil && !allow(e) {
			continue
		}
		visible[e.UNID] = true
	}
	var tops []*Entry
	for _, e := range ix.entries {
		if !visible[e.UNID] {
			continue
		}
		if !e.Parent.IsZero() && visible[e.Parent] {
			children[e.Parent] = append(children[e.Parent], e)
		} else {
			tops = append(tops, e)
		}
	}
	var rows []Row
	emitted := make(map[nsf.UNID]bool, len(visible))
	var emit func(e *Entry, depth int)
	emit = func(e *Entry, depth int) {
		if emitted[e.UNID] {
			return // defends against $Ref cycles
		}
		emitted[e.UNID] = true
		rows = append(rows, Row{Entry: e, Indent: depth})
		for _, c := range children[e.UNID] {
			emit(c, depth+1)
		}
	}
	for _, e := range tops {
		emit(e, 0)
	}
	// $Ref cycles leave orphans never reached from a top-level entry; emit
	// them flat so no visible document silently disappears.
	for _, e := range ix.entries {
		if visible[e.UNID] && !emitted[e.UNID] {
			emit(e, 0)
		}
	}
	return rows, nil
}
