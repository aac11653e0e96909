package view

import (
	"bytes"
	"context"
	"math"
	"sort"
	"sync"

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
	byUNID  map[nsf.UNID][]byte // UNID -> current key, for O(log n) removal
}

// NewIndex returns an empty index over def.
func NewIndex(def *Definition) *Index {
	return &Index{def: def, byUNID: make(map[nsf.UNID][]byte)}
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
func (ix *Index) locate(key []byte) (int, bool) {
	i := sort.Search(len(ix.entries), func(i int) bool {
		return bytes.Compare(ix.entries[i].key, key) >= 0
	})
	if i < len(ix.entries) && bytes.Equal(ix.entries[i].key, key) {
		return i, true
	}
	return i, false
}

// Update reflects a single note change in the index: the note is inserted,
// repositioned, or removed depending on the selection formula and its
// current values. Deletion stubs always leave the view. It reports whether
// the index changed.
func (ix *Index) Update(note *nsf.Note, ctx *formula.Context) (bool, error) {
	selected := false
	if !note.IsStub() && note.Class == nsf.ClassDocument {
		ok, err := ix.def.Selection.Selects(note, ctx)
		if err != nil {
			return false, err
		}
		selected = ok
	}
	if !selected {
		return ix.Remove(note.OID.UNID), nil
	}
	vals, err := evalColumns(ix.def, note, ctx)
	if err != nil {
		return false, err
	}
	e := &Entry{
		UNID:    note.OID.UNID,
		NoteID:  note.ID,
		Values:  vals,
		Readers: note.Readers(),
		Parent:  parentOf(note),
		key:     collationKey(ix.def, vals, note.OID.UNID),
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if oldKey, ok := ix.byUNID[e.UNID]; ok {
		if bytes.Equal(oldKey, e.key) {
			// Same position: replace values in place.
			if i, found := ix.locate(oldKey); found {
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

func (ix *Index) removeKeyLocked(key []byte) {
	if i, found := ix.locate(key); found {
		ix.entries = append(ix.entries[:i], ix.entries[i+1:]...)
	}
}

// Rebuild clears the index and repopulates it from scan, which must invoke
// its callback once per candidate note.
func (ix *Index) Rebuild(ctx *formula.Context, scan func(fn func(*nsf.Note) bool) error) error {
	var fresh []*Entry
	var evalErr error
	err := scan(func(n *nsf.Note) bool {
		if n.IsStub() || n.Class != nsf.ClassDocument {
			return true
		}
		ok, err := ix.def.Selection.Selects(n, ctx)
		if err != nil {
			evalErr = err
			return false
		}
		if !ok {
			return true
		}
		vals, err := evalColumns(ix.def, n, ctx)
		if err != nil {
			evalErr = err
			return false
		}
		fresh = append(fresh, &Entry{
			UNID:    n.OID.UNID,
			NoteID:  n.ID,
			Values:  vals,
			Readers: n.Readers(),
			Parent:  parentOf(n),
			key:     collationKey(ix.def, vals, n.OID.UNID),
		})
		return true
	})
	if err != nil {
		return err
	}
	if evalErr != nil {
		return evalErr
	}
	sort.Slice(fresh, func(i, j int) bool {
		return bytes.Compare(fresh[i].key, fresh[j].key) < 0
	})
	byUNID := make(map[nsf.UNID][]byte, len(fresh))
	for _, e := range fresh {
		byUNID[e.UNID] = e.key
	}
	ix.mu.Lock()
	ix.entries = fresh
	ix.byUNID = byUNID
	ix.mu.Unlock()
	return nil
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
// categories are suppressed automatically.
func (ix *Index) Rows(allow func(*Entry) bool) []Row {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.def.ShowResponses {
		return ix.addTotals(ix.responseRows(allow))
	}
	var catCols []int
	for i, c := range ix.def.Columns {
		if c.Categorized {
			catCols = append(catCols, i)
		}
	}
	var rows []Row
	var current []string
	for _, e := range ix.entries {
		if allow != nil && !allow(e) {
			continue
		}
		if len(catCols) > 0 {
			cats := make([]string, len(catCols))
			for j, ci := range catCols {
				cats[j] = e.ColumnText(ci)
			}
			// Emit headers where the category path diverges.
			diverge := 0
			for diverge < len(cats) && diverge < len(current) && cats[diverge] == current[diverge] {
				diverge++
			}
			for j := diverge; j < len(cats); j++ {
				rows = append(rows, Row{Category: cats[j], Indent: j})
			}
			current = cats
		}
		rows = append(rows, Row{Entry: e, Indent: len(catCols)})
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
func (ix *Index) RowsRange(allow func(*Entry) bool, start, limit int) ([]Row, int) {
	rows, total, _ := ix.RowsRangeCtx(context.Background(), allow, start, limit)
	return rows, total
}

// rowsCtxStride is how many entries the render walk visits between deadline
// checks. Small enough that a cancelled render releases the read lock in
// microseconds, large enough that ctx.Err() stays off the per-entry path.
const rowsCtxStride = 512

// RowsRangeCtx is RowsRange with cooperative cancellation. The render walk
// checks ctx every rowsCtxStride entries; once the deadline is spent the
// remaining walk degenerates to cheap skips (no column rendering, no row
// allocation) and the call returns ctx's error, so a paginated reader whose
// budget expired mid-render releases the view's read lock promptly instead
// of materializing thousands of rows for a caller that already gave up.
func (ix *Index) RowsRangeCtx(ctx context.Context, allow func(*Entry) bool, start, limit int) ([]Row, int, error) {
	var visited int
	var ctxErr error
	gated := func(e *Entry) bool {
		if ctxErr != nil {
			return false
		}
		if visited++; visited%rowsCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return false
			}
		}
		return allow == nil || allow(e)
	}
	rows := ix.Rows(gated)
	if ctxErr != nil {
		return nil, 0, ctxErr
	}
	if n := len(rows); n > 0 && rows[n-1].GrandTotal {
		rows = rows[:n-1]
	}
	total := len(rows)
	if start < 0 {
		start = 0
	}
	if start > total {
		start = total
	}
	end := total
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	return rows[start:end], total, nil
}

// addTotals fills category rows with the sums of Totals columns over the
// rows beneath them and appends a grand-total row. A no-op when the view
// defines no totals columns.
func (ix *Index) addTotals(rows []Row) []Row {
	var totalCols []int
	for i, c := range ix.def.Columns {
		if c.Totals {
			totalCols = append(totalCols, i)
		}
	}
	if len(totalCols) == 0 {
		return rows
	}
	grand := make(map[int]float64, len(totalCols))
	var open []int // indices of category rows currently covering entries
	for i := range rows {
		r := &rows[i]
		if r.Entry == nil {
			for len(open) > 0 && rows[open[len(open)-1]].Indent >= r.Indent {
				open = open[:len(open)-1]
			}
			r.Totals = make(map[int]float64, len(totalCols))
			open = append(open, i)
			continue
		}
		for _, c := range totalCols {
			v := 0.0
			if c < len(r.Entry.Values) && r.Entry.Values[c].Type == nsf.TypeNumber {
				for _, n := range r.Entry.Values[c].Numbers {
					v += n
				}
			}
			for _, oi := range open {
				rows[oi].Totals[c] += v
			}
			grand[c] += v
		}
	}
	return append(rows, Row{GrandTotal: true, Totals: grand})
}

// responseRows renders the response hierarchy: main documents in collation
// order, each followed by its (visible) responses, recursively indented.
// Responses whose parent is absent or hidden surface at the top level, so a
// restricted parent never hides an unrestricted reply entirely.
func (ix *Index) responseRows(allow func(*Entry) bool) []Row {
	visible := make(map[nsf.UNID]bool, len(ix.entries))
	children := make(map[nsf.UNID][]*Entry)
	for _, e := range ix.entries {
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
	return rows
}
