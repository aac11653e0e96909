package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/formula"
	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/view"
)

// View design note items.
const (
	itemViewTitle   = "$Title"
	itemViewSel     = "$Selection"
	itemViewFlags   = "$ViewFlags"
	itemColTitles   = "$ColTitles"
	itemColItems    = "$ColItems"
	itemColFormulas = "$ColFormulas"
	itemColFlags    = "$ColFlags"
	colFlagSorted   = 1
	colFlagDesc     = 2
	colFlagCategory = 4
	colFlagTotals   = 8

	viewFlagResponses = 1
)

// defToNote serializes a view definition into a design note.
func defToNote(def *view.Definition, n *nsf.Note) {
	n.Class = nsf.ClassView
	n.SetText(itemViewTitle, def.Name)
	n.SetText(itemViewSel, def.Selection.Source())
	vf := 0
	if def.ShowResponses {
		vf |= viewFlagResponses
	}
	n.SetNumber(itemViewFlags, float64(vf))
	titles := make([]string, len(def.Columns))
	items := make([]string, len(def.Columns))
	formulas := make([]string, len(def.Columns))
	flags := make([]float64, len(def.Columns))
	for i, c := range def.Columns {
		titles[i] = c.Title
		items[i] = c.ItemName
		if c.Formula != nil {
			formulas[i] = c.Formula.Source()
		}
		f := 0
		if c.Sorted {
			f |= colFlagSorted
		}
		if c.Descending {
			f |= colFlagDesc
		}
		if c.Categorized {
			f |= colFlagCategory
		}
		if c.Totals {
			f |= colFlagTotals
		}
		flags[i] = float64(f)
	}
	n.SetText(itemColTitles, titles...)
	n.SetText(itemColItems, items...)
	n.SetText(itemColFormulas, formulas...)
	n.SetNumber(itemColFlags, flags...)
}

// defFromNote reconstructs a view definition from a design note.
func defFromNote(n *nsf.Note) (*view.Definition, error) {
	name := n.Text(itemViewTitle)
	if name == "" {
		return nil, fmt.Errorf("core: view note has no title")
	}
	titles := n.TextList(itemColTitles)
	items := n.TextList(itemColItems)
	formulas := n.TextList(itemColFormulas)
	flags := n.Get(itemColFlags).Numbers
	if len(items) != len(titles) || len(formulas) != len(titles) || len(flags) != len(titles) {
		return nil, fmt.Errorf("core: view note %q has inconsistent column lists", name)
	}
	cols := make([]view.Column, len(titles))
	for i := range titles {
		cols[i] = view.Column{
			Title:       titles[i],
			ItemName:    items[i],
			Sorted:      int(flags[i])&colFlagSorted != 0,
			Descending:  int(flags[i])&colFlagDesc != 0,
			Categorized: int(flags[i])&colFlagCategory != 0,
			Totals:      int(flags[i])&colFlagTotals != 0,
		}
		if items[i] == "" {
			f, err := formula.Compile(formulas[i])
			if err != nil {
				return nil, fmt.Errorf("core: view %q column %d: %w", name, i, err)
			}
			cols[i].Formula = f
		}
	}
	def, err := view.NewDefinition(name, n.Text(itemViewSel), cols...)
	if err != nil {
		return nil, err
	}
	def.ShowResponses = int(n.Number(itemViewFlags))&viewFlagResponses != 0
	return def, nil
}

// rebuildView repopulates a view index from the store.
func (db *Database) rebuildView(ix *view.Index) error {
	return ix.Rebuild(db.evalContext(""), db.st.ScanAll)
}

// AddView persists a view definition as a design note and builds its index.
// Requires Designer access when a session is supplied.
func (db *Database) AddView(s *Session, def *view.Definition) error {
	if s != nil && !s.Identity().CanDesign() {
		return fmt.Errorf("%w: %s may not modify design", ErrAccessDenied, s.User())
	}
	n := nsf.NewNote(nsf.ClassView)
	// Reuse the existing design note when redefining a view.
	if unid, ok := db.findViewNote(def.Name); ok {
		n.OID.UNID = unid
	}
	defToNote(def, n)
	if err := db.putVersioned(n); err != nil {
		return err
	}
	return db.installView(view.NewIndex(def))
}

// installView populates a new view index from the store and registers it
// with the maintainer. It holds the commit lock across the rebuild so the
// scan sees a frozen store: every change committed before the scan is in
// it, and every change after registration reaches the index through the
// feed — entries still in flight re-apply versions the scan already saw,
// which the index absorbs idempotently.
func (db *Database) installView(ix *view.Index) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.rebuildView(ix); err != nil {
		return err
	}
	db.mu.Lock()
	db.setView(ix)
	db.mu.Unlock()
	return nil
}

// setView makes ix the index of its view, replacing any of the same name.
// The caller holds mu for writing, or is opening the database.
func (db *Database) setView(ix *view.Index) {
	db.views[strings.ToLower(ix.Definition().Name)] = ix
	list := make([]*view.Index, 0, len(db.views))
	for _, v := range db.views {
		list = append(list, v)
	}
	db.viewList = list
}

// findViewNote locates the design note for the named view.
func (db *Database) findViewNote(name string) (nsf.UNID, bool) {
	var unid nsf.UNID
	found := false
	db.st.ScanAll(func(n *nsf.Note) bool {
		if n.Class == nsf.ClassView && !n.IsStub() && strings.EqualFold(n.Text(itemViewTitle), name) {
			unid = n.OID.UNID
			found = true
			return false
		}
		return true
	})
	return unid, found
}

// View returns the named view index, if defined, after a refresh barrier:
// the index reflects every change committed before the call (Domino's
// "view refresh on open"). Use ViewStale to skip the barrier.
func (db *Database) View(name string) (*view.Index, bool) {
	db.Refresh()
	return db.ViewStale(name)
}

// ViewStale returns the named view index without waiting for maintenance
// to catch up — the index may lag recent writes.
func (db *Database) ViewStale(name string) (*view.Index, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ix, ok := db.views[strings.ToLower(name)]
	return ix, ok
}

// ViewNames lists defined views, sorted.
func (db *Database) ViewNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.views))
	for _, ix := range db.views {
		out = append(out, ix.Definition().Name)
	}
	sort.Strings(out)
	return out
}

// FullText returns the full-text index, or nil if not enabled.
func (db *Database) FullText() *ft.Index {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ftIndex
}
