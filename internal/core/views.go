package core

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/acl"
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

// designNotes calls fn with every ACL and view design note that is not a
// stub, decoded whole, in NoteID order, until fn returns false; every
// other note has only its header read.
func (db *Database) designNotes(fn func(*nsf.Note) bool) error {
	return db.headers(func(h *nsf.Note) bool {
		return !h.IsStub() && (h.Class == nsf.ClassACL || h.Class == nsf.ClassView)
	}, fn)
}

// designNote returns the first view or folder note whose title item
// (itemViewTitle or itemFolderTitle) is name, case-insensitively, or nil.
func (db *Database) designNote(item, name string) (*nsf.Note, error) {
	var found *nsf.Note
	err := db.designNotes(func(n *nsf.Note) bool {
		if t := n.Text(item); t != "" && strings.EqualFold(t, name) {
			found = n
		}
		return found == nil
	})
	return found, err
}

// applyDesign makes the design note n take effect: an ACL note replaces
// the ACL, and a view note returns an empty index of its view for the
// caller to build. A folder, a stub and a view note that does not compile
// do nothing: no view can be built from it, as no entry can from a
// document a view's formulas fail on. An ACL note that does not parse is
// an error, since skipping it would open the database to everyone.
func (db *Database) applyDesign(n *nsf.Note) (*view.Index, error) {
	switch {
	case n.IsStub():
	case n.Class == nsf.ClassACL:
		a, err := acl.FromNote(n)
		if err != nil {
			return nil, err
		}
		db.mu.Lock()
		db.acl = a
		db.mu.Unlock()
	case n.Class == nsf.ClassView && !n.Has(itemFolderTitle):
		if def, err := defFromNote(n); err == nil {
			return view.NewIndex(def), nil
		}
	}
	return nil, nil
}

// rebuildViews fills ixs from one walk of the store, decoding each record
// into one reused note and arena as a maintainer pass does; the entries
// copy what they keep.
func (db *Database) rebuildViews(ixs ...*view.Index) error {
	if len(ixs) == 0 {
		return nil
	}
	var n nsf.Note
	var arena nsf.Arena
	return view.Rebuild(db.evalContext(""), func(fn func(*nsf.Note) bool) error {
		var derr error
		err := db.st.ScanRecords(context.Background(), 0, nil, func(rec []byte) bool {
			arena.Reset()
			derr = nsf.DecodeNoteIntoSrc(&n, &arena, rec, string(rec))
			return derr == nil && fn(&n)
		})
		return cmp.Or(err, derr)
	}, ixs...)
}

// AddView persists a view definition as a design note and builds its index.
// Requires Designer access when a session is supplied.
func (db *Database) AddView(s *Session, def *view.Definition) error {
	if s != nil && !s.Identity().CanDesign() {
		return fmt.Errorf("%w: %s may not modify design", ErrAccessDenied, s.User())
	}
	old, err := db.designNote(itemViewTitle, def.Name)
	if err != nil {
		return err
	}
	n := nsf.NewNote(nsf.ClassView)
	if old != nil {
		n.OID.UNID = old.OID.UNID // redefining: the view keeps its note
	}
	defToNote(def, n)
	if err := db.putVersioned(n); err != nil {
		return err
	}
	return db.installViews(view.NewIndex(def))
}

// installViews populates new view indexes from one walk of the store and
// registers them with the maintainer. It holds the commit lock across the
// rebuild so the scan sees a frozen store: every change committed before
// the scan is in it, and every change after registration reaches the
// indexes through the feed — entries still in flight re-apply versions the
// scan already saw, which an index absorbs idempotently.
func (db *Database) installViews(ixs ...*view.Index) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.rebuildViews(ixs...); err != nil {
		return err
	}
	db.mu.Lock()
	for _, ix := range ixs {
		db.setView(ix)
	}
	db.mu.Unlock()
	return nil
}

// setView makes ix the index of its view, replacing any of the same name.
// The caller holds mu for writing.
func (db *Database) setView(ix *view.Index) {
	db.views[strings.ToLower(ix.Definition().Name)] = ix
	list := make([]*view.Index, 0, len(db.views))
	for _, v := range db.views {
		list = append(list, v)
	}
	db.viewList = list
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
