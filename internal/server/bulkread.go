package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/nsf"
	"repro/internal/wire"
)

// Bulk read handlers: paginated view reads, formula-filtered scans, and
// paged full-text search. Every page is bounded two ways — a row cap and a
// byte budget checked against the response as it encodes — so no response
// frame can approach wire.MaxFrame regardless of how large the view or
// database is. Both caps are admission-aware: a loaded server serves
// smaller pages, shedding read pressure the same way it sheds admissions.

// Page-budget floors. Even a fully saturated server serves pages of some
// useful size, so paginated readers always make progress.
const (
	minPageRows  = 16
	minPageBytes = 64 << 10
	// pageBudgetFloorPct is the availability-scaling floor: a server at
	// availability 0 still serves ~12% of its configured page size.
	pageBudgetFloorPct = 12
)

// pageBudget returns the row and byte caps for one bulk-read page. The
// configured maxima are scaled by the availability index (100 → full size,
// 0 → pageBudgetFloorPct%) and — when the request carries a deadline that
// is nearly spent — by the remaining time budget, then clamped to the
// floors; a client limit smaller than the scaled row cap wins. The
// deadline scaling means a request arriving with little time left gets a
// small page it can actually finish, instead of a large one it will abort
// halfway through encoding.
func (s *Server) pageBudget(ctx context.Context, clientLimit int) (maxRows, maxBytes int) {
	avail := s.AvailabilityIndex()
	scale := avail
	if scale < pageBudgetFloorPct {
		scale = pageBudgetFloorPct
	}
	if dl, ok := ctx.Deadline(); ok {
		// Under ref = 4x the latency target, shrink proportionally: a
		// request with half of ref left gets at most half a page.
		const ref = 4 * targetLatency
		if rem := time.Until(dl); rem < ref {
			pct := int(rem * 100 / ref)
			if pct < pageBudgetFloorPct {
				pct = pageBudgetFloorPct
			}
			if pct < scale {
				scale = pct
			}
		}
	}
	maxRows = s.opts.maxPageRows * scale / 100
	maxBytes = s.opts.maxPageBytes * scale / 100
	if maxRows < minPageRows {
		maxRows = minPageRows
	}
	if maxBytes < minPageBytes {
		maxBytes = minPageBytes
	}
	if clientLimit > 0 && clientLimit < maxRows {
		maxRows = clientLimit
	}
	return maxRows, maxBytes
}

// viewRows serves one page of a rendered view: request (handle, view name,
// start, limit), response wire.NewViewPage's.
func (c *connState) viewRows(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	name := d.Str()
	start := int(d.U32())
	limit := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	maxRows, maxBytes := c.s.pageBudget(ctx, limit)
	rows, total, err := hs.sess.RowsPageCtx(ctx, name, start, maxRows)
	if err != nil {
		return nil, err
	}
	page := wire.NewViewPage(total, start, maxRows, maxBytes)
	for _, r := range rows {
		if !page.Room() {
			break
		}
		if r.Entry == nil {
			page.Category(r.Category, r.Indent)
		} else {
			page.Doc(r.Indent, r.Entry.UNID, r.Entry.Values)
		}
	}
	next := start + page.Rows()
	return page.End(next < total, next), nil
}

// scanCursorVersion stamps scan cursors so a format change is detected
// rather than misparsed.
const scanCursorVersion = 1

// encodeScanCursor builds the opaque resume cursor: version, the serving
// server's name, and the last NoteID delivered. NoteIDs are per-physical-
// copy, so the cursor is only meaningful on the server that minted it.
func encodeScanCursor(server string, last nsf.NoteID) []byte {
	b := []byte{scanCursorVersion}
	b = binary.AppendUvarint(b, uint64(len(server)))
	b = append(b, server...)
	return binary.LittleEndian.AppendUint32(b, uint32(last))
}

// decodeScanCursor validates a client-supplied cursor against this server.
// An empty cursor starts a fresh scan.
func decodeScanCursor(cursor []byte, server string) (nsf.NoteID, error) {
	if len(cursor) == 0 {
		return 0, nil
	}
	if cursor[0] != scanCursorVersion {
		return 0, fmt.Errorf("bad scan cursor version %d", cursor[0])
	}
	rest := cursor[1:]
	n, sz := binary.Uvarint(rest)
	// Compared without n+4, which a length near 2^64 wraps.
	if sz <= 0 || n > uint64(len(rest)-sz) || uint64(len(rest)-sz)-n < 4 {
		return 0, fmt.Errorf("malformed scan cursor")
	}
	name := string(rest[sz : sz+int(n)])
	if name != server {
		return 0, fmt.Errorf("scan cursor belongs to server %q, not %q (note IDs are per-copy; restart the scan)", name, server)
	}
	return nsf.NoteID(binary.LittleEndian.Uint32(rest[sz+int(n):])), nil
}

// scan serves one page of an NSFSearch-style bulk read: request (handle,
// formula, limit, column names, cursor), response wire.NewScanPage's. The
// formula is compiled per page — compilation is cheap next to evaluating
// it over the page's documents.
func (c *connState) scan(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	formulaSrc := d.Str()
	limit := int(d.U32())
	columns := d.Columns()
	cursor := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	var sel *formula.Formula
	var err, encErr error
	if formulaSrc != "" {
		if sel, err = formula.Compile(formulaSrc); err != nil {
			return nil, err
		}
	}
	after, err := decodeScanCursor(cursor, c.s.opts.Name)
	if err != nil {
		return nil, err
	}
	page := wire.NewScanPage(c.s.pageBudget(ctx, limit))
	cols := newScanColumns(columns, sel)
	var last nsf.NoteID
	full := false
	err = hs.sess.ScanRowsCtx(ctx, after, sel, columns, func(r core.ScanRow) bool {
		if !page.Room() {
			// A selected document exists past this page, so More is true
			// even when the page filled exactly at the end of the store.
			full = true
			return false
		}
		page.ScanRow(r.Note.ID, r.Note.OID.UNID)
		if encErr = cols.encode(&page, r.Note, r.Record); encErr != nil {
			return false
		}
		last = r.Note.ID
		return true
	})
	if err == nil {
		err = encErr
	}
	if err != nil {
		page.Release()
		return nil, err
	}
	return page.EndScan(full, encodeScanCursor(c.s.opts.Name, last)), nil
}

// scanColumns encodes a scan row's or search hit's projected columns the
// way Enc.Value would encode each document's item, without building the
// values: a column the formula names (Fields includes FIELD and DEFAULT
// targets) is encoded from the note the formula left; any other column is
// copied as its stored value bytes, which are that value's canonical
// encoding.
type scanColumns struct {
	columns   []string
	names     [][]byte // the columns, as bytes to compare item names with
	evaluated []bool   // named by the formula
	stored    [][]byte // per column, the row's stored value bytes or nil
	// untypedAbsent sends a column whose item has type 0 as absent, as a
	// search hit always has; a scan row sends it as present.
	untypedAbsent bool
}

func newScanColumns(columns []string, sel *formula.Formula) *scanColumns {
	c := &scanColumns{
		columns:   columns,
		names:     make([][]byte, len(columns)),
		evaluated: make([]bool, len(columns)),
		stored:    make([][]byte, len(columns)),
	}
	var fields []string
	if sel != nil {
		fields = sel.Fields()
	}
	for i, col := range columns {
		c.names[i] = []byte(col)
		for _, f := range fields {
			if nsf.EqualNames(f, col) {
				c.evaluated[i] = true
			}
		}
	}
	return c
}

// encode appends the columns of a row — the note the formula left and the
// projected record — to page. As Note.Get does, a column takes the first
// item of its name.
func (c *scanColumns) encode(page *wire.PageEnc, note *nsf.Note, rec []byte) error {
	if len(c.columns) == 0 {
		return nil
	}
	if err := nsf.ItemValues(rec, c.names, c.stored); err != nil {
		return err
	}
	for i, col := range c.columns {
		switch {
		case c.evaluated[i]:
			if item, ok := note.Item(col); ok {
				page.Value(item.Value)
			} else {
				page.NoValue()
			}
		case c.stored[i] != nil && !(c.untypedAbsent && nsf.ItemType(c.stored[i][0]) == 0):
			page.StoredValue(c.stored[i])
		default:
			page.NoValue()
		}
	}
	return nil
}

// search serves one page of ranked full-text hits: request (handle, query,
// start, limit, column names), response wire.NewSearchPage's. Each hit's
// columns are copied from its stored record as it joins; total and first
// are filled in after.
func (c *connState) search(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	query := d.Str()
	start := int(d.U32())
	limit := int(d.U32())
	columns := d.Columns()
	if err := d.Err(); err != nil {
		return nil, err
	}
	maxRows, maxBytes := c.s.pageBudget(ctx, limit)
	page := wire.NewSearchPage(maxRows, maxBytes)
	cols := newScanColumns(columns, nil)
	cols.untypedAbsent = true
	var encErr error
	total, next, err := hs.sess.SearchRowsCtx(ctx, query, columns, start, maxRows, func(r core.SearchRow) bool {
		if !page.Room() {
			return false
		}
		page.Hit(r.UNID, r.Score)
		encErr = cols.encode(&page, r.Note, r.Record)
		return encErr == nil
	})
	if err == nil {
		err = encErr
	}
	if err != nil {
		page.Release()
		return nil, err
	}
	// total counts every hit but those the join skipped, all of which lie
	// between first and next, so hits lie past next iff first+rows < total.
	first := min(start, next)
	return page.EndSearch(total, first, first+page.Rows() < total, next), nil
}
