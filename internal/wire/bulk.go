package wire

import (
	"math"

	"repro/internal/ft"
	"repro/internal/nsf"
)

// Bulk read protocol. Three ops move many rows per round trip, all paged so
// no response can approach MaxFrame regardless of view or database size:
//
//   - OpViewRows streams a rendered view in (start, limit) pages. Every row
//     is prefixed with an explicit kind byte, so a category header can never
//     be confused with a document that happens to render zero columns.
//   - OpScan is the NSFSearch shape: selection formula + item projection,
//     returning typed values and an opaque resume cursor per page.
//   - OpSearch returns ranked full-text hits in (start, limit) pages, with
//     optional pre-joined summary columns.
//
// Pages end with a sentinel (rowKindEnd) rather than a leading count: the
// server encodes rows until its byte budget fills and only then knows how
// many fit, and a sentinel stream needs no count-sized preallocation on the
// decode side.

// Row kind bytes framing every bulk-read row.
const (
	rowKindEnd      byte = 0 // end of rows; trailer follows
	rowKindDoc      byte = 1 // document row
	rowKindCategory byte = 2 // synthesized category header (views only)
)

// ViewRow is a rendered remote view row.
type ViewRow struct {
	// IsCategory marks synthesized category header rows explicitly — a
	// document row may legitimately render zero columns and an empty
	// category text, so the distinction travels as a row kind on the wire.
	IsCategory bool
	// Category is the header text of a category row; empty for documents.
	Category string
	Indent   int
	// UNID identifies the document of a document row; zero for categories.
	UNID    nsf.UNID
	Columns []string
}

// ViewPage is one page of a rendered view. Its strings are substrings of
// one string holding the page's whole response body, so retaining any of
// them keeps that string alive.
type ViewPage struct {
	Rows []ViewRow
	// Total is the full rendering's row count (grand-total row excluded).
	Total int
	// Start echoes the requested start index; Next is the index the next
	// page begins at (Start + len(Rows)).
	Start, Next int
	// More reports whether rows remain past Next.
	More bool
}

// ScanRow is one projected document from a bulk scan.
type ScanRow struct {
	NoteID nsf.NoteID
	UNID   nsf.UNID
	// Values holds one typed value per requested column, in request order.
	// A column the document lacks is the zero Value (Type 0).
	Values []nsf.Value
}

// ScanPage is one page of a bulk scan. Its text values are substrings of
// one string holding the page's whole response body, so retaining any of
// them keeps that string alive; values share per-page arrays, cut so that
// appending to one never writes into another.
type ScanPage struct {
	Rows []ScanRow
	// Cursor resumes the scan after the last row of this page. It is
	// opaque and bound to the serving server: NoteIDs are per-copy, so a
	// cursor must not be replayed against a different replica — the server
	// rejects one that is.
	Cursor []byte
	More   bool
}

// ScanOptions parameterize a bulk scan.
type ScanOptions struct {
	// Formula is a selection formula evaluated server-side; empty selects
	// every document.
	Formula string
	// Columns are the item names to project. Empty projects nothing —
	// pages carry identities only.
	Columns []string
	// Limit caps rows per page; 0 accepts the server's page size. The
	// server may return fewer rows than asked either way (byte budget,
	// load shedding); only Cursor/More say whether the scan is done.
	Limit int
}

// SearchHit is one full-text hit with optional joined summary columns.
type SearchHit struct {
	UNID  nsf.UNID
	Score float64
	// Values holds one typed value per requested column (nil when the
	// query requested no columns).
	Values []nsf.Value
}

// SearchPage is one page of ranked full-text hits. Like a ScanPage's, its
// text values are substrings of the page's one body string, which a
// retained value keeps alive.
type SearchPage struct {
	Hits        []SearchHit
	Total       int
	Start, Next int
	More        bool
}

// pageDec decodes one bulk-read page with a constant number of
// allocations rather than a few per row: the body is converted to one
// string, every text a page returns is a substring of it, and values,
// column lists and text lists are cut from per-page arrays with full slice
// expressions, so a caller's append to one row never writes into the next.
// A pre-pass (pageSize) sizes those arrays, and the page's rows, once.
type pageDec struct {
	d     *Dec
	s     string // the body from base on
	base  int    // d's offset at the start of s
	vals  []nsf.Value
	cols  []string
	arena nsf.Arena
}

func newPageDec(d *Dec, z pageSize) *pageDec {
	p := &pageDec{d: d, s: string(d.buf[d.off:]), base: d.off,
		vals: make([]nsf.Value, 0, z.vals), cols: make([]string, 0, z.cols)}
	p.arena.Grow(z.arena)
	return p
}

// blob reads a length-prefixed byte slice, returning it both as it
// aliases the body and as the substring of the page holding those bytes.
func (p *pageDec) blob() ([]byte, string) {
	b := p.d.Blob()
	if p.d.err != nil {
		return nil, ""
	}
	end := p.d.off - p.base
	return b, p.s[end-len(b) : end]
}

// str reads a length-prefixed string as a substring of the page.
func (p *pageDec) str() string {
	_, s := p.blob()
	return s
}

// columns reads a view row's count-prefixed column texts; none is nil.
func (p *pageDec) columns() []string {
	n := p.d.U32()
	if n == 0 {
		return nil
	}
	start := len(p.cols)
	for j := uint32(0); j < n && p.d.Err() == nil; j++ {
		p.cols = append(p.cols, p.str())
	}
	return p.cols[start:len(p.cols):len(p.cols)]
}

// values reads one row's projected columns: a presence byte, then the
// typed value, per requested column. An absent column stays the zero
// Value; no columns requested yields nil.
func (p *pageDec) values(ncols int) []nsf.Value {
	if ncols == 0 {
		return nil
	}
	start := len(p.vals)
	for j := 0; j < ncols && p.d.Err() == nil; j++ {
		var v nsf.Value
		if p.d.U8() != 0 {
			v = p.value()
		}
		p.vals = append(p.vals, v)
	}
	// A truncated row still carries ncols values.
	for len(p.vals)-start < ncols {
		p.vals = append(p.vals, nsf.Value{})
	}
	return p.vals[start:len(p.vals):len(p.vals)]
}

// value reads a typed item value appended by Enc.Value.
func (p *pageDec) value() nsf.Value {
	b, s := p.blob()
	if p.d.err != nil {
		return nsf.Value{}
	}
	v, err := p.arena.DecodeValue(b, s)
	if err != nil {
		p.d.fail("bad value: %v", err)
		return nsf.Value{}
	}
	return v
}

// pageSize is what a page body holds: its rows, values, view columns and
// the entries of its values' arrays. Each page's pre-pass counts them
// reading the body as its decoder will, on a copy of the decoder, and
// fails where the decoder would, so a page it accepts decodes into arrays
// sized once.
type pageSize struct {
	rows, vals, cols int
	arena            nsf.ArenaSize
}

// columns counts a view row's column texts.
func (z *pageSize) columns(d *Dec) {
	n := d.U32()
	for j := uint32(0); j < n && d.Err() == nil; j++ {
		d.Blob()
		z.cols++
	}
}

// values counts one row's projected columns, checking each value present.
func (z *pageSize) values(d *Dec, ncols int) {
	z.vals += ncols
	for j := 0; j < ncols && d.Err() == nil; j++ {
		if d.U8() == 0 {
			continue
		}
		if b := d.Blob(); d.Err() == nil {
			if err := z.arena.AddValue(b); err != nil {
				d.fail("bad value: %v", err)
			}
		}
	}
}

// sized returns an empty slice with room for n elements, nil for none, as
// appending to a nil slice leaves a page that has no rows.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// sizeViewPage is decodeViewPage's pre-pass.
func sizeViewPage(d Dec) (pageSize, error) {
	var z pageSize
	d.U32()
	d.U32()
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		switch kind {
		case rowKindCategory:
			d.Blob()
			d.U32()
		case rowKindDoc:
			d.U32()
			d.UNID()
			z.columns(&d)
		default:
			return z, protoErrorf("bad view row kind %#x", kind)
		}
		z.rows++
	}
	d.U8()
	d.U32()
	return z, d.Err()
}

// decodeViewPage parses an OpViewRows response body.
func decodeViewPage(d *Dec) (ViewPage, error) {
	z, err := sizeViewPage(*d)
	if err != nil {
		return ViewPage{}, err
	}
	return readViewPage(d, z)
}

// readViewPage decodes a view page into arrays sized by z.
func readViewPage(d *Dec, z pageSize) (ViewPage, error) {
	p := ViewPage{Total: int(d.U32()), Start: int(d.U32()), Rows: sized[ViewRow](z.rows)}
	pd := newPageDec(d, z)
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		var row ViewRow
		switch kind {
		case rowKindCategory:
			row.IsCategory = true
			row.Category = pd.str()
			row.Indent = int(d.U32())
		case rowKindDoc:
			row.Indent = int(d.U32())
			row.UNID = d.UNID()
			row.Columns = pd.columns()
		default:
			return p, protoErrorf("bad view row kind %#x", kind)
		}
		p.Rows = append(p.Rows, row)
	}
	p.More = d.U8() != 0
	p.Next = int(d.U32())
	return p, d.Err()
}

// sizeScanPage is decodeScanPage's pre-pass.
func sizeScanPage(d Dec, ncols int) (pageSize, error) {
	var z pageSize
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		if kind != rowKindDoc {
			return z, protoErrorf("bad scan row kind %#x", kind)
		}
		d.U32()
		d.UNID()
		z.values(&d, ncols)
		z.rows++
	}
	d.U8()
	d.Blob()
	return z, d.Err()
}

// decodeScanPage parses an OpScan response body.
func decodeScanPage(d *Dec, ncols int) (ScanPage, error) {
	z, err := sizeScanPage(*d, ncols)
	if err != nil {
		return ScanPage{}, err
	}
	return readScanPage(d, ncols, z)
}

// readScanPage decodes a scan page into arrays sized by z.
func readScanPage(d *Dec, ncols int, z pageSize) (ScanPage, error) {
	p := ScanPage{Rows: sized[ScanRow](z.rows)}
	pd := newPageDec(d, z)
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		if kind != rowKindDoc {
			return p, protoErrorf("bad scan row kind %#x", kind)
		}
		p.Rows = append(p.Rows, ScanRow{NoteID: nsf.NoteID(d.U32()), UNID: d.UNID(), Values: pd.values(ncols)})
	}
	p.More = d.U8() != 0
	// The cursor blob aliases the response buffer; copy so the page owns it.
	p.Cursor = append([]byte(nil), d.Blob()...)
	return p, d.Err()
}

// sizeSearchPage is decodeSearchPage's pre-pass.
func sizeSearchPage(d Dec, ncols int) (pageSize, error) {
	var z pageSize
	d.U32()
	d.U32()
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		if kind != rowKindDoc {
			return z, protoErrorf("bad search row kind %#x", kind)
		}
		d.UNID()
		d.U64()
		z.values(&d, ncols)
		z.rows++
	}
	d.U8()
	d.U32()
	return z, d.Err()
}

// decodeSearchPage parses an OpSearch response body. Scores travel as
// IEEE-754 bits, so zero and negative scores round-trip exactly.
func decodeSearchPage(d *Dec, ncols int) (SearchPage, error) {
	z, err := sizeSearchPage(*d, ncols)
	if err != nil {
		return SearchPage{}, err
	}
	return readSearchPage(d, ncols, z)
}

// readSearchPage decodes a search page into arrays sized by z.
func readSearchPage(d *Dec, ncols int, z pageSize) (SearchPage, error) {
	p := SearchPage{Total: int(d.U32()), Start: int(d.U32()), Hits: sized[SearchHit](z.rows)}
	pd := newPageDec(d, z)
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		if kind != rowKindDoc {
			return p, protoErrorf("bad search row kind %#x", kind)
		}
		p.Hits = append(p.Hits, SearchHit{UNID: d.UNID(), Score: math.Float64frombits(d.U64()), Values: pd.values(ncols)})
	}
	p.More = d.U8() != 0
	p.Next = int(d.U32())
	return p, d.Err()
}

// ViewPage fetches one page of a rendered view: rows [start, start+limit)
// of the server-side rendering with the caller's read filtering, bounded
// by the server's page budget. limit 0 accepts the server's page size.
func (r *RemoteDB) ViewPage(view string, start, limit int) (ViewPage, error) {
	d, err := r.call(r.req(OpViewRows).Str(view).U32(uint32(start)).U32(uint32(limit)))
	if err != nil {
		return ViewPage{}, err
	}
	return decodeViewPage(d)
}

// ViewRows renders a whole view by paging through it. Any view streams in
// bounded frames — a rendering larger than MaxFrame, which the one-shot
// protocol could not carry at all, simply takes more pages. Each page is
// its own idempotent round trip, so a reconnect resumes at the next page
// rather than restarting. Rows shifted by concurrent updates between pages
// may be skipped or repeated, as with any stateless cursor.
func (r *RemoteDB) ViewRows(view string) ([]ViewRow, error) {
	var rows []ViewRow
	for start := 0; ; {
		p, err := r.ViewPage(view, start, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, p.Rows...)
		if !p.More || p.Next <= start {
			return rows, nil
		}
		start = p.Next
	}
}

// ScanPage runs one page of a formula-filtered scan with item projection.
// Pass nil (or a previous page's) cursor; the returned page's Cursor
// resumes after its last row, even on a fresh connection to the same
// server.
func (r *RemoteDB) ScanPage(opts ScanOptions, cursor []byte) (ScanPage, error) {
	req := r.req(OpScan).Str(opts.Formula).
		U32(uint32(opts.Limit)).U32(uint32(len(opts.Columns)))
	for _, c := range opts.Columns {
		req.Str(c)
	}
	d, err := r.call(req.Blob(cursor))
	if err != nil {
		return ScanPage{}, err
	}
	return decodeScanPage(d, len(opts.Columns))
}

// Scan pages a formula-filtered, projected scan through fn until the scan
// is exhausted or fn returns false. Rows come in NoteID order, so a page
// that says More yet carries no row, or a row that does not follow the
// last one delivered (a cursor that did not advance, or that restarted the
// scan), is a protocol error rather than a loop.
func (r *RemoteDB) Scan(opts ScanOptions, fn func(ScanRow) bool) error {
	var cursor []byte
	var last nsf.NoteID
	for {
		p, err := r.ScanPage(opts, cursor)
		if err != nil {
			return err
		}
		if p.More && len(p.Rows) == 0 {
			return protoErrorf("scan page says more but carries no rows")
		}
		for _, row := range p.Rows {
			if row.NoteID <= last {
				return protoErrorf("scan row %d does not follow row %d: the cursor did not advance", row.NoteID, last)
			}
			last = row.NoteID
			if !fn(row) {
				return nil
			}
		}
		if !p.More {
			return nil
		}
		cursor = p.Cursor
	}
}

// SearchPage runs a full-text query server-side and returns one page of
// ranked hits, optionally pre-joined with the named summary columns so the
// hit list renders without per-hit Get calls.
func (r *RemoteDB) SearchPage(query string, columns []string, start, limit int) (SearchPage, error) {
	req := r.req(OpSearch).Str(query).
		U32(uint32(start)).U32(uint32(limit)).U32(uint32(len(columns)))
	for _, c := range columns {
		req.Str(c)
	}
	d, err := r.call(req)
	if err != nil {
		return SearchPage{}, err
	}
	return decodeSearchPage(d, len(columns))
}

// Search runs a full-text query server-side, paging through every hit.
func (r *RemoteDB) Search(query string) ([]ft.Result, error) {
	var out []ft.Result
	for start := 0; ; {
		p, err := r.SearchPage(query, nil, start, 0)
		if err != nil {
			return nil, err
		}
		for _, h := range p.Hits {
			out = append(out, ft.Result{UNID: h.UNID, Score: h.Score})
		}
		if !p.More || p.Next <= start {
			return out, nil
		}
		start = p.Next
	}
}
