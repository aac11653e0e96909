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

// PageEnc encodes one bulk-read response page, the server half of the
// decoders below. Its budget is a row cap and a byte cap: Room admits the
// first row always, so a page always makes progress, and later rows while
// the page holds fewer than maxRows rows and fewer than maxBytes bytes.
type PageEnc struct {
	e                       *Enc
	rows, maxRows, maxBytes int
}

// NewViewPage starts an OpViewRows page of a rendering of total rows,
// beginning at row start.
func NewViewPage(total, start, maxRows, maxBytes int) PageEnc {
	return PageEnc{e: NewResp(OpViewRows, StatusOK).U32(uint32(total)).U32(uint32(start)), maxRows: maxRows, maxBytes: maxBytes}
}

// NewScanPage starts an OpScan page.
func NewScanPage(maxRows, maxBytes int) PageEnc {
	return PageEnc{e: NewResp(OpScan, StatusOK), maxRows: maxRows, maxBytes: maxBytes}
}

// NewSearchPage starts an OpSearch page. Its total and first hit are known
// only once the hits are joined; EndSearch fills them in.
func NewSearchPage(maxRows, maxBytes int) PageEnc {
	return PageEnc{e: NewResp(OpSearch, StatusOK).U32(0).U32(0), maxRows: maxRows, maxBytes: maxBytes}
}

// Room reports whether the page takes another row.
func (p *PageEnc) Room() bool {
	return p.rows < p.maxRows && (p.rows == 0 || len(p.e.buf) < p.maxBytes)
}

// Rows is how many rows the page holds.
func (p *PageEnc) Rows() int { return p.rows }

// Category appends a view category header row.
func (p *PageEnc) Category(text string, indent int) {
	p.e.U8(rowKindCategory).Str(text).U32(uint32(indent))
	p.rows++
}

// Doc appends a view document row, each column as its text.
func (p *PageEnc) Doc(indent int, unid nsf.UNID, columns []nsf.Value) {
	p.e.U8(rowKindDoc).U32(uint32(indent)).UNID(unid).U32(uint32(len(columns)))
	for _, v := range columns {
		p.e.Str(v.String())
	}
	p.rows++
}

// ScanRow appends a scan row's identity; its projected columns follow, one
// Value, StoredValue or NoValue per requested column.
func (p *PageEnc) ScanRow(id nsf.NoteID, unid nsf.UNID) {
	p.e.U8(rowKindDoc).U32(uint32(id)).UNID(unid)
	p.rows++
}

// Hit appends a search hit; its joined columns follow as a scan row's do.
// Scores travel as IEEE-754 bits, so zero and negative scores round-trip
// exactly.
func (p *PageEnc) Hit(unid nsf.UNID, score float64) {
	p.e.U8(rowKindDoc).UNID(unid).U64(math.Float64bits(score))
	p.rows++
}

// Value appends a present column holding v.
func (p *PageEnc) Value(v nsf.Value) { p.e.U8(1).Value(v) }

// StoredValue appends a present column holding a value in its canonical
// encoding, as an item's stored value bytes are.
func (p *PageEnc) StoredValue(enc []byte) { p.e.U8(1).Blob(enc) }

// NoValue appends an absent column.
func (p *PageEnc) NoValue() { p.e.U8(0) }

// End ends a view page: more, then the index the next page starts at.
func (p *PageEnc) End(more bool, next int) *Enc {
	return p.e.U8(rowKindEnd).U8(flag(more)).U32(uint32(next))
}

// EndSearch ends a search page as End does, filling in its total and the
// index of its first hit.
func (p *PageEnc) EndSearch(total, first int, more bool, next int) *Enc {
	p.e.SetU32(2, uint32(total)) // past the op and status bytes
	p.e.SetU32(6, uint32(first))
	return p.End(more, next)
}

// EndScan ends a scan page: more, then the resume cursor.
func (p *PageEnc) EndScan(more bool, cursor []byte) *Enc {
	return p.e.U8(rowKindEnd).U8(flag(more)).Blob(cursor)
}

// Release drops a page that will not be sent.
func (p *PageEnc) Release() { p.e.Release() }

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// pageDec walks one bulk-read page. Each page kind has one walker
// (viewPage, scanPage, searchPage), run twice over the body. The sizing
// walk, on a copy of the decoder, builds nothing: it counts the page's
// rows, values, view columns and the entries of its values' arrays into z,
// and fails wherever the decoding walk would, because it is the same walk.
// The decoding walk then reads the page with a constant number of
// allocations rather than a few per row: the body is converted to one
// string, every text a page returns is a substring of it, and values,
// column lists and text lists are cut from arrays sized once by z, with
// full slice expressions, so a caller's append to one row never writes
// into the next.
type pageDec struct {
	d      Dec
	sizing bool
	z      pageSize
	s      string // the body from base on
	base   int    // d's offset at the start of s
	vals   []nsf.Value
	cols   []string
	arena  nsf.Arena
}

// pageSize is what a page body holds: its rows, values, view columns and
// the entries of its values' arrays.
type pageSize struct {
	rows, vals, cols int
	arena            nsf.ArenaSize
}

// newPageDec starts the decoding walk of d's page, whose sizing walk
// counted z.
func newPageDec(d *Dec, z pageSize) *pageDec {
	p := &pageDec{d: *d, z: z, s: string(d.buf[d.off:]), base: d.off,
		vals: make([]nsf.Value, 0, z.vals), cols: make([]string, 0, z.cols)}
	p.arena.Grow(z.arena)
	return p
}

// add appends v to s on the decoding walk; the sizing walk counts it in n.
func add[T any](p *pageDec, s []T, n *int, v T) []T {
	if p.sizing {
		*n++
		return s
	}
	return append(s, v)
}

// sized returns an empty slice with room for n elements, nil for none, as
// appending to a nil slice leaves a page that has no rows.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// blob reads a length-prefixed byte slice, returning it both as it
// aliases the body and, on the decoding walk, as the substring of the page
// holding those bytes.
func (p *pageDec) blob() ([]byte, string) {
	b := p.d.Blob()
	if p.sizing || p.d.err != nil {
		return b, ""
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
		p.cols = add(p, p.cols, &p.z.cols, p.str())
	}
	return p.cols[start:len(p.cols):len(p.cols)]
}

// values reads one row's projected columns: a presence byte, then the
// typed value, per requested column. An absent column stays the zero
// Value, as does every column of a row truncated before it; no columns
// requested yields nil.
func (p *pageDec) values(ncols int) []nsf.Value {
	if ncols == 0 {
		return nil
	}
	start := len(p.vals)
	for j := 0; j < ncols; j++ {
		var v nsf.Value
		if p.d.Err() == nil && p.d.U8() != 0 {
			v = p.value()
		}
		p.vals = add(p, p.vals, &p.z.vals, v)
	}
	return p.vals[start:len(p.vals):len(p.vals)]
}

// value reads a typed item value appended by Enc.Value; the sizing walk
// checks it and counts its entries.
func (p *pageDec) value() nsf.Value {
	b, s := p.blob()
	if p.d.err != nil {
		return nsf.Value{}
	}
	var v nsf.Value
	var err error
	if p.sizing {
		err = p.z.arena.AddValue(b)
	} else {
		v, err = p.arena.DecodeValue(b, s)
	}
	if err != nil {
		p.d.fail("bad value: %v", err)
		return nsf.Value{}
	}
	return v
}

// decodeViewPage parses an OpViewRows response body.
func decodeViewPage(d *Dec) (ViewPage, error) {
	pre := pageDec{d: *d, sizing: true}
	if _, err := pre.viewPage(); err != nil {
		return ViewPage{}, err
	}
	return newPageDec(d, pre.z).viewPage()
}

// viewPage walks an OpViewRows response body.
func (p *pageDec) viewPage() (ViewPage, error) {
	d := &p.d
	vp := ViewPage{Total: int(d.U32()), Start: int(d.U32()), Rows: sized[ViewRow](p.z.rows)}
	for kind := d.U8(); kind != rowKindEnd; kind = d.U8() {
		var row ViewRow
		switch kind {
		case rowKindCategory:
			row.IsCategory = true
			row.Category = p.str()
			row.Indent = int(d.U32())
		case rowKindDoc:
			row.Indent = int(d.U32())
			row.UNID = d.UNID()
			row.Columns = p.columns()
		default:
			return vp, protoErrorf("bad view row kind %#x", kind)
		}
		vp.Rows = add(p, vp.Rows, &p.z.rows, row)
	}
	vp.More = d.U8() != 0
	vp.Next = int(d.U32())
	return vp, d.Err()
}

// decodeScanPage parses an OpScan response body.
func decodeScanPage(d *Dec, ncols int) (ScanPage, error) {
	pre := pageDec{d: *d, sizing: true}
	if _, err := pre.scanPage(ncols); err != nil {
		return ScanPage{}, err
	}
	return newPageDec(d, pre.z).scanPage(ncols)
}

// scanPage walks an OpScan response body.
func (p *pageDec) scanPage(ncols int) (ScanPage, error) {
	d := &p.d
	sp := ScanPage{Rows: sized[ScanRow](p.z.rows)}
	for kind := d.U8(); kind != rowKindEnd; kind = d.U8() {
		if kind != rowKindDoc {
			return sp, protoErrorf("bad scan row kind %#x", kind)
		}
		sp.Rows = add(p, sp.Rows, &p.z.rows, ScanRow{NoteID: nsf.NoteID(d.U32()), UNID: d.UNID(), Values: p.values(ncols)})
	}
	sp.More = d.U8() != 0
	// The cursor blob aliases the response buffer; copy so the page owns it.
	if cursor := d.Blob(); !p.sizing {
		sp.Cursor = append([]byte(nil), cursor...)
	}
	return sp, d.Err()
}

// decodeSearchPage parses an OpSearch response body.
func decodeSearchPage(d *Dec, ncols int) (SearchPage, error) {
	pre := pageDec{d: *d, sizing: true}
	if _, err := pre.searchPage(ncols); err != nil {
		return SearchPage{}, err
	}
	return newPageDec(d, pre.z).searchPage(ncols)
}

// searchPage walks an OpSearch response body.
func (p *pageDec) searchPage(ncols int) (SearchPage, error) {
	d := &p.d
	sp := SearchPage{Total: int(d.U32()), Start: int(d.U32()), Hits: sized[SearchHit](p.z.rows)}
	for kind := d.U8(); kind != rowKindEnd; kind = d.U8() {
		if kind != rowKindDoc {
			return sp, protoErrorf("bad search row kind %#x", kind)
		}
		sp.Hits = add(p, sp.Hits, &p.z.rows, SearchHit{UNID: d.UNID(), Score: math.Float64frombits(d.U64()), Values: p.values(ncols)})
	}
	sp.More = d.U8() != 0
	sp.Next = int(d.U32())
	return sp, d.Err()
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
	d, err := r.call(r.req(OpScan).Str(opts.Formula).U32(uint32(opts.Limit)).Columns(opts.Columns).Blob(cursor))
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
	d, err := r.call(r.req(OpSearch).Str(query).U32(uint32(start)).U32(uint32(limit)).Columns(columns))
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
