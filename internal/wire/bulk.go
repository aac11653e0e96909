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

// ViewPage is one page of a rendered view.
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

// ScanPage is one page of a bulk scan.
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

// SearchPage is one page of ranked full-text hits.
type SearchPage struct {
	Hits        []SearchHit
	Total       int
	Start, Next int
	More        bool
}

// decodeViewPage parses an OpViewRows response body.
func decodeViewPage(d *Dec) (ViewPage, error) {
	p := ViewPage{Total: int(d.U32()), Start: int(d.U32())}
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		var row ViewRow
		switch kind {
		case rowKindCategory:
			row.IsCategory = true
			row.Category = d.Str()
			row.Indent = int(d.U32())
		case rowKindDoc:
			row.Indent = int(d.U32())
			row.UNID = d.UNID()
			if cols := d.U32(); cols > 0 {
				row.Columns = make([]string, 0, d.Cap(cols, 1))
				for j := uint32(0); j < cols && d.Err() == nil; j++ {
					row.Columns = append(row.Columns, d.Str())
				}
			}
		default:
			return p, protoErrorf("bad view row kind %#x", kind)
		}
		p.Rows = append(p.Rows, row)
	}
	p.More = d.U8() != 0
	p.Next = int(d.U32())
	return p, d.Err()
}

// decValues parses one row's projected columns: a presence byte, then the
// typed value, per requested column. An absent column stays the zero Value;
// no columns requested yields nil.
func decValues(d *Dec, ncols int) []nsf.Value {
	if ncols == 0 {
		return nil
	}
	vals := make([]nsf.Value, ncols)
	for j := 0; j < ncols && d.Err() == nil; j++ {
		if d.U8() != 0 {
			vals[j] = d.Value()
		}
	}
	return vals
}

// decodeScanPage parses an OpScan response body.
func decodeScanPage(d *Dec, ncols int) (ScanPage, error) {
	var p ScanPage
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		if kind != rowKindDoc {
			return p, protoErrorf("bad scan row kind %#x", kind)
		}
		p.Rows = append(p.Rows, ScanRow{NoteID: nsf.NoteID(d.U32()), UNID: d.UNID(), Values: decValues(d, ncols)})
	}
	p.More = d.U8() != 0
	// The cursor blob aliases the response buffer; copy so the page owns it.
	p.Cursor = append([]byte(nil), d.Blob()...)
	return p, d.Err()
}

// decodeSearchPage parses an OpSearch response body. Scores travel as
// IEEE-754 bits, so zero and negative scores round-trip exactly.
func decodeSearchPage(d *Dec, ncols int) (SearchPage, error) {
	p := SearchPage{Total: int(d.U32()), Start: int(d.U32())}
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		if kind != rowKindDoc {
			return p, protoErrorf("bad search row kind %#x", kind)
		}
		p.Hits = append(p.Hits, SearchHit{UNID: d.UNID(), Score: math.Float64frombits(d.U64()), Values: decValues(d, ncols)})
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
// is exhausted or fn returns false.
func (r *RemoteDB) Scan(opts ScanOptions, fn func(ScanRow) bool) error {
	var cursor []byte
	for {
		p, err := r.ScanPage(opts, cursor)
		if err != nil {
			return err
		}
		for _, row := range p.Rows {
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
