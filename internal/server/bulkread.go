package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

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
	maxRows = s.opts.MaxPageRows * scale / 100
	maxBytes = s.opts.MaxPageBytes * scale / 100
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

// Row kind bytes framing bulk-read rows, mirroring the client decoders.
const (
	rowKindEnd      byte = 0
	rowKindDoc      byte = 1
	rowKindCategory byte = 2
)

// viewRows serves one page of a rendered view: request (handle, view name,
// start, limit), response (total, start, kind-prefixed rows, more, next).
// The explicit kind byte distinguishes category headers from documents
// structurally — a document rendering zero columns can no longer be
// mistaken for a category.
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
	resp := wire.NewResp(wire.OpViewRows, wire.StatusOK).
		U32(uint32(total)).U32(uint32(start))
	sent := 0
	for _, r := range rows {
		if sent > 0 && len(resp.Bytes()) >= maxBytes {
			break
		}
		if r.Entry == nil {
			resp.U8(rowKindCategory).Str(r.Category).U32(uint32(r.Indent))
		} else {
			resp.U8(rowKindDoc).U32(uint32(r.Indent)).UNID(r.Entry.UNID)
			resp.U32(uint32(len(r.Entry.Values)))
			for i := range r.Entry.Values {
				resp.Str(r.Entry.ColumnText(i))
			}
		}
		sent++
	}
	next := start + sent
	more := next < total
	resp.U8(rowKindEnd)
	if more {
		resp.U8(1)
	} else {
		resp.U8(0)
	}
	return resp.U32(uint32(next)), nil
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
// formula, limit, column names, cursor), response (kind-prefixed rows with
// typed projected values, more, cursor). The formula is compiled per page —
// compilation is cheap next to evaluating it over the page's documents.
func (c *connState) scan(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	formulaSrc := d.Str()
	limit := int(d.U32())
	ncols := d.U32()
	columns := make([]string, 0, d.Cap(ncols, 1))
	for i := uint32(0); i < ncols && d.Err() == nil; i++ {
		columns = append(columns, d.Str())
	}
	cursor := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	var sel *formula.Formula
	var err error
	if formulaSrc != "" {
		if sel, err = formula.Compile(formulaSrc); err != nil {
			return nil, err
		}
	}
	after, err := decodeScanCursor(cursor, c.s.opts.Name)
	if err != nil {
		return nil, err
	}
	maxRows, maxBytes := c.s.pageBudget(ctx, limit)
	resp := wire.NewResp(wire.OpScan, wire.StatusOK)
	var last nsf.NoteID
	sent, full := 0, false
	err = hs.sess.ScanFromCtx(ctx, after, sel, columns, func(n *nsf.Note) bool {
		if sent >= maxRows || (sent > 0 && len(resp.Bytes()) >= maxBytes) {
			// A selected document exists past this page, so More is true
			// even when the page filled exactly at the end of the store.
			full = true
			return false
		}
		resp.U8(rowKindDoc).U32(uint32(n.ID)).UNID(n.OID.UNID)
		for _, col := range columns {
			if n.Has(col) {
				resp.U8(1).Value(n.Get(col))
			} else {
				resp.U8(0)
			}
		}
		last = n.ID
		sent++
		return true
	})
	if err != nil {
		resp.Release()
		return nil, err
	}
	resp.U8(rowKindEnd)
	if full {
		resp.U8(1)
	} else {
		resp.U8(0)
	}
	return resp.Blob(encodeScanCursor(c.s.opts.Name, last)), nil
}

// search serves one page of ranked full-text hits: request (handle, query,
// start, limit, column names), response (total, start, kind-prefixed hits
// with IEEE-754 score bits and optional joined summary values, more, next).
// Scores travel as Float64bits — the earlier fixed-point encoding wrapped
// negative scores into huge positives.
func (c *connState) search(ctx context.Context, hs *handleState, d *wire.Dec) (*wire.Enc, error) {
	query := d.Str()
	start := int(d.U32())
	limit := int(d.U32())
	ncols := d.U32()
	columns := make([]string, 0, d.Cap(ncols, 1))
	for i := uint32(0); i < ncols && d.Err() == nil; i++ {
		columns = append(columns, d.Str())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	maxRows, maxBytes := c.s.pageBudget(ctx, limit)
	hits, total, next, err := hs.sess.SearchPageCtx(ctx, query, columns, start, maxRows)
	if err != nil {
		return nil, err
	}
	// total counts every hit but those the join skipped, all of which lie
	// between first and next, so total-first-len(hits) hits lie past next.
	first := min(start, next)
	more := first+len(hits) < total
	resp := wire.NewResp(wire.OpSearch, wire.StatusOK).
		U32(uint32(total)).U32(uint32(first))
	for i, h := range hits {
		if i > 0 && len(resp.Bytes()) >= maxBytes {
			next, more = h.Pos, true
			break
		}
		resp.U8(rowKindDoc).UNID(h.UNID).U64(math.Float64bits(h.Score))
		for _, v := range h.Values {
			if v.Type == 0 {
				resp.U8(0)
			} else {
				resp.U8(1).Value(v)
			}
		}
	}
	resp.U8(rowKindEnd)
	if more {
		resp.U8(1)
	} else {
		resp.U8(0)
	}
	return resp.U32(uint32(next)), nil
}
