package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nsf"
)

// respBody strips the op/status prefix a response Enc carries, yielding
// the payload a client-side decoder sees.
func respBody(e *Enc) []byte { return append([]byte(nil), e.Bytes()[2:]...) }

func TestViewPageDecode(t *testing.T) {
	u1, u2 := nsf.NewUNID(), nsf.NewUNID()
	e := NewResp(OpViewRows, StatusOK).U32(42).U32(7)
	e.U8(2).Str("Projects").U32(0) // category header
	e.U8(1).U32(1).UNID(u1).U32(2).Str("alpha").Str("x")
	e.U8(1).U32(1).UNID(u2).U32(0) // doc legitimately rendering zero columns
	e.U8(0)                        // end sentinel
	e.U8(1).U32(10)                // more, next
	p, err := decodeViewPage(NewDec(respBody(e)))
	if err != nil {
		t.Fatal(err)
	}
	want := ViewPage{
		Rows: []ViewRow{
			{IsCategory: true, Category: "Projects"},
			{Indent: 1, UNID: u1, Columns: []string{"alpha", "x"}},
			{Indent: 1, UNID: u2},
		},
		Total: 42, Start: 7, Next: 10, More: true,
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("page = %+v, want %+v", p, want)
	}
	// The kind byte keeps the zero-column document a document.
	if p.Rows[2].IsCategory {
		t.Error("zero-column document decoded as category")
	}
}

func TestViewPageBadKind(t *testing.T) {
	e := NewResp(OpViewRows, StatusOK).U32(1).U32(0).U8(9)
	if _, err := decodeViewPage(NewDec(respBody(e))); err == nil {
		t.Error("bad row kind accepted")
	}
}

func TestScanPageDecode(t *testing.T) {
	u := nsf.NewUNID()
	e := NewResp(OpScan, StatusOK)
	e.U8(1).U32(33).UNID(u)
	e.U8(1).Value(nsf.TextValue("hello"))
	e.U8(0) // absent projected column
	e.U8(0) // end sentinel
	e.U8(1).Blob([]byte("cursor-bytes"))
	p, err := decodeScanPage(NewDec(respBody(e)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 1 || !p.More || string(p.Cursor) != "cursor-bytes" {
		t.Fatalf("page = %+v", p)
	}
	r := p.Rows[0]
	if r.NoteID != 33 || r.UNID != u {
		t.Errorf("row identity = %+v", r)
	}
	if r.Values[0].String() != "hello" || r.Values[0].Type != nsf.TypeText {
		t.Errorf("projected value = %+v", r.Values[0])
	}
	if r.Values[1].Type != 0 {
		t.Errorf("absent column has type %d, want 0", r.Values[1].Type)
	}
}

// TestSearchScoreRoundTrip pins the score encoding: IEEE-754 bits, so
// negative and zero scores survive the wire. The earlier fixed-point
// u64(score*1e6) encoding wrapped negatives into huge positives.
func TestSearchScoreRoundTrip(t *testing.T) {
	scores := []float64{2.5, 0, -3.75, 1e-9, -1e-9, math.MaxFloat64}
	e := NewResp(OpSearch, StatusOK).U32(uint32(len(scores))).U32(0)
	us := make([]nsf.UNID, len(scores))
	for i, s := range scores {
		us[i] = nsf.NewUNID()
		e.U8(1).UNID(us[i]).U64(math.Float64bits(s))
	}
	e.U8(0).U8(0).U32(uint32(len(scores)))
	p, err := decodeSearchPage(NewDec(respBody(e)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hits) != len(scores) || p.More {
		t.Fatalf("page = %+v", p)
	}
	for i, h := range p.Hits {
		if h.UNID != us[i] || h.Score != scores[i] {
			t.Errorf("hit %d = (%v, %v), want (%v, %v)", i, h.UNID, h.Score, us[i], scores[i])
		}
	}
}

func TestSearchPageJoinedColumns(t *testing.T) {
	u := nsf.NewUNID()
	e := NewResp(OpSearch, StatusOK).U32(1).U32(0)
	e.U8(1).UNID(u).U64(math.Float64bits(1.5))
	e.U8(1).Value(nsf.TextValue("joined"))
	e.U8(0) // absent column
	e.U8(0).U8(0).U32(1)
	p, err := decodeSearchPage(NewDec(respBody(e)), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Hits[0]
	if h.Values[0].String() != "joined" || h.Values[1].Type != 0 {
		t.Errorf("joined values = %+v", h.Values)
	}
}

// TestPageEncodersRoundTrip: the pages PageEnc builds decode to what was
// put in, and Room keeps the page budget: a first row always, then rows
// while the page is under both its row cap and its byte cap.
func TestPageEncodersRoundTrip(t *testing.T) {
	u := nsf.NewUNID()
	view := NewViewPage(9, 4, 10, 1<<20)
	view.Category("cat", 0)
	view.Doc(1, u, []nsf.Value{nsf.TextValue("a"), nsf.TextValue("b", "c")})
	vp, err := decodeViewPage(NewDec(respBody(view.End(true, 6))))
	wantView := ViewPage{Rows: []ViewRow{{IsCategory: true, Category: "cat"}, {Indent: 1, UNID: u, Columns: []string{"a", nsf.TextValue("b", "c").String()}}},
		Total: 9, Start: 4, Next: 6, More: true}
	if err != nil || !reflect.DeepEqual(vp, wantView) {
		t.Errorf("view page = %+v (%v), want %+v", vp, err, wantView)
	}
	scan := NewScanPage(10, 1<<20)
	scan.ScanRow(7, u)
	scan.Value(nsf.TextValue("v"))
	scan.NoValue()
	sp, err := decodeScanPage(NewDec(respBody(scan.EndScan(false, []byte("c")))), 2)
	if err != nil || len(sp.Rows) != 1 || sp.Rows[0].NoteID != 7 || sp.Rows[0].Values[0].String() != "v" ||
		sp.Rows[0].Values[1].Type != 0 || sp.More || string(sp.Cursor) != "c" {
		t.Errorf("scan page = %+v (%v)", sp, err)
	}
	search := NewSearchPage(10, 1<<20)
	search.Hit(u, -1.5)
	search.StoredValue(nsf.AppendValue(nil, nsf.TextValue("s")))
	hp, err := decodeSearchPage(NewDec(respBody(search.EndSearch(5, 2, true, 3))), 1)
	if err != nil || len(hp.Hits) != 1 || hp.Hits[0].Score != -1.5 || hp.Hits[0].Values[0].String() != "s" ||
		hp.Total != 5 || hp.Start != 2 || !hp.More || hp.Next != 3 {
		t.Errorf("search page = %+v (%v)", hp, err)
	}
	for name, page := range map[string]PageEnc{"byte cap": NewScanPage(10, 1), "row cap": NewScanPage(1, 1<<20)} {
		if !page.Room() {
			t.Errorf("%s: no room for a first row", name)
		}
		page.ScanRow(1, u)
		if page.Room() {
			t.Errorf("%s: room for a second row", name)
		}
		page.Release()
	}
}

// TestUntrustedCountsClamped sends bodies whose leading counts claim
// astronomically more elements than the body carries. Decoders must fail
// cleanly without attempting a count-sized allocation.
func TestUntrustedCountsClamped(t *testing.T) {
	// View row claiming 4 billion columns.
	e := NewResp(OpViewRows, StatusOK).U32(1).U32(0)
	e.U8(1).U32(0).UNID(nsf.NewUNID()).U32(0xFFFFFFFF)
	if _, err := decodeViewPage(NewDec(respBody(e))); err == nil {
		t.Error("truncated view row accepted")
	}

	// Dec.Cap is the clamp every count-sized make() goes through.
	d := NewDec(make([]byte, 64))
	if got := d.Cap(0xFFFFFFFF, 33); got > 64 {
		t.Errorf("Cap(huge, 33) = %d", got)
	}
	if got := d.Cap(2, 16); got != 2 {
		t.Errorf("Cap(2, 16) = %d, want 2", got)
	}
}

// FuzzDecodeBulkPages throws arbitrary bodies at the three bulk-read
// decoders: they must never panic, must agree with a reference decoder
// that reads every string with Dec.Str and every value with nsf.DecodeValue
// of its blob, and must make a number of allocations that grows with the
// logarithm of the body, never with its rows.
func FuzzDecodeBulkPages(f *testing.F) {
	u := nsf.NewUNID()
	view := NewResp(OpViewRows, StatusOK).U32(3).U32(0)
	view.U8(2).Str("cat").U32(0)
	view.U8(1).U32(1).UNID(u).U32(1).Str("col")
	view.U8(0).U8(0).U32(2)
	f.Add(respBody(view))
	scan := NewResp(OpScan, StatusOK)
	scan.U8(1).U32(7).UNID(u).U8(1).Value(nsf.TextValue("v")).U8(0).U8(0).Blob([]byte("c"))
	f.Add(respBody(scan))
	search := NewResp(OpSearch, StatusOK).U32(1).U32(0)
	search.U8(1).UNID(u).U64(math.Float64bits(-1.5)).U8(0).U8(0).U32(1)
	f.Add(respBody(search))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, body []byte) {
		vp, verr := decodeViewPage(NewDec(append([]byte(nil), body...)))
		wvp, wverr := refViewPage(NewDec(body))
		if (verr == nil) != (wverr == nil) || verr == nil && !reflect.DeepEqual(vp, wvp) {
			t.Fatalf("view page (%v) differs from the reference (%v):\n got %+v\nwant %+v", verr, wverr, vp, wvp)
		}
		sp, serr := decodeScanPage(NewDec(append([]byte(nil), body...)), 2)
		wsp, wserr := refScanPage(NewDec(body), 2)
		if (serr == nil) != (wserr == nil) || serr == nil && !scanPagesEqual(sp, wsp) {
			t.Fatalf("scan page (%v) differs from the reference (%v):\n got %+v\nwant %+v", serr, wserr, sp, wsp)
		}
		hp, herr := decodeSearchPage(NewDec(append([]byte(nil), body...)), 1)
		whp, wherr := refSearchPage(NewDec(body), 1)
		if (herr == nil) != (wherr == nil) || herr == nil && !searchPagesEqual(hp, whp) {
			t.Fatalf("search page (%v) differs from the reference (%v):\n got %+v\nwant %+v", herr, wherr, hp, whp)
		}
		if raceEnabled {
			return // the race detector adds bookkeeping allocations
		}
		ceiling := 48 + 8*float64(bits.Len(uint(len(body))))
		for name, decode := range map[string]func(){
			"view":   func() { decodeViewPage(NewDec(body)) },
			"scan":   func() { decodeScanPage(NewDec(body), 2) },
			"search": func() { decodeSearchPage(NewDec(body), 1) },
		} {
			if allocs := testing.AllocsPerRun(1, decode); allocs > ceiling {
				t.Fatalf("%s page of %d bytes: %.0f allocations, ceiling %.0f", name, len(body), allocs, ceiling)
			}
		}
	})
}

// refViewPage, refScanPage and refSearchPage decode a page the plain way,
// a string and a value at a time: the reference the page decoders must
// match.
func refViewPage(d *Dec) (ViewPage, error) {
	p := ViewPage{Total: int(d.U32()), Start: int(d.U32())}
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		var row ViewRow
		switch kind {
		case rowKindCategory:
			row.IsCategory, row.Category, row.Indent = true, d.Str(), int(d.U32())
		case rowKindDoc:
			row.Indent = int(d.U32())
			row.UNID = d.UNID()
			if cols := d.U32(); cols > 0 {
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

func refValues(d *Dec, ncols int) []nsf.Value {
	vals := make([]nsf.Value, ncols)
	for j := 0; j < ncols && d.Err() == nil; j++ {
		if d.U8() != 0 {
			vals[j] = d.Value()
		}
	}
	return vals
}

func refScanPage(d *Dec, ncols int) (ScanPage, error) {
	var p ScanPage
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		if kind != rowKindDoc {
			return p, protoErrorf("bad scan row kind %#x", kind)
		}
		p.Rows = append(p.Rows, ScanRow{NoteID: nsf.NoteID(d.U32()), UNID: d.UNID(), Values: refValues(d, ncols)})
	}
	p.More = d.U8() != 0
	p.Cursor = append([]byte(nil), d.Blob()...)
	return p, d.Err()
}

func refSearchPage(d *Dec, ncols int) (SearchPage, error) {
	p := SearchPage{Total: int(d.U32()), Start: int(d.U32())}
	for d.Err() == nil {
		kind := d.U8()
		if kind == rowKindEnd || d.Err() != nil {
			break
		}
		if kind != rowKindDoc {
			return p, protoErrorf("bad search row kind %#x", kind)
		}
		p.Hits = append(p.Hits, SearchHit{UNID: d.UNID(), Score: math.Float64frombits(d.U64()), Values: refValues(d, ncols)})
	}
	p.More = d.U8() != 0
	p.Next = int(d.U32())
	return p, d.Err()
}

func valuesEqual(a, b []nsf.Value) bool {
	return slices.EqualFunc(a, b, func(x, y nsf.Value) bool { return x.Type == y.Type && x.Equal(y) })
}

func scanPagesEqual(a, b ScanPage) bool {
	return a.More == b.More && bytes.Equal(a.Cursor, b.Cursor) && slices.EqualFunc(a.Rows, b.Rows, func(x, y ScanRow) bool {
		return x.NoteID == y.NoteID && x.UNID == y.UNID && valuesEqual(x.Values, y.Values)
	})
}

func searchPagesEqual(a, b SearchPage) bool {
	return a.Total == b.Total && a.Start == b.Start && a.Next == b.Next && a.More == b.More &&
		slices.EqualFunc(a.Hits, b.Hits, func(x, y SearchHit) bool {
			return x.UNID == y.UNID && math.Float64bits(x.Score) == math.Float64bits(y.Score) && valuesEqual(x.Values, y.Values)
		})
}

// maxPageDecodeAllocs is the ceiling on allocations for decoding one bulk
// page, whatever its row count: the page string, the page decoder, the
// cursor, and one array each for the rows, values, columns and text, sized
// by the pre-pass.
const maxPageDecodeAllocs = 8

// scanPageBody encodes a scan page of rows two-column rows.
func scanPageBody(rows int) []byte {
	u := nsf.NewUNID()
	scan := NewResp(OpScan, StatusOK)
	for i := 0; i < rows; i++ {
		scan.U8(1).U32(uint32(i + 1)).UNID(u)
		scan.U8(1).Value(nsf.TextValue(fmt.Sprintf("subject %d", i)))
		scan.U8(1).Value(nsf.TextValue("ada", "bob"))
	}
	scan.U8(0).U8(1).Blob([]byte("cursor"))
	return respBody(scan)
}

// TestPageDecodeAllocsDoNotGrowWithRows decodes a 10-row and a 1,000-row
// two-column scan page with the same number of allocations, and a 100-row
// view page, all within maxPageDecodeAllocs; a decoder that allocates per
// row or per value makes thousands, and one that grows its arrays makes
// more at 1,000 rows than at 10.
func TestPageDecodeAllocsDoNotGrowWithRows(t *testing.T) {
	u := nsf.NewUNID()
	smallScan, scanBody := scanPageBody(10), scanPageBody(1000)
	view := NewResp(OpViewRows, StatusOK).U32(5000).U32(0)
	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			view.U8(2).Str(fmt.Sprintf("category %d", i)).U32(0)
			continue
		}
		view.U8(1).U32(1).UNID(u).U32(3).Str(fmt.Sprintf("row %d", i)).Str("ada").Str("2026-10-17")
	}
	view.U8(0).U8(1).U32(100)
	viewBody := respBody(view)
	counts := map[string]float64{}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"10-row scan page", func() error {
			p, err := decodeScanPage(NewDec(smallScan), 2)
			if err == nil && len(p.Rows) != 10 {
				err = fmt.Errorf("decoded %d rows", len(p.Rows))
			}
			return err
		}},
		{"1000-row scan page", func() error {
			p, err := decodeScanPage(NewDec(scanBody), 2)
			if err == nil && (len(p.Rows) != 1000 || p.Rows[999].Values[0].Text[0] != "subject 999") {
				err = fmt.Errorf("decoded %d rows", len(p.Rows))
			}
			return err
		}},
		{"100-row view page", func() error {
			p, err := decodeViewPage(NewDec(viewBody))
			if err == nil && (len(p.Rows) != 100 || p.Rows[99].Columns[0] != "row 99") {
				err = fmt.Errorf("decoded %d rows", len(p.Rows))
			}
			return err
		}},
	} {
		if err := tc.decode(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(100, func() { tc.decode() })
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > maxPageDecodeAllocs {
			t.Errorf("%s: %.0f allocations, ceiling %d", tc.name, allocs, maxPageDecodeAllocs)
		}
		counts[tc.name] = allocs
	}
	if small, large := counts["10-row scan page"], counts["1000-row scan page"]; small != large {
		t.Errorf("scan page allocations: %.0f at 10 rows, %.0f at 1000", small, large)
	}
}

// TestPageRowsDoNotShareSpare: a caller appending to one row's values or
// columns gets a copy, never a write into the next row's.
func TestPageRowsDoNotShareSpare(t *testing.T) {
	u := nsf.NewUNID()
	scan := NewResp(OpScan, StatusOK)
	for i := 0; i < 3; i++ {
		scan.U8(1).U32(uint32(i + 1)).UNID(u).U8(1).Value(nsf.TextValue("a", "b")).U8(1).Value(nsf.NumberValue(float64(i)))
	}
	scan.U8(0).U8(0).Blob(nil)
	p, err := decodeScanPage(NewDec(respBody(scan)), 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(p.Rows[0].Values, nsf.TextValue("clobber"))
	_ = append(p.Rows[0].Values[0].Text, "clobber")
	_ = append(p.Rows[0].Values[1].Numbers, 99)
	if p.Rows[1].Values[0].Text[0] != "a" || p.Rows[1].Values[1].Numbers[0] != 1 {
		t.Errorf("an append to row 0 wrote into row 1: %+v", p.Rows[1].Values)
	}
	view := NewResp(OpViewRows, StatusOK).U32(2).U32(0)
	view.U8(1).U32(0).UNID(u).U32(1).Str("x")
	view.U8(1).U32(0).UNID(u).U32(1).Str("y")
	view.U8(0).U8(0).U32(2)
	vp, err := decodeViewPage(NewDec(respBody(view)))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(vp.Rows[0].Columns, "clobber")
	if vp.Rows[1].Columns[0] != "y" {
		t.Errorf("an append to row 0's columns wrote into row 1: %q", vp.Rows[1].Columns)
	}
}

// TestScanStopsOnAPageThatDoesNotAdvance: RemoteDB.Scan against a server
// whose pages say More without moving on — no rows, the same rows again,
// or a cursor that restarts the scan — returns a protocol error instead
// of paging forever.
func TestScanStopsOnAPageThatDoesNotAdvance(t *testing.T) {
	u := nsf.NewUNID()
	pages := map[string]func(page int) *Enc{
		"no rows": func(int) *Enc {
			return NewResp(OpScan, StatusOK).U8(0).U8(1).Blob([]byte("c"))
		},
		"same cursor": func(int) *Enc {
			return NewResp(OpScan, StatusOK).U8(1).U32(5).UNID(u).U8(0).U8(1).Blob([]byte("c"))
		},
		"restarted": func(page int) *Enc {
			return NewResp(OpScan, StatusOK).U8(1).U32(uint32(1 + page%2)).UNID(u).U8(0).U8(1).Blob([]byte{byte(page)})
		},
	}
	for name, page := range pages {
		t.Run(name, func(t *testing.T) {
			var served atomic.Int32
			addr := scriptServer(t, func(conn net.Conn, _ int, payload []byte) bool {
				if Op(payload[0]) == OpOpenDB {
					return openOK(conn, payload)
				}
				return WriteFrame(conn, page(int(served.Add(1))).Bytes()) == nil
			})
			c, err := DialOptions(addr, "u", "s", noRetryOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			db, err := c.OpenDB("x.nsf")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- db.Scan(ScanOptions{}, func(ScanRow) bool { return true }) }()
			select {
			case err := <-done:
				var pe *protoError
				if !errors.As(err, &pe) {
					t.Errorf("Scan returned %v, want a protocol error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Scan still paging after %d pages", served.Load())
			}
		})
	}
}
