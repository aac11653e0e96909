package server

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/formula"
	"repro/internal/nsf"
	"repro/internal/view"
	"repro/internal/wire"
)

func mustCompile(t *testing.T, src string) *formula.Formula {
	t.Helper()
	f, err := formula.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// newBulkServer boots one server with an explicit page budget, a database
// with a categorized view, and full text enabled.
func newBulkServer(t *testing.T, maxRows, maxBytes int) (*Server, string, *core.Database) {
	t.Helper()
	d := dir.New()
	d.AddUser(dir.User{Name: "ada", Secret: "ada-pw"})
	d.AddUser(dir.User{Name: "bob", Secret: "bob-pw"})
	s, err := New(Options{
		Name: "bulk", DataDir: filepath.Join(t.TempDir(), "bulk"),
		Directory: d, MaxPageRows: maxRows, MaxPageBytes: maxBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	db, err := s.OpenDB("apps/bulk.nsf", core.Options{Title: "bulk"})
	if err != nil {
		t.Fatal(err)
	}
	db.ACL().Set("ada", acl.Editor)
	db.ACL().Set("bob", acl.Reader)
	def, err := view.NewDefinition("by cat", "SELECT @All",
		view.Column{Title: "Category", ItemName: "Category", Categorized: true},
		view.Column{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddView(nil, def); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	return s, addr, db
}

// seedBulk creates docs spread over categories; every second one carries a
// reader field restricting it to ada.
func seedBulk(t *testing.T, db *core.Database, docs int) {
	t.Helper()
	sess := db.Session("ada")
	for i := 0; i < docs; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Category", fmt.Sprintf("cat-%d", i%3))
		n.SetText("Subject", fmt.Sprintf("doc %04d", i))
		n.SetText("Body", fmt.Sprintf("body words %d", i))
		if i%2 == 0 {
			n.SetWithFlags("DocReaders", nsf.TextValue("ada"), nsf.FlagReaders|nsf.FlagSummary)
		}
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
	}
}

// rowKey flattens a view row (local or remote) for comparison.
func remoteRowKey(r wire.ViewRow) string {
	if r.IsCategory {
		return fmt.Sprintf("cat|%s|%d", r.Category, r.Indent)
	}
	return fmt.Sprintf("doc|%s|%d|%s", r.UNID, r.Indent, strings.Join(r.Columns, "\x00"))
}

func localRowKey(r view.Row) string {
	if r.Entry == nil {
		return fmt.Sprintf("cat|%s|%d", r.Category, r.Indent)
	}
	cols := make([]string, len(r.Entry.Values))
	for i := range cols {
		cols[i] = r.Entry.ColumnText(i)
	}
	return fmt.Sprintf("doc|%s|%d|%s", r.Entry.UNID, r.Indent, strings.Join(cols, "\x00"))
}

// TestViewPagesMatchLocalSession renders a categorized view through many
// small wire pages and checks the reassembled stream row-for-row against
// the local Session rendering — for the editor and for a reader whose
// reader-field filtering must hold identically on both paths.
func TestViewPagesMatchLocalSession(t *testing.T) {
	_, addr, db := newBulkServer(t, 16, 0) // smallest allowed pages force many round trips
	seedBulk(t, db, 50)

	for _, user := range []string{"ada", "bob"} {
		c, err := wire.Dial(addr, user, user+"-pw")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rdb, err := c.OpenDB("apps/bulk.nsf")
		if err != nil {
			t.Fatal(err)
		}
		remote, err := rdb.ViewRows("by cat")
		if err != nil {
			t.Fatalf("ViewRows as %s: %v", user, err)
		}
		local, err := db.Session(user).Rows("by cat")
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, r := range local {
			if r.GrandTotal {
				continue // synthetic totals row is not part of the wire stream
			}
			want = append(want, localRowKey(r))
		}
		got := make([]string, len(remote))
		for i, r := range remote {
			got[i] = remoteRowKey(r)
		}
		if len(got) != len(want) {
			t.Fatalf("as %s: wire rows %d, local rows %d", user, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("as %s row %d: wire %q, local %q", user, i, got[i], want[i])
			}
		}
		if user == "bob" {
			// Reader-field filtering actually removed rows for bob.
			adaRows, _ := db.Session("ada").Rows("by cat")
			if len(local) >= len(adaRows) {
				t.Errorf("reader filtering inert: bob %d rows, ada %d", len(local), len(adaRows))
			}
		}
	}
}

// TestViewPageByteBudget streams rows big enough that the byte budget, not
// the row cap, closes each page — and a single row larger than the budget
// still travels (a page always carries at least one row).
func TestViewPageByteBudget(t *testing.T) {
	_, addr, db := newBulkServer(t, 0, 1) // byte budget floors at minPageBytes (64 KiB)
	sess := db.Session("ada")
	big := strings.Repeat("x", 24<<10)
	const docs = 12
	for i := 0; i < docs; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("%04d %s", i, big))
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	c, err := wire.Dial(addr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB("apps/bulk.nsf")
	if err != nil {
		t.Fatal(err)
	}
	pages, rows := 0, 0
	for start := 0; ; {
		p, err := rdb.ViewPage("by cat", start, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Rows) == 0 {
			t.Fatal("empty page: paginated reader cannot make progress")
		}
		pages++
		for _, r := range p.Rows {
			if !r.IsCategory {
				rows++
			}
		}
		if !p.More {
			break
		}
		start = p.Next
	}
	if rows != docs {
		t.Errorf("streamed %d document rows, want %d", rows, docs)
	}
	// 12 docs x 24 KiB against a 64 KiB budget: at least 4 pages.
	if pages < 4 {
		t.Errorf("byte budget inert: %d pages for %d KiB of rows", pages, docs*24)
	}
}

// TestScanCursorResumesAcrossReconnect takes one scan page, drops the
// connection entirely, and resumes from the cursor on a fresh session:
// every document arrives exactly once.
func TestScanCursorResumesAcrossReconnect(t *testing.T) {
	// 16 is minPageRows, the smallest page the budget floor allows.
	_, addr, db := newBulkServer(t, 16, 0)
	seedBulk(t, db, 40)

	opts := wire.ScanOptions{Columns: []string{"Subject"}}
	c1, err := wire.Dial(addr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	rdb1, err := c1.OpenDB("apps/bulk.nsf")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := rdb1.ScanPage(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.More || len(p1.Rows) != 16 {
		t.Fatalf("first page = %d rows, more=%v", len(p1.Rows), p1.More)
	}
	c1.Close()

	seen := map[nsf.UNID]bool{}
	for _, r := range p1.Rows {
		seen[r.UNID] = true
	}
	c2, err := wire.Dial(addr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rdb2, err := c2.OpenDB("apps/bulk.nsf")
	if err != nil {
		t.Fatal(err)
	}
	cursor := p1.Cursor
	for {
		p, err := rdb2.ScanPage(opts, cursor)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range p.Rows {
			if seen[r.UNID] {
				t.Errorf("document %s delivered twice across resume", r.UNID)
			}
			seen[r.UNID] = true
		}
		if !p.More {
			break
		}
		cursor = p.Cursor
	}
	if len(seen) != 40 {
		t.Errorf("scan delivered %d distinct documents, want 40", len(seen))
	}
}

// TestScanCursorBoundToServer rejects cursors minted elsewhere or
// malformed: NoteIDs are per-physical-copy.
func TestScanCursorBoundToServer(t *testing.T) {
	if _, err := decodeScanCursor(encodeScanCursor("other", 7), "bulk"); err == nil {
		t.Error("foreign cursor accepted")
	}
	if id, err := decodeScanCursor(encodeScanCursor("bulk", 7), "bulk"); err != nil || id != 7 {
		t.Errorf("own cursor = (%d, %v)", id, err)
	}
	if id, err := decodeScanCursor(nil, "bulk"); err != nil || id != 0 {
		t.Errorf("empty cursor = (%d, %v)", id, err)
	}
	for _, bad := range [][]byte{{99}, {scanCursorVersion, 200, 1}, {scanCursorVersion}} {
		if _, err := decodeScanCursor(bad, "bulk"); err == nil {
			t.Errorf("malformed cursor %v accepted", bad)
		}
	}
}

// TestScanFormulaProjectionAndACL runs a selection formula with a typed
// projection over the wire, for the editor and for the reader-restricted
// user.
func TestScanFormulaProjectionAndACL(t *testing.T) {
	_, addr, db := newBulkServer(t, 0, 0)
	seedBulk(t, db, 30)

	opts := wire.ScanOptions{
		Formula: `SELECT Category = "cat-1"`,
		Columns: []string{"Subject", "NoSuchItem"},
	}
	for _, user := range []string{"ada", "bob"} {
		c, err := wire.Dial(addr, user, user+"-pw")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rdb, err := c.OpenDB("apps/bulk.nsf")
		if err != nil {
			t.Fatal(err)
		}
		var got []wire.ScanRow
		if err := rdb.Scan(opts, func(r wire.ScanRow) bool {
			got = append(got, r)
			return true
		}); err != nil {
			t.Fatalf("Scan as %s: %v", user, err)
		}
		// The local baseline: same formula, same user.
		want := map[nsf.UNID]string{}
		sel := mustCompile(t, opts.Formula)
		if err := db.Session(user).ScanFrom(0, sel, func(n *nsf.Note) bool {
			want[n.OID.UNID] = n.Text("Subject")
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("as %s: wire scan %d docs, local %d", user, len(got), len(want))
		}
		for _, r := range got {
			if r.Values[0].String() != want[r.UNID] {
				t.Errorf("as %s: projected subject %q, want %q", user, r.Values[0].String(), want[r.UNID])
			}
			if r.Values[1].Type != 0 {
				t.Errorf("missing item projected as type %d, want absent", r.Values[1].Type)
			}
		}
	}
	// bob must see strictly fewer cat-1 docs than ada (reader fields).
	countFor := func(user string) int {
		n := 0
		sel := mustCompile(t, opts.Formula)
		db.Session(user).ScanFrom(0, sel, func(*nsf.Note) bool { n++; return true })
		return n
	}
	if countFor("bob") >= countFor("ada") {
		t.Error("reader-field filtering inert on scan path")
	}
}

// TestSearchPagesWithColumns pages ranked hits with joined summary columns
// over the wire and cross-checks against the local session.
func TestSearchPagesWithColumns(t *testing.T) {
	_, addr, db := newBulkServer(t, 0, 0)
	seedBulk(t, db, 30)

	c, err := wire.Dial(addr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB("apps/bulk.nsf")
	if err != nil {
		t.Fatal(err)
	}
	// Page through with limit 4 and joined columns.
	var hits []wire.SearchHit
	total := -1
	for start := 0; ; {
		p, err := rdb.SearchPage("body", []string{"Subject", "Ghost"}, start, 4)
		if err != nil {
			t.Fatal(err)
		}
		if total == -1 {
			total = p.Total
		} else if p.Total != total {
			t.Errorf("total drifted: %d then %d", total, p.Total)
		}
		if len(p.Hits) > 4 {
			t.Errorf("page of %d hits exceeds limit 4", len(p.Hits))
		}
		hits = append(hits, p.Hits...)
		if !p.More {
			break
		}
		start = p.Next
	}
	local, err := db.Session("ada").SearchJoined("body", []string{"Subject", "Ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(local) || total != len(local) {
		t.Fatalf("wire %d hits (total %d), local %d", len(hits), total, len(local))
	}
	for i, h := range hits {
		if h.UNID != local[i].UNID || h.Score != local[i].Score {
			t.Errorf("hit %d = (%s, %g), local (%s, %g)", i, h.UNID, h.Score, local[i].UNID, local[i].Score)
		}
		if h.Values[0].String() != local[i].Values[0].String() {
			t.Errorf("hit %d joined subject %q, local %q", i, h.Values[0].String(), local[i].Values[0].String())
		}
		if h.Values[1].Type != 0 {
			t.Errorf("hit %d ghost column type %d, want absent", i, h.Values[1].Type)
		}
	}
	// ACL: bob's wire search must match bob's local search, and be smaller.
	cb, err := wire.Dial(addr, "bob", "bob-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	rdbB, err := cb.OpenDB("apps/bulk.nsf")
	if err != nil {
		t.Fatal(err)
	}
	bobHits, err := rdbB.Search("body")
	if err != nil {
		t.Fatal(err)
	}
	bobLocal, err := db.Session("bob").Search("body")
	if err != nil {
		t.Fatal(err)
	}
	if len(bobHits) != len(bobLocal) || len(bobHits) >= len(hits) {
		t.Errorf("bob: wire %d, local %d, ada %d", len(bobHits), len(bobLocal), len(hits))
	}
}

// TestSearchEmptyQueryOverWire: stopword-only and empty queries return no
// hits and no error, end to end.
func TestSearchEmptyQueryOverWire(t *testing.T) {
	_, addr, db := newBulkServer(t, 0, 0)
	seedBulk(t, db, 5)
	c, err := wire.Dial(addr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB("apps/bulk.nsf")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"", "the", "the of and", "..."} {
		hits, err := rdb.Search(q)
		if err != nil {
			t.Errorf("Search(%q) error: %v", q, err)
		}
		if len(hits) != 0 {
			t.Errorf("Search(%q) = %d hits, want 0", q, len(hits))
		}
	}
	// A malformed query is still an error.
	if _, err := rdb.Search(`"unterminated`); err == nil {
		t.Error("malformed query accepted over wire")
	}
}

// TestSearchPagesAcrossASkippedHit: a hit whose document was deleted after
// the refresh barrier is skipped by the join, and paging still reaches
// every other hit — More stays true while hits remain past Next, although
// the skip left Next equal to Total.
func TestSearchPagesAcrossASkippedHit(t *testing.T) {
	_, addr, db := newBulkServer(t, 0, 0)
	seedBulk(t, db, 30)
	sess := db.Session("ada")
	local, err := sess.SearchJoined("body", []string{"Subject"})
	if err != nil || len(local) < 4 {
		t.Fatalf("SearchJoined = %d hits, %v", len(local), err)
	}
	// Delete the document behind hit 2, then put it back in the index as if
	// the delete had landed after the barrier.
	victim, err := sess.Get(local[2].UNID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Delete(victim.OID.UNID); err != nil {
		t.Fatal(err)
	}
	db.Refresh()
	db.FullText().Update(victim)

	c, err := wire.Dial(addr, "ada", "ada-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB("apps/bulk.nsf")
	if err != nil {
		t.Fatal(err)
	}
	limit := len(local) - 2
	var got []wire.SearchHit
	for start := 0; ; {
		p, err := rdb.SearchPage("body", []string{"Subject"}, start, limit)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p.Hits...)
		if !p.More {
			break
		}
		start = p.Next
	}
	if len(got) != len(local)-1 {
		t.Fatalf("paged %d hits, want %d (all but the deleted one)", len(got), len(local)-1)
	}
	for _, h := range got {
		if h.UNID == victim.OID.UNID {
			t.Fatal("the deleted document's hit was served")
		}
	}
}
