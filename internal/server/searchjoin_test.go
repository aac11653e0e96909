package server

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/store"
	"repro/internal/wire"
)

// refJoinPage is the search join as it was before hits were read as
// projected records: from position start until limit hits have joined
// (limit <= 0: to the end), each hit's whole note loaded through load
// (Session.Get), a hit whose load fails skipped, and each column read with
// Note.Get. With no columns nothing is loaded.
func refJoinPage(hits []ft.Result, start, limit int, columns []string, load func(nsf.UNID) (*nsf.Note, error)) (page []ft.HitSummary, next, skipped int) {
	start = min(max(start, 0), len(hits))
	if limit <= 0 {
		limit = len(hits)
	}
	next = start
	for ; next < len(hits) && len(page) < limit; next++ {
		h := ft.HitSummary{Result: hits[next], Pos: next}
		if len(columns) > 0 {
			n, err := load(h.UNID)
			if err != nil {
				skipped++
				continue
			}
			h.Values = make([]nsf.Value, len(columns))
			for i, c := range columns {
				if n.Has(c) {
					h.Values[i] = n.Get(c)
				}
			}
		}
		page = append(page, h)
	}
	return page, next, skipped
}

// refSearchPage is one search page joined by refJoinPage over sess.Get.
func refSearchPage(t *testing.T, sess *core.Session, query string, columns []string, start, limit int) (hits []ft.HitSummary, total, next int) {
	t.Helper()
	all, err := sess.SearchCtx(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	hits, next, skipped := refJoinPage(all, start, limit, columns, sess.Get)
	return hits, len(all) - skipped, next
}

// hitKey renders a hit for comparison: its UNID, its score's bits and each
// column's encoding, with an absent or untyped column as "-" (the wire
// sends both as absent).
func hitKey(unid nsf.UNID, score float64, values []nsf.Value) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %x", unid, math.Float64bits(score))
	for _, v := range values {
		if v.Type == 0 {
			b.WriteString(" -")
		} else {
			b.WriteString(" " + hex.EncodeToString(nsf.AppendValue(nil, v)))
		}
	}
	return b.String()
}

func summaryKeys(hits []ft.HitSummary) []string {
	keys := make([]string, len(hits))
	for i, h := range hits {
		keys[i] = hitKey(h.UNID, h.Score, h.Values)
	}
	return keys
}

func wireKeys(hits []wire.SearchHit) []string {
	keys := make([]string, len(hits))
	for i, h := range hits {
		keys[i] = hitKey(h.UNID, h.Score, h.Values)
	}
	return keys
}

func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d hits, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: hit %d is\n  %s\nwant\n  %s", what, i, got[i], want[i])
		}
	}
}

// joinColumns names every kind of column a hit can join: names in another
// case than the item's, multi-valued text, number and time items, an item
// two items share (the first wins), an untyped item followed by a typed one
// of the same name, and an item no document has.
var joinColumns = []string{"subject", "BODY", "Tags", "Scores", "When", "Dup", "Empty", "Ghost"}

// seedJoinCorpus fills the bulk database with hits of every kind: open,
// Readers-restricted, readable through an Authors item, records chained
// over several pages, documents updated since creation, and — as if each
// change landed after a search's refresh barrier — documents stubbed, hard
// deleted or restricted after the index last saw them. It returns every
// document created.
func seedJoinCorpus(t *testing.T, db *core.Database, docs int) []nsf.UNID {
	t.Helper()
	sess := db.Session("ada")
	var unids []nsf.UNID
	for i := 0; i < docs; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetWithFlags("Subject", nsf.TextValue(fmt.Sprintf("join %02d", i)), nsf.FlagSummary)
		body := fmt.Sprintf("needle %d", i)
		if i%2 == 0 {
			body = strings.Repeat(fmt.Sprintf("needle hay%02d ", i), 3*store.PageSize/10) // a chained record
		}
		n.SetText("Body", body)
		n.SetText("Tags", "t", fmt.Sprintf("t%d", i))
		n.SetNumber("Scores", float64(i), -float64(i)/3)
		n.SetTime("When", nsf.Timestamp(i*1000), nsf.Timestamp(i*1000+1))
		switch i % 3 {
		case 0:
			n.Items = append(n.Items, nsf.Item{Name: "Dup", Value: nsf.TextValue("first")},
				nsf.Item{Name: "DUP", Value: nsf.TextValue("second")})
		case 1:
			n.Items = append(n.Items, nsf.Item{Name: "Empty"},
				nsf.Item{Name: "EMPTY", Value: nsf.TextValue("after an untyped item")})
		}
		switch i % 6 {
		case 1:
			n.SetWithFlags("DocReaders", nsf.TextValue("ada"), nsf.FlagReaders|nsf.FlagSummary)
		case 2:
			n.SetWithFlags("DocReaders", nsf.TextValue("ada"), nsf.FlagReaders)
			n.SetWithFlags("DocAuthors", nsf.TextValue("bob"), nsf.FlagAuthors)
		case 4:
			n.SetWithFlags("DocReaders", nsf.TextValue("ada", "bob"), nsf.FlagReaders)
		}
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
		unids = append(unids, n.OID.UNID)
	}
	get := func(u nsf.UNID) *nsf.Note {
		n, err := sess.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for i := 0; i < docs; i += 5 {
		n := get(unids[i])
		n.SetWithFlags("Subject", nsf.TextValue(fmt.Sprintf("join %02d revised", i)), nsf.FlagSummary)
		if err := sess.Update(n); err != nil {
			t.Fatal(err)
		}
	}
	var stale []*nsf.Note
	for i := 0; i < docs; i++ {
		var err error
		switch i % 8 {
		case 3:
			stale = append(stale, get(unids[i]))
			err = sess.Delete(unids[i])
		case 5:
			stale = append(stale, get(unids[i]))
			err = db.RawDelete(unids[i])
		case 7:
			stale = append(stale, get(unids[i]))
			n := get(unids[i])
			n.SetWithFlags("DocReaders", nsf.TextValue("ada"), nsf.FlagReaders)
			err = sess.Update(n)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	db.Refresh()
	for _, n := range stale {
		db.FullText().Update(n)
	}
	return unids
}

// TestSearchJoinMatchesWholeNoteJoin: the join over projected records
// answers exactly what the join over whole notes loaded through
// Session.Get answered — the server's pages laid end to end with the byte
// budget cutting them, SearchJoined, and small pages one by one (total,
// start, next and more included) — for a user every document admits and a
// user Readers items exclude, with and without columns.
func TestSearchJoinMatchesWholeNoteJoin(t *testing.T) {
	_, addr, db := newBulkServer(t, 0, 1) // the 64 KiB page floor
	seedJoinCorpus(t, db, 48)
	const query = "needle"
	for _, user := range []string{"ada", "bob"} {
		sess := db.Session(user)
		c, err := wire.Dial(addr, user, user+"-pw")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rdb, err := c.OpenDB("apps/bulk.nsf")
		if err != nil {
			t.Fatal(err)
		}
		all, err := sess.Search(query)
		if err != nil {
			t.Fatal(err)
		}
		for _, columns := range [][]string{joinColumns, nil} {
			what := fmt.Sprintf("%s, %d columns", user, len(columns))
			ref, refTotal, _ := refSearchPage(t, sess, query, columns, 0, 0)
			if len(columns) > 0 && refTotal == len(all) {
				t.Fatalf("%s: the reference skipped no hit", what)
			}
			local, err := sess.SearchJoined(query, columns)
			if err != nil {
				t.Fatal(err)
			}
			sameKeys(t, what+": SearchJoined", summaryKeys(local), summaryKeys(ref))

			var got []wire.SearchHit
			cut := false
			for start := 0; ; {
				p, err := rdb.SearchPage(query, columns, start, 0)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, p.Hits...)
				if !p.More {
					break
				}
				cut = true // no row cap below the hit count: the bytes cut the page
				start = p.Next
			}
			if len(columns) > 0 && !cut {
				t.Errorf("%s: no page was cut by its byte budget", what)
			}
			sameKeys(t, what+": wire pages", wireKeys(got), summaryKeys(ref))

			for start := 0; ; {
				p, err := rdb.SearchPage(query, columns, start, 3)
				if err != nil {
					t.Fatal(err)
				}
				want, total, next := refSearchPage(t, sess, query, columns, start, 3)
				first := min(start, next)
				if p.Total != total || p.Start != first || p.Next != next || p.More != (first+len(want) < total) {
					t.Errorf("%s: page at %d: total %d start %d next %d more %v, want %d %d %d %v",
						what, start, p.Total, p.Start, p.Next, p.More, total, first, next, first+len(want) < total)
				}
				sameKeys(t, fmt.Sprintf("%s: page at %d", what, start), wireKeys(p.Hits), summaryKeys(want))
				if !p.More {
					break
				}
				start = p.Next
			}
		}
	}
}

// TestSearchByteCutCountsUnexaminedHits pins what total means after a page
// is cut by its byte budget: the hits past the cut have not been examined,
// so a deleted one among them is counted until a later page skips it, and
// a page that starts past it counts it again, as it always has.
func TestSearchByteCutCountsUnexaminedHits(t *testing.T) {
	_, addr, db := newBulkServer(t, 0, 1)
	sess := db.Session("ada")
	for i := 0; i < 16; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Body", strings.Repeat(fmt.Sprintf("needle hay%02d ", i), store.PageSize))
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	all, err := sess.Search("needle")
	if err != nil || len(all) != 16 {
		t.Fatalf("Search = %d hits, %v", len(all), err)
	}
	victim, err := sess.Get(all[12].UNID)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RawDelete(victim.OID.UNID); err != nil {
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
	got, pages := 0, 0
	for start := 0; ; pages++ {
		p, err := rdb.SearchPage("needle", []string{"Body"}, start, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range p.Hits {
			if h.UNID == victim.OID.UNID {
				t.Fatal("the deleted document's hit was served")
			}
		}
		got += len(p.Hits)
		// Only the page whose examined hits include the victim's skips it.
		want := 16
		if p.Start <= 12 && 12 < p.Next {
			want = 15
		}
		if p.Total != want {
			t.Errorf("page [%d, %d): total %d, want %d", p.Start, p.Next, p.Total, want)
		}
		if !p.More {
			break
		}
		start = p.Next
	}
	if got != 15 || pages < 2 {
		t.Errorf("served %d hits in %d pages, want 15 hits in several", got, pages+1)
	}
}

// searchConn opens the bulk database on a connection of user's, driven
// through dispatch without a socket, and returns a function serving one
// OpSearch.
func searchConn(t testing.TB, s *Server, user string) func(query string, start, limit int, columns []string) *wire.Enc {
	t.Helper()
	c := &connState{s: s, user: user, handles: map[uint32]*handleState{}, nextH: 1}
	body := func(e *wire.Enc) *wire.Dec { return wire.NewDec(e.Bytes()[1:]) }
	if resp := c.dispatch(context.Background(), wire.OpOpenDB, body(wire.NewEnc(wire.OpOpenDB).Str("apps/bulk.nsf"))); resp.Bytes()[1] != wire.StatusOK {
		t.Fatalf("open as %s: status %d", user, resp.Bytes()[1])
	}
	return func(query string, start, limit int, columns []string) *wire.Enc {
		req := wire.NewEnc(wire.OpSearch).U32(1).Str(query).U32(uint32(start)).U32(uint32(limit)).U32(uint32(len(columns)))
		for _, col := range columns {
			req.Str(col)
		}
		return c.dispatch(context.Background(), wire.OpSearch, body(req))
	}
}

// TestSearchPageAllocatesPerPage: a search page's join reads each hit's
// record into a reused arena and copies its columns into the response, so
// a 50-hit page costs less than one allocation per hit more than a 5-hit
// page of the same query.
func TestSearchPageAllocatesPerPage(t *testing.T) {
	s, _, db := newBulkServer(t, 0, 0)
	sess := db.Session("ada")
	for i := 0; i < 200; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("memo %03d", i))
		n.SetText("Body", "needle in a haystack")
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	search := searchConn(t, s, "ada")
	allocs := func(limit int) float64 {
		return testing.AllocsPerRun(20, func() {
			resp := search("needle", 0, limit, []string{"Subject"})
			if resp.Bytes()[1] != wire.StatusOK {
				t.Fatalf("search: status %d", resp.Bytes()[1])
			}
			resp.Release()
		})
	}
	small, large := allocs(5), allocs(50)
	t.Logf("allocations per search page: %v with 5 hits, %v with 50", small, large)
	if large-small >= 45 {
		t.Errorf("a 50-hit page makes %v allocations, a 5-hit page %v: %.1f per extra hit", large, small, (large-small)/45)
	}
}

// TestSearchJoinRacingWriters pages a search while writers update,
// restrict, stub, delete and recreate the documents it hits. Every row
// must be a document its reader may open, not a stub, with columns that
// are one committed version whole: the arena a lookup reuses never tears a
// row.
func TestSearchJoinRacingWriters(t *testing.T) {
	_, addr, db := newBulkServer(t, 0, 1)
	// A version's Subject names it; its Body is a function of the name,
	// chained over pages for every second slot.
	body := func(subject string, slot int) string {
		if slot%2 == 0 {
			return strings.Repeat("needle "+subject+" ", store.PageSize/10)
		}
		return "needle " + subject
	}
	version := func(n *nsf.Note, slot, v int, restricted bool) {
		subject := fmt.Sprintf("d%02d v%d", slot, v)
		if restricted {
			subject += " restricted"
			n.SetWithFlags("DocReaders", nsf.TextValue("ada"), nsf.FlagReaders)
		} else {
			n.Remove("DocReaders")
		}
		n.SetText("Subject", subject)
		n.SetText("Body", body(subject, slot))
	}
	const slots, writers, passes, maxOps = 40, 2, 25, 5000
	sess := db.Session("ada")
	var slotOf sync.Map // UNID -> the slot its document fills
	create := func(slot, v int) (nsf.UNID, error) {
		n := nsf.NewNote(nsf.ClassDocument)
		n.OID.UNID = nsf.NewUNID()
		slotOf.Store(n.OID.UNID, slot)
		version(n, slot, v, false)
		return n.OID.UNID, sess.Create(n)
	}
	unids := make([]nsf.UNID, slots)
	for slot := range unids {
		var err error
		if unids[slot], err = create(slot, 0); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 1; op <= maxOps; op++ {
				select {
				case <-stop:
					return
				default:
				}
				slot := w + writers*rng.Intn(slots/writers) // each writer owns its slots
				n, err := sess.Get(unids[slot])
				if err != nil {
					unids[slot], err = create(slot, op) // stubbed or deleted: fill the slot again
				} else {
					switch r := rng.Intn(20); {
					case r < 14:
						version(n, slot, op, r < 4)
						err = sess.Update(n)
					case r < 17:
						err = sess.Delete(unids[slot])
					default:
						err = db.RawDelete(unids[slot])
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	defer wg.Wait()
	defer close(stop)

	c, err := wire.Dial(addr, "bob", "bob-pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rdb, err := c.OpenDB("apps/bulk.nsf")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for pass := 0; pass < passes; pass++ {
		for start := 0; ; {
			p, err := rdb.SearchPage("needle", []string{"Subject", "Body"}, start, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range p.Hits {
				rows++
				subject, slot := h.Values[0].String(), -1
				fmt.Sscanf(subject, "d%02d", &slot)
				if want, ok := slotOf.Load(h.UNID); !ok || want != slot || h.Values[0].Type != nsf.TypeText {
					t.Fatalf("row %s: subject %q is no version of its document", h.UNID, subject)
				}
				if strings.HasSuffix(subject, "restricted") {
					t.Fatalf("row %s: bob was served %q, which he may not read", h.UNID, subject)
				}
				if h.Values[1].String() != body(subject, slot) {
					t.Fatalf("row %s: subject %q with another version's body (%d bytes)", h.UNID, subject, len(h.Values[1].String()))
				}
			}
			if !p.More {
				break
			}
			start = p.Next
		}
	}
	if rows == 0 {
		t.Fatal("no row was served")
	}
}
