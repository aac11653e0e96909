package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/formula"
	"repro/internal/ft"
	"repro/internal/nsf"
	"repro/internal/view"
)

// TestAuthorsSeeWhatTheyCanOpen: a user named in a restricted document's
// Authors item may open it, and so sees it in views and search too — the
// entry's access list is the one CanRead checks.
func TestAuthorsSeeWhatTheyCanOpen(t *testing.T) {
	db := openDB(t, Options{})
	db.ACL().Set("alice", acl.Editor)
	db.ACL().Set("bob", acl.Author)
	db.ACL().Set("carol", acl.Author)
	db.ACL().SetDefault(acl.NoAccess)
	def, err := view.NewDefinition("all", "SELECT @All",
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
	n := memo("quarterly figures")
	n.SetWithFlags("DocReaders", nsf.TextValue("alice"), nsf.FlagReaders|nsf.FlagSummary)
	n.SetWithFlags("DocAuthors", nsf.TextValue("bob"), nsf.FlagAuthors|nsf.FlagSummary)
	if err := db.Session("alice").Create(n); err != nil {
		t.Fatal(err)
	}
	for user, want := range map[string]int{"alice": 1, "bob": 1, "carol": 0} {
		s := db.Session(user)
		if _, err := s.Get(n.OID.UNID); (err == nil) != (want == 1) {
			t.Errorf("%s: Get = %v", user, err)
		}
		if _, total, err := s.RowsPage("all", 0, 0); err != nil || total != want {
			t.Errorf("%s: RowsPage total %d (%v), want %d", user, total, err, want)
		}
		if hits, err := s.Search("quarterly"); err != nil || len(hits) != want {
			t.Errorf("%s: Search = %d hits (%v), want %d", user, len(hits), err, want)
		}
		if hits, err := s.SearchJoined("quarterly", []string{"Subject"}); err != nil || len(hits) != want {
			t.Errorf("%s: SearchJoined = %d hits (%v), want %d", user, len(hits), err, want)
		}
	}
}

// TestSearchPageJoinsOnlyThePage: a page of a search joins its own hits,
// not the hit list, from stored records without reading or filling the
// note cache; pages laid end to end are SearchJoined; and a hit whose
// document was deleted after the refresh barrier is skipped while the page
// still fills.
func TestSearchPageJoinsOnlyThePage(t *testing.T) {
	db := openDB(t, Options{})
	if err := db.EnableFullText(); err != nil {
		t.Fatal(err)
	}
	s := db.Session("alice")
	for i := 0; i < 320; i++ {
		n := memo(fmt.Sprintf("memo %d", i))
		n.SetText("Body", "needle in a haystack")
		if err := s.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	cols := []string{"Subject", "Missing"}
	all, err := s.SearchJoined("needle", cols)
	if err != nil || len(all) != 320 {
		t.Fatalf("SearchJoined = %d hits, %v", len(all), err)
	}
	loads := func() uint64 {
		st := db.st.Stats()
		return st.NoteCacheHits + st.NoteCacheMisses
	}
	const limit = 50
	page := func(start int) ([]ft.HitSummary, int, int, uint64) {
		t.Helper()
		before := loads()
		hits, total, next, err := s.SearchPageCtx(context.Background(), "needle", cols, start, limit)
		if err != nil {
			t.Fatal(err)
		}
		return hits, total, next, loads() - before
	}

	var joined []ft.HitSummary
	for start := 0; start < len(all); {
		hits, total, next, loaded := page(start)
		if total != len(all) || next != start+len(hits) {
			t.Fatalf("page at %d: total %d next %d with %d hits", start, total, next, len(hits))
		}
		if loaded != 0 {
			t.Errorf("page at %d went through the note cache %d times", start, loaded)
		}
		joined = append(joined, hits...)
		start = next
	}
	if !reflect.DeepEqual(joined, all) {
		t.Error("the pages laid end to end differ from SearchJoined")
	}

	// Delete the document behind hit 10, then put it back in the index as
	// if the delete had landed after the refresh barrier.
	victim, err := s.Get(all[10].UNID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(victim.OID.UNID); err != nil {
		t.Fatal(err)
	}
	db.Refresh()
	db.FullText().Update(victim)
	if _, err := s.Get(victim.OID.UNID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("victim still readable: %v", err)
	}
	hits, total, next, loaded := page(0)
	if len(hits) != limit || total != len(all)-1 || next != limit+1 || loaded != 0 {
		t.Fatalf("page over a deleted hit: %d hits, total %d, next %d, %d loads", len(hits), total, next, loaded)
	}
	for _, h := range hits {
		if h.UNID == victim.OID.UNID {
			t.Fatal("the deleted document's hit was joined")
		}
	}
}

// TestScanProjectsToColumnsFieldsAndAccess: a projected scan hands fn the
// named columns, the formula's fields and the Readers items, and nothing
// else, and selects and admits exactly the documents a whole-note scan
// does.
func TestScanProjectsToColumnsFieldsAndAccess(t *testing.T) {
	db := openDB(t, Options{})
	db.ACL().Set("alice", acl.Editor)
	db.ACL().Set("bob", acl.Reader)
	for i := 0; i < 40; i++ {
		n := memo(fmt.Sprintf("doc %d", i))
		n.SetNumber("Priority", float64(i%10))
		n.SetText("Body", strings.Repeat("body ", 100))
		if i%3 == 0 {
			n.SetWithFlags("DocReaders", nsf.TextValue("alice"), nsf.FlagReaders)
		}
		if err := db.Session("alice").Create(n); err != nil {
			t.Fatal(err)
		}
	}
	sel := formula.MustCompile(`SELECT Priority > 4`)
	counts := map[string]int{}
	for _, user := range []string{"alice", "bob"} {
		s := db.Session(user)
		var whole, proj []nsf.NoteID
		if err := s.ScanFromCtx(context.Background(), 0, sel, nil, func(n *nsf.Note) bool {
			whole = append(whole, n.ID)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.ScanFromCtx(context.Background(), 0, sel, []string{"Subject"}, func(n *nsf.Note) bool {
			if n.Has("Body") || n.Has("Form") || !n.Has("Subject") || !n.Has("Priority") {
				t.Errorf("%s: note %d projected to %v", user, n.ID, n.ItemNames())
			}
			proj = append(proj, n.ID)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(whole) == 0 || !reflect.DeepEqual(whole, proj) {
			t.Errorf("%s: whole-note scan %v, projected scan %v", user, whole, proj)
		}
		counts[user] = len(proj)
	}
	if counts["bob"] >= counts["alice"] {
		t.Errorf("Readers items inert on the projected scan: %v", counts)
	}
}
