package ft

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/nsf"
)

func textNote(subject, body string) *nsf.Note {
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", subject)
	n.SetText("Body", body)
	return n
}

func unids(rs []Result) []nsf.UNID {
	out := make([]nsf.UNID, len(rs))
	for i, r := range rs {
		out[i] = r.UNID
	}
	return out
}

func hasUNID(rs []Result, u nsf.UNID) bool {
	for _, r := range rs {
		if r.UNID == u {
			return true
		}
	}
	return false
}

func TestTokenize(t *testing.T) {
	got := tokenize("Hello, World! The quick-brown fox_2 jumps")
	want := []string{"hello", "world", "quick", "brown", "fox", "2", "jumps"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokenize = %v, want %v", got, want)
	}
}

// TestStopwordsFitMaxStopword holds maxStopword, the length past which the
// term walker skips the stopword lookup, to the longest stopword.
func TestStopwordsFitMaxStopword(t *testing.T) {
	longest := 0
	for w := range stopwords {
		longest = max(longest, len(w))
	}
	if longest != maxStopword {
		t.Errorf("longest stopword has %d bytes, maxStopword is %d", longest, maxStopword)
	}
}

func TestBasicSearch(t *testing.T) {
	ix := NewIndex()
	a := textNote("database systems", "replication and recovery in groupware")
	b := textNote("cooking", "slow roast recipes")
	c := textNote("databases again", "the database wins")
	for _, n := range []*nsf.Note{a, b, c} {
		ix.Update(n)
	}
	rs, err := ix.Search("database")
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(rs) != 2 || !hasUNID(rs, a.OID.UNID) || !hasUNID(rs, c.OID.UNID) {
		t.Errorf("database hits = %v", unids(rs))
	}
	rs, _ = ix.Search("roast")
	if len(rs) != 1 || rs[0].UNID != b.OID.UNID {
		t.Errorf("roast hits = %v", unids(rs))
	}
	rs, _ = ix.Search("nosuchterm")
	if len(rs) != 0 {
		t.Errorf("phantom hits = %v", unids(rs))
	}
}

func TestBooleanOperators(t *testing.T) {
	ix := NewIndex()
	a := textNote("x", "alpha beta")
	b := textNote("x", "alpha gamma")
	c := textNote("x", "delta gamma")
	for _, n := range []*nsf.Note{a, b, c} {
		ix.Update(n)
	}
	check := func(q string, want ...nsf.UNID) {
		t.Helper()
		rs, err := ix.Search(q)
		if err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		got := unids(rs)
		sort.Slice(got, func(i, j int) bool { return got[i].String() < got[j].String() })
		sort.Slice(want, func(i, j int) bool { return want[i].String() < want[j].String() })
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Errorf("Search(%q) = %v, want %v", q, got, want)
		}
	}
	check("alpha beta", a.OID.UNID)                // implicit AND
	check("alpha AND beta", a.OID.UNID)            // explicit AND
	check("beta OR delta", a.OID.UNID, c.OID.UNID) // OR
	check("alpha NOT beta", b.OID.UNID)            // AND NOT
	check("NOT alpha", c.OID.UNID)                 // top-level NOT
	check("(beta OR gamma) NOT delta", a.OID.UNID, b.OID.UNID)
	check("alpha AND nosuch")
}

func TestPhraseSearch(t *testing.T) {
	ix := NewIndex()
	a := textNote("x", "the replication engine pulls changes")
	b := textNote("x", "changes pull the engine of replication")
	ix.Update(a)
	ix.Update(b)
	rs, err := ix.Search(`"replication engine"`)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(rs) != 1 || rs[0].UNID != a.OID.UNID {
		t.Errorf("phrase hits = %v", unids(rs))
	}
	// Phrase skips stopwords at tokenization; "engine pulls" still matches.
	rs, _ = ix.Search(`"engine pulls changes"`)
	if len(rs) != 1 || rs[0].UNID != a.OID.UNID {
		t.Errorf("long phrase hits = %v", unids(rs))
	}
}

func TestUpdateAndRemove(t *testing.T) {
	ix := NewIndex()
	n := textNote("x", "original words")
	ix.Update(n)
	if rs, _ := ix.Search("original"); len(rs) != 1 {
		t.Fatal("doc not indexed")
	}
	n.SetText("Body", "replaced words")
	ix.Update(n)
	if rs, _ := ix.Search("original"); len(rs) != 0 {
		t.Error("stale term survived update")
	}
	if rs, _ := ix.Search("replaced"); len(rs) != 1 {
		t.Error("new term not indexed")
	}
	// A stub removes the doc.
	n.Flags |= nsf.FlagDeleted
	ix.Update(n)
	if rs, _ := ix.Search("replaced"); len(rs) != 0 {
		t.Error("stub still searchable")
	}
	if ix.DocCount() != 0 {
		t.Errorf("DocCount = %d", ix.DocCount())
	}
}

func TestRankingPrefersHigherTF(t *testing.T) {
	ix := NewIndex()
	often := textNote("x", "cat cat cat cat dog")
	once := textNote("x", "cat dog bird fish")
	ix.Update(often)
	ix.Update(once)
	rs, _ := ix.Search("cat")
	if len(rs) != 2 || rs[0].UNID != often.OID.UNID {
		t.Errorf("ranking = %v", unids(rs))
	}
}

func TestQueryErrors(t *testing.T) {
	ix := NewIndex()
	for _, q := range []string{`"unterminated`, "(a", "a)", "NOT", "OR a"} {
		if _, err := ix.Search(q); err == nil {
			t.Errorf("Search(%q) succeeded, want error", q)
		}
	}
}

// Queries that normalize to nothing — empty strings, stopwords alone,
// punctuation — are not errors: they match no documents, the way a Notes
// client expects typing "the" into the search bar to behave.
func TestEmptyQueriesMatchNothing(t *testing.T) {
	ix := NewIndex()
	ix.Update(textNote("body", "the quick brown fox"))
	for _, q := range []string{"", "   ", "the", "the of and", "...", "AND", "and and and"} {
		rs, err := ix.Search(q)
		if err != nil {
			t.Errorf("Search(%q) error %v, want empty result", q, err)
		}
		if len(rs) != 0 {
			t.Errorf("Search(%q) = %d hits, want 0", q, len(rs))
		}
	}
	// The typed sentinel is still visible to callers that want to tell the
	// user their query vanished, rather than silently showing no hits.
	if _, err := parseQuery("the of and"); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("parseQuery stopwords err = %v, want ErrEmptyQuery", err)
	}
}

// TestIndexAgreesWithScan cross-checks the inverted index against the
// linear-scan baseline over a random corpus and queries.
func TestIndexAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	var notes []*nsf.Note
	ix := NewIndex()
	for i := 0; i < 300; i++ {
		words := make([]string, 5+rng.Intn(20))
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		n := textNote(fmt.Sprintf("doc %d", i), fmt.Sprint(words))
		notes = append(notes, n)
		ix.Update(n)
	}
	scan := func(fn func(*nsf.Note) bool) error {
		for _, n := range notes {
			if !fn(n) {
				break
			}
		}
		return nil
	}
	queries := []string{
		"alpha", "alpha beta", "alpha OR beta", "alpha NOT beta",
		`"alpha beta"`, "(gamma OR delta) NOT epsilon", "zeta eta theta",
	}
	for _, q := range queries {
		indexed, err := ix.Search(q)
		if err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		scanned, err := ScanSearch(q, scan)
		if err != nil {
			t.Fatalf("ScanSearch(%q): %v", q, err)
		}
		a, b := unids(indexed), unids(scanned)
		sort.Slice(a, func(i, j int) bool { return a[i].String() < a[j].String() })
		sort.Slice(b, func(i, j int) bool { return b[i].String() < b[j].String() })
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %q: index %d hits, scan %d hits", q, len(a), len(b))
		}
	}
}
