package ft

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/nsf"
)

// equalsOracle checks one query on ix against the oracle holding the same
// documents: the same error or none, and the same hits in the same order
// with the same score bits and access lists. It returns the hits.
func equalsOracle(t *testing.T, ix *Index, o *oracle, query string) []Result {
	t.Helper()
	got, gerr := ix.Search(query)
	want, werr := o.search(query)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("query %q: error %v, oracle %v", query, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("query %q: %d hits, oracle %d", query, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.UNID != w.UNID || math.Float64bits(g.Score) != math.Float64bits(w.Score) || !slices.Equal(g.Access, w.Access) {
			t.Fatalf("query %q hit %d: %v %v %v, oracle %v %v %v", query, i, g.UNID, g.Score, g.Access, w.UNID, w.Score, w.Access)
		}
	}
	return got
}

// equalsScan checks that hits are the documents ScanSearch finds among live.
func equalsScan(t *testing.T, hits []Result, query string, live map[nsf.UNID]*nsf.Note) {
	t.Helper()
	scanned, err := ScanSearch(query, func(fn func(*nsf.Note) bool) error {
		for _, n := range live {
			if !fn(n) {
				break
			}
		}
		return nil
	})
	if err != nil {
		return // the oracle check saw the same parse error
	}
	a, b := unids(hits), unids(scanned)
	sortUNIDs(a)
	sortUNIDs(b)
	if !slices.Equal(a, b) {
		t.Fatalf("query %q: index %d hits, scan %d", query, len(a), len(b))
	}
}

var oracleVocab = []string{
	"alpha", "beta", "gamma", "delta", "sales", "legal", "istanbul", "straße",
	"naïve", "x1", "42", "nosuch", "the",
}

// randQuery draws a query over oracleVocab: terms, phrases, and AND, OR
// and NOT trees.
func randQuery(rng *rand.Rand, depth int) string {
	word := func() string { return oracleVocab[rng.Intn(len(oracleVocab))] }
	if depth == 0 {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%q", word()+" "+word())
		case 1:
			return fmt.Sprintf("%q", word()+" "+word()+" "+word())
		default:
			return word()
		}
	}
	l, r := randQuery(rng, depth-1), randQuery(rng, rng.Intn(depth))
	switch rng.Intn(5) {
	case 0:
		return l + " " + r
	case 1:
		return l + " AND " + r
	case 2:
		return "(" + l + " OR " + r + ")"
	case 3:
		return l + " NOT " + r
	default:
		return "NOT " + l
	}
}

// churner drives one ordinal index and the oracle through the same
// creates, body updates, category flips, restrictions, stubs and deletes,
// keeping the live notes.
type churner struct {
	rng  *rand.Rand
	ix   *Index
	o    *oracle
	live map[nsf.UNID]*nsf.Note
}

func newChurner(seed int64) *churner {
	return &churner{rng: rand.New(rand.NewSource(seed)), ix: NewIndex(), o: newOracle(), live: map[nsf.UNID]*nsf.Note{}}
}

func (c *churner) put(n *nsf.Note) {
	c.ix.Update(n)
	c.o.update(n)
	if n.IsStub() || n.Class != nsf.ClassDocument {
		delete(c.live, n.OID.UNID)
	} else {
		c.live[n.OID.UNID] = n
	}
}

func (c *churner) create() {
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", churnText(c.rng))
	n.SetText("Body", churnText(c.rng), churnText(c.rng))
	n.SetText("Category", []string{"Sales", "Legal"}[c.rng.Intn(2)])
	c.put(n)
}

// pick returns a clone of a live note, or nil when there is none.
func (c *churner) pick() *nsf.Note {
	if len(c.live) == 0 {
		return nil
	}
	keys := make([]nsf.UNID, 0, len(c.live))
	for u := range c.live {
		keys = append(keys, u)
	}
	sortUNIDs(keys)
	return c.live[keys[c.rng.Intn(len(keys))]].Clone()
}

func (c *churner) remove(n *nsf.Note) {
	c.ix.Remove(n.OID.UNID)
	c.o.remove(n.OID.UNID)
	delete(c.live, n.OID.UNID)
}

// step makes one random change.
func (c *churner) step() {
	op := c.rng.Intn(10)
	n := c.pick()
	if n == nil || op < 3 {
		c.create()
		return
	}
	switch op {
	case 3, 4: // body update
		n.SetText("Body", churnText(c.rng), churnText(c.rng))
	case 5: // category flip
		if n.Text("Category") == "Sales" {
			n.SetText("Category", "Legal")
		} else {
			n.SetText("Category", "Sales")
		}
	case 6: // restrict or open up
		if n.Has("DocReaders") {
			n.Remove("DocReaders")
		} else {
			names := []string{"ada", "bob"}[:1+c.rng.Intn(2)]
			n.SetWithFlags("DocReaders", nsf.TextValue(names...), nsf.FlagReaders)
		}
	case 7: // re-index as it is
	case 8:
		n.Flags |= nsf.FlagDeleted
	default:
		c.remove(n)
		return
	}
	c.put(n)
}

// check compares queries on the index with the oracle and ScanSearch.
func (c *churner) check(t *testing.T, queries []string) {
	t.Helper()
	for _, q := range queries {
		equalsScan(t, equalsOracle(t, c.ix, c.o, q), q, c.live)
	}
	if c.ix.DocCount() != len(c.live) || c.ix.TermCount() != len(c.o.postings) {
		t.Fatalf("%d docs / %d terms, oracle %d / %d", c.ix.DocCount(), c.ix.TermCount(), len(c.live), len(c.o.postings))
	}
}

// TestOrdinalSearchEqualsOracle churns an ordinal index and the oracle
// through the same creates, body updates, category flips, restrictions,
// stubs and deletes, deleting most documents midway so the ordinals are
// renumbered, and holds every query's hits, score bits and order to the
// oracle's and its hit set to ScanSearch's, after each phase.
func TestOrdinalSearchEqualsOracle(t *testing.T) {
	fixed := []string{
		"alpha", "sales", "legal", "alpha beta", "alpha AND legal", "beta OR gamma",
		"delta NOT alpha", "NOT sales", `"alpha beta"`, `"gamma delta alpha"`,
		"istanbul OR straße", "naïve x1", "mail-routing", "a.b.c", "42 OR x1",
		"(alpha OR beta) NOT (gamma OR sales)", "NOT (alpha beta)", "nosuch",
		"alpha nosuch", "nosuch OR beta", `"nosuch alpha"`,
		"", "the", "the and of", "...", "(alpha", "NOT",
	}
	for seed := int64(1); seed <= 3; seed++ {
		c := newChurner(seed)
		queries := slices.Clone(fixed)
		for i := 0; i < 60; i++ {
			queries = append(queries, randQuery(c.rng, 1+c.rng.Intn(3)))
		}
		for i := 0; i < 300; i++ {
			c.create()
		}
		c.check(t, queries)
		for i := 0; i < 1500; i++ {
			c.step()
		}
		c.check(t, queries)
		slots := len(c.ix.docs)
		for len(c.live) > 40 {
			c.remove(c.pick())
		}
		if len(c.ix.docs) >= slots {
			t.Fatalf("seed %d: %d slots after deleting all but %d documents, %d before: no renumbering", seed, len(c.ix.docs), len(c.live), slots)
		}
		c.check(t, queries)
		for i := 0; i < 1500; i++ {
			c.step()
		}
		c.check(t, queries)
		// The snapshot of the churned index loads into an index that
		// answers the same.
		c.ix = snapshotRoundTrip(t, c.ix)
		c.check(t, queries)
	}
}

// FuzzSearch runs fuzzer-chosen documents, changes and a query through the
// ordinal index and the oracle: the hits, score bits and order must be the
// same, and the hit set ScanSearch's. Documents are the lines of text over
// six slots; each op byte picks a slot and what happens to it.
func FuzzSearch(f *testing.F) {
	for _, s := range []string{
		"",
		"Hello, World! The quick-brown fox_2 jumps\nhello world\nfox fox fox",
		"MiXeD CaSe...and;;;PUNCTUATION!!--runs__of\t\nseparators 42x",
		strings.Repeat("x ", 40) + "\ny x y x\nx y",
		"İstanbul\nStraße STRASSE\nΣΊΣΥΦΟΣ σίσυφος",
		"ok\xffbad\xc3(utf8\xe2\x82 end\n\xef\xbf\xbd replacement",
	} {
		for _, q := range []string{"hello", "x y", `"x y"`, "x OR y", "NOT x", "(x OR fox) NOT y", "the", ""} {
			f.Add(s, q, []byte{0, 1, 2, 3, 4, 5, 6, 13, 20, 27, 34, 0x80 | 7, 21, 22, 23})
		}
	}
	f.Fuzz(func(t *testing.T, text, query string, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		lines := strings.Split(text, "\n")
		ix, o := NewIndex(), newOracle()
		slots := make([]*nsf.Note, 6)
		live := map[nsf.UNID]*nsf.Note{}
		for i, op := range ops {
			k := int(op&0x7f) % len(slots)
			if slots[k] == nil {
				slots[k] = nsf.NewNote(nsf.ClassDocument)
			}
			n := slots[k].Clone()
			switch int(op&0x7f) / len(slots) % 4 {
			case 0, 1:
				n.Flags = 0
				n.SetText("Body", lines[i%len(lines)], lines[(i+1)%len(lines)])
				n.Remove("DocReaders")
				if op&0x80 != 0 {
					n.SetWithFlags("DocReaders", nsf.TextValue("ada"), nsf.FlagReaders)
				}
			case 2:
				ix.Remove(n.OID.UNID)
				o.remove(n.OID.UNID)
				delete(live, n.OID.UNID)
				continue
			default:
				n.Flags |= nsf.FlagDeleted
			}
			slots[k] = n
			ix.Update(n)
			o.update(n)
			if n.IsStub() {
				delete(live, n.OID.UNID)
			} else {
				live[n.OID.UNID] = n
			}
		}
		equalsScan(t, equalsOracle(t, ix, o, query), query, live)
	})
}

// TestSearchAllocatesPerQuery holds a two-term search to the same number of
// allocations whether it has 10, 1,000 or 10,000 hits: the parse and the
// result slice, and nothing per hit or per posting. A 10-hit term costs the
// same over 1,000 documents as over 10,000, while ScanSearch reads every
// one of them.
func TestSearchAllocatesPerQuery(t *testing.T) {
	corpus := func(size int) (*Index, []*nsf.Note) {
		ix, notes := NewIndex(), make([]*nsf.Note, size)
		for i := range notes {
			body := "common wide"
			if i < 1000 {
				body += " mid"
			}
			if i < 10 {
				body += " rare"
			}
			notes[i] = textNote(fmt.Sprintf("doc %d", i), body)
			ix.Update(notes[i])
		}
		return ix, notes
	}
	ix, notes := corpus(10000)
	var counts []float64
	for _, q := range []string{"common rare", "common mid", "common wide"} {
		rs, err := ix.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() { ix.SearchCtx(context.Background(), q) })
		t.Logf("%q: %d hits, %.0f allocations", q, len(rs), allocs)
		counts = append(counts, allocs)
	}
	small, smallNotes := corpus(1000)
	var perCorpus []float64
	for _, c := range []struct {
		ix    *Index
		notes []*nsf.Note
	}{{small, smallNotes}, {ix, notes}} {
		rs, err := c.ix.Search("rare")
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() { c.ix.SearchCtx(context.Background(), "rare") })
		visited := 0
		scanned, err := ScanSearch("rare", func(fn func(*nsf.Note) bool) error {
			for _, n := range c.notes {
				visited++
				if !fn(n) {
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d documents: %d hits, %.0f allocations; the scan read %d documents", len(c.notes), len(rs), allocs, visited)
		if len(rs) != 10 || len(scanned) != 10 || visited != len(c.notes) {
			t.Errorf("%d documents: %d hits, the scan %d after reading %d documents, want 10, 10 and all", len(c.notes), len(rs), len(scanned), visited)
		}
		perCorpus = append(perCorpus, allocs)
	}
	if raceEnabled {
		return // sync.Pool drops items at random under the race detector
	}
	if counts[0] != counts[1] || counts[1] != counts[2] || counts[2] > 16 {
		t.Errorf("allocations at 10, 1000, 10000 hits: %v, want equal and <= 16", counts)
	}
	if perCorpus[0] != perCorpus[1] {
		t.Errorf("a 10-hit search allocates %v over 1,000 and 10,000 documents, want the same", perCorpus)
	}
}

// TestSnapshotGolden pins WriteTo's bytes for a fixed corpus, restricted,
// updated and removed documents among them: sidecars already on disk must
// load, so FTIDX002 may not move with the in-memory layout.
func TestSnapshotGolden(t *testing.T) {
	ix := NewIndex()
	var notes []*nsf.Note
	for i := 0; i < 24; i++ {
		n := textNote(fmt.Sprintf("memo %d on the %s", i, oracleVocab[i%len(oracleVocab)]),
			strings.Repeat(oracleVocab[(i*5)%len(oracleVocab)]+" ", 1+i%3)+"mail-routing x1 İstanbul")
		n.OID.UNID = nsf.UNID{byte(i * 37), byte(i), 0xA5, byte(255 - i)}
		if i%5 == 0 {
			n.SetWithFlags("DocReaders", nsf.TextValue("ada", fmt.Sprint("group", i)), nsf.FlagReaders)
		}
		notes = append(notes, n)
		ix.Update(n)
	}
	for i, n := range notes {
		switch i % 4 {
		case 1:
			n.SetText("Body", "replaced body "+oracleVocab[i%len(oracleVocab)])
			ix.Update(n)
		case 2:
			ix.Remove(n.OID.UNID)
		}
	}
	sum := sha256.Sum256(snapshotBytes(t, ix))
	const want = "9a1fb49b20f52f1875659a838e8a2fe4f57333b09ea46b510e022fd1527288f0"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("snapshot sha256 %s, want %s", got, want)
	}
}

// TestSearchRacesRenumber deletes most of an index's documents, renumbering
// its ordinals, and re-indexes others while searchers and a snapshot writer
// run; the index ends equal to a fresh build of the survivors.
func TestSearchRacesRenumber(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var notes []*nsf.Note
	ix := NewIndex()
	for i := 0; i < 400; i++ {
		n := textNote(churnText(rng), churnText(rng))
		notes = append(notes, n)
		ix.Update(n)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			queries := []string{"alpha", "beta OR gamma", `"alpha beta"`, "NOT delta", "x1 NOT istanbul"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if i == 0 {
					if _, err := ix.WriteTo(io.Discard); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				rs, err := ix.Search(queries[i%len(queries)])
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range rs {
					if r.UNID == (nsf.UNID{}) {
						t.Error("a hit without a document")
						return
					}
				}
				i++
			}
		}(i)
	}
	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for _, n := range notes[:300] {
			ix.Remove(n.OID.UNID)
		}
	}()
	go func() {
		defer writers.Done()
		for r := 0; r < 3; r++ {
			for _, n := range notes[300:] {
				ix.Update(n)
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if len(ix.docs) >= 400 {
		t.Fatalf("%d slots after removing 300 of 400 documents: no renumbering", len(ix.docs))
	}
	fresh := NewIndex()
	for _, n := range notes[300:] {
		fresh.Update(n)
	}
	if !bytes.Equal(snapshotBytes(t, ix), snapshotBytes(t, fresh)) {
		t.Error("the index differs from a fresh build of the survivors")
	}
}
