package ft

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode"

	"repro/internal/nsf"
	"repro/internal/workload"
)

// refTerms is the tokenizer rule spelled the slow way: lower-case the whole
// text, split it at every rune that is neither a letter nor a digit, and
// drop stopwords and terms over maxTermLen bytes. The term walker must
// agree with it on every input.
func refTerms(text string) []string {
	var out []string
	for _, f := range strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}) {
		if len(f) <= maxTermLen && !stopwords[f] {
			out = append(out, f)
		}
	}
	return out
}

// FuzzTerms checks the term walker against refTerms, both on one text and
// on a note carrying the text split across two values of a text list.
func FuzzTerms(f *testing.F) {
	for _, s := range []string{
		"",
		"Hello, World! The quick-brown fox_2 jumps",
		"MiXeD CaSe...and;;;PUNCTUATION!!--runs__of\t\nseparators 42x",
		strings.Repeat("a", maxTermLen),
		strings.Repeat("B", maxTermLen+1),
		"short " + strings.Repeat("z9", maxTermLen/2) + " " + strings.Repeat("Q", maxTermLen+1) + " tail",
		"İstanbul",
		"Straße STRASSE",
		"ΣΊΣΥΦΟΣ σίσυφος",
		"ok\xffbad\xc3(utf8\xe2\x82 end",
		"\xef\xbf\xbd replacement",
	} {
		f.Add(s, 0)
		f.Add(s, len(s)/2)
	}
	f.Fuzz(func(t *testing.T, s string, cut int) {
		want := refTerms(s)
		if got := tokenize(s); !slices.Equal(got, want) {
			t.Fatalf("tokenize(%q) = %q, want %q", s, got, want)
		}
		if cut < 0 || cut > len(s) {
			return
		}
		a, b := s[:cut], s[cut:]
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetNumber("Skipped", 1)
		n.SetText("Body", a, b)
		var got []string
		var w termWalker
		for w.resetNote(n); ; {
			t, ok := w.next()
			if !ok {
				break
			}
			got = append(got, string(t))
		}
		if want := append(refTerms(a), refTerms(b)...); !slices.Equal(got, want) {
			t.Fatalf("note walk of %q + %q = %q, want %q", a, b, got, want)
		}
	})
}

func snapshotBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// churnText draws a text of mixed case, stopwords, punctuation and non-ASCII
// words from a small vocabulary, so terms are shared between documents and
// often leave with their last one.
func churnText(rng *rand.Rand) string {
	vocab := []string{
		"Alpha", "beta", "GAMMA", "delta", "the", "and", "of", "İstanbul",
		"Straße", "ΣΊΣΥΦΟΣ", "naïve", "x1", "42", "mail-routing", "a.b.c",
	}
	words := make([]string, rng.Intn(12))
	for i := range words {
		words[i] = vocab[rng.Intn(len(vocab))]
		if rng.Intn(8) == 0 {
			words[i] += fmt.Sprint(rng.Intn(50))
		}
	}
	return strings.Join(words, " ")
}

// TestChurnedIndexEqualsFreshBuild runs seeded random Update, re-Update and
// Remove sequences over documents with Readers items, stubs, non-documents,
// stopword-only and non-ASCII text, then checks the churned index against
// one built fresh from the surviving notes: the same snapshot bytes, term
// and document counts, and the same hits as ScanSearch. A posting window
// aliasing a neighbour's, or a term kept after its last document left,
// fails it.
func TestChurnedIndexEqualsFreshBuild(t *testing.T) {
	queries := []string{
		"alpha", "beta OR gamma", "delta NOT alpha", `"alpha beta"`, "istanbul",
		"straße", "σίσυφος", "naïve x1", "mail-routing", "42 OR x1", "NOT beta",
		`"gamma delta alpha"`, "a.b.c", "alpha7",
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := NewIndex()
		slots := make([]*nsf.Note, 40)
		for i := range slots {
			slots[i] = nsf.NewNote(nsf.ClassDocument)
		}
		live := map[nsf.UNID]*nsf.Note{}
		for step := 0; step < 3000; step++ {
			k := rng.Intn(len(slots))
			n := slots[k].Clone()
			switch op := rng.Intn(10); {
			case op < 5: // new content
				n.Class, n.Flags = nsf.ClassDocument, 0
				n.SetText("Subject", churnText(rng))
				n.SetText("Body", churnText(rng), churnText(rng))
				if rng.Intn(4) == 0 {
					n.SetText("Body", "the and of")
				}
				n.Remove("DocReaders")
				if rng.Intn(3) == 0 {
					names := []string{"ada", "bob"}[:1+rng.Intn(2)]
					n.SetWithFlags("DocReaders", nsf.TextValue(names...), nsf.FlagReaders)
				}
			case op < 7: // re-index what is there
			case op < 8:
				ix.Remove(n.OID.UNID)
				delete(live, n.OID.UNID)
				continue
			case op < 9:
				n.Flags |= nsf.FlagDeleted
			default:
				n.Class = nsf.ClassForm
			}
			slots[k] = n
			ix.Update(n)
			if n.IsStub() || n.Class != nsf.ClassDocument {
				delete(live, n.OID.UNID)
			} else {
				live[n.OID.UNID] = n
			}
		}
		fresh := NewIndex()
		for _, n := range live {
			fresh.Update(n)
		}
		if got, want := snapshotBytes(t, ix), snapshotBytes(t, fresh); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: churned snapshot (%d bytes) differs from a fresh build (%d bytes)", seed, len(got), len(want))
		}
		if ix.TermCount() != fresh.TermCount() || ix.DocCount() != fresh.DocCount() || ix.DocCount() != len(live) {
			t.Fatalf("seed %d: churned %d terms / %d docs, fresh %d / %d, %d live",
				seed, ix.TermCount(), ix.DocCount(), fresh.TermCount(), fresh.DocCount(), len(live))
		}
		scan := func(fn func(*nsf.Note) bool) error {
			for _, n := range live {
				if !fn(n) {
					break
				}
			}
			return nil
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
			sortUNIDs(a)
			sortUNIDs(b)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d: query %q: index %d hits, scan %d hits", seed, q, len(a), len(b))
			}
		}
	}
}

func sortUNIDs(us []nsf.UNID) {
	slices.SortFunc(us, func(a, b nsf.UNID) int { return bytes.Compare(a[:], b[:]) })
}

// indexedCorpus returns an index holding count 1 KiB workload documents,
// and the documents.
func indexedCorpus(count int) (*Index, []*nsf.Note) {
	docs := workload.New(1).Corpus(count, 1024)
	ix := NewIndex()
	for _, n := range docs {
		ix.Update(n)
	}
	return ix, docs
}

// BenchmarkUpdate re-indexes 1 KiB workload documents in an index that
// already holds them: the indexer's steady state under updates.
func BenchmarkUpdate(b *testing.B) {
	ix, docs := indexedCorpus(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Update(docs[i%len(docs)])
	}
}

// TestUpdateAllocatesPerDocument holds re-indexing an ASCII document to a
// handful of allocations, however many terms it has: the positions slab,
// the document's term list, and nothing per term.
func TestUpdateAllocatesPerDocument(t *testing.T) {
	ix, docs := indexedCorpus(50)
	n := docs[len(docs)/2]
	allocs := testing.AllocsPerRun(200, func() { ix.Update(n) })
	t.Logf("re-index of a %d-term document: %.1f allocations", len(tokenize(n.Text("Body"))), allocs)
	if allocs > 8 {
		t.Errorf("re-index made %.1f allocations, want <= 8", allocs)
	}
}

// TestConcurrentUpdateAndSearch updates two indexes at once, as a home
// database and its cluster mate do in one process, while searchers and
// snapshots run on one of them. Each writer owns its documents, so both
// indexes end equal to a fresh build of the final versions.
func TestConcurrentUpdateAndSearch(t *testing.T) {
	const writers, perWriter, rounds = 2, 20, 8
	g := workload.New(7)
	final := g.Corpus(writers*perWriter, 256)
	// versions[w][r] is writer w's round r: its documents, each an edit of
	// the last, with the final versions last.
	versions := make([][][]*nsf.Note, writers)
	for w := range versions {
		mine := final[w*perWriter : (w+1)*perWriter]
		versions[w] = make([][]*nsf.Note, rounds)
		for r := range versions[w] {
			round := make([]*nsf.Note, len(mine))
			for i, n := range mine {
				round[i] = n.Clone()
				if r < rounds-1 {
					g.Mutate(round[i])
				}
			}
			versions[w][r] = round
		}
	}
	home, mate := NewIndex(), NewIndex()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, ix := range []*Index{home, mate} {
		for w := range versions {
			wg.Add(1)
			go func(ix *Index, rounds [][]*nsf.Note) {
				defer wg.Done()
				for r, round := range rounds {
					for i, n := range round {
						if r%3 == 1 && i%4 == 0 {
							ix.Remove(n.OID.UNID)
						}
						ix.Update(n)
					}
				}
			}(ix, versions[w])
		}
	}
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			queries := []string{"meeting", "budget OR outage", `"project deadline"`, "NOT review"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if i == 0 {
					if _, err := home.WriteTo(io.Discard); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if _, err := home.Search(queries[i%len(queries)]); err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	fresh := NewIndex()
	for _, n := range final {
		fresh.Update(n)
	}
	want := snapshotBytes(t, fresh)
	for name, ix := range map[string]*Index{"home": home, "mate": mate} {
		if !bytes.Equal(snapshotBytes(t, ix), want) {
			t.Errorf("%s index differs from a fresh build of the final documents", name)
		}
	}
}
