package ft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/nsf"
)

func snapshotRoundTrip(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	return loaded
}

func TestSnapshotRoundTrip(t *testing.T) {
	ix := NewIndex()
	restricted := textNote("secret plans", "the heist begins at dawn")
	restricted.SetWithFlags("DocReaders", nsf.TextValue("alice", "bob"), nsf.FlagReaders)
	docs := []*nsf.Note{
		textNote("groupware", "notes domino replication replication"),
		textNote("cooking", "slow roast replication of recipes"),
		restricted,
	}
	for _, n := range docs {
		ix.Update(n)
	}
	loaded := snapshotRoundTrip(t, ix)
	if loaded.DocCount() != ix.DocCount() || loaded.TermCount() != ix.TermCount() {
		t.Fatalf("counts: %d/%d vs %d/%d",
			loaded.DocCount(), loaded.TermCount(), ix.DocCount(), ix.TermCount())
	}
	for _, q := range []string{"replication", `"heist begins"`, "roast OR domino", "NOT cooking"} {
		a, err := ix.Search(q)
		if err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		b, err := loaded.Search(q)
		if err != nil {
			t.Fatalf("loaded Search(%q): %v", q, err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %q: %d vs %d hits", q, len(a), len(b))
		}
		for i := range a {
			if a[i].UNID != b[i].UNID || a[i].Score != b[i].Score {
				t.Fatalf("query %q hit %d differs: %+v vs %+v", q, i, a[i], b[i])
			}
			av, bv := append([]string(nil), a[i].Access...), append([]string(nil), b[i].Access...)
			sort.Strings(av)
			sort.Strings(bv)
			if !reflect.DeepEqual(av, bv) {
				t.Fatalf("query %q access lists differ: %v vs %v", q, av, bv)
			}
		}
	}
	// The loaded index remains updatable.
	extra := textNote("late", "arrives after loading")
	loaded.Update(extra)
	if rs, _ := loaded.Search("arrives"); len(rs) != 1 {
		t.Error("loaded index not updatable")
	}
	loaded.Remove(docs[0].OID.UNID)
	if rs, _ := loaded.Search("domino"); len(rs) != 0 {
		t.Error("removal from loaded index failed")
	}
}

func TestSnapshotEmptyIndex(t *testing.T) {
	loaded := snapshotRoundTrip(t, NewIndex())
	if loaded.DocCount() != 0 || loaded.TermCount() != 0 {
		t.Errorf("empty snapshot: %d docs %d terms", loaded.DocCount(), loaded.TermCount())
	}
}

func TestSnapshotLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	ix := NewIndex()
	for i := 0; i < 500; i++ {
		words := make([]string, 3+rng.Intn(30))
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		ix.Update(textNote(fmt.Sprintf("doc %d", i), fmt.Sprint(words)))
	}
	loaded := snapshotRoundTrip(t, ix)
	for _, q := range []string{"alpha", `"beta gamma"`, "delta NOT epsilon"} {
		a, _ := ix.Search(q)
		b, _ := loaded.Search(q)
		if len(a) != len(b) {
			t.Fatalf("query %q: %d vs %d", q, len(a), len(b))
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := ReadIndex(bytes.NewReader([]byte("NOTMAGIC"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations of a valid snapshot must error, not panic.
	ix := NewIndex()
	ix.Update(textNote("x", "some words here"))
	var buf bytes.Buffer
	ix.WriteTo(&buf)
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := ReadIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestSnapshotBytesAreAFunctionOfTheIndex pins the canonical order: two
// snapshots of one index, and a snapshot of an index loaded from it, are
// the same bytes, whatever order Go's maps iterate in.
func TestSnapshotBytesAreAFunctionOfTheIndex(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 200; i++ {
		n := textNote(fmt.Sprintf("doc %d", i), "alpha beta gamma delta alpha")
		if i%7 == 0 {
			n.SetWithFlags("DocReaders", nsf.TextValue("alice"), nsf.FlagReaders)
			n.SetWithFlags("DocAuthors", nsf.TextValue("bob"), nsf.FlagAuthors)
		}
		ix.Update(n)
	}
	snap := func(ix *Index) []byte {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := snap(ix)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(snap(ix), first) {
			t.Fatal("two snapshots of one index differ")
		}
	}
	if !bytes.Equal(snap(snapshotRoundTrip(t, ix)), first) {
		t.Fatal("the snapshot of a loaded index differs from its source")
	}
}

// TestReadIndexRejectsBadOrdinals feeds postings whose document ordinals
// are out of range or not increasing.
func TestReadIndexRejectsBadOrdinals(t *testing.T) {
	snapshot := func(ordinals ...uint64) []byte {
		b := []byte(persistMagic)
		b = binary.AppendUvarint(b, 2) // two docs, no access lists
		for i := byte(1); i <= 2; i++ {
			b = append(b, bytes.Repeat([]byte{i}, 16)...)
			b = binary.AppendUvarint(b, 0)
		}
		b = binary.AppendUvarint(b, 1) // one term
		b = binary.AppendUvarint(b, 4)
		b = append(b, "word"...)
		b = binary.AppendUvarint(b, uint64(len(ordinals)))
		for _, d := range ordinals {
			b = binary.AppendUvarint(b, d)
			b = binary.AppendUvarint(b, 1) // one position, at 0
			b = binary.AppendUvarint(b, 0)
		}
		return b
	}
	if _, err := ReadIndex(bytes.NewReader(snapshot(0, 1))); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
	for name, data := range map[string][]byte{
		"out of range":   snapshot(2),
		"past the end":   snapshot(1, 1),
		"not increasing": snapshot(1, 0),
		"huge delta":     snapshot(0, 1<<63),
	} {
		if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadIndexBoundsCountsBySize: a count the bytes left could not hold
// is refused before anything is allocated for it.
func TestReadIndexBoundsCountsBySize(t *testing.T) {
	b := []byte(persistMagic)
	b = binary.AppendUvarint(b, 1)
	b = append(b, make([]byte, 16)...)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 1)
	b = append(b, 'w')
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, 1<<24) // 16M positions in a few bytes
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := ReadIndex(bytes.NewReader(b)); err == nil {
		t.Fatal("oversized position count accepted")
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew > 1<<16 {
		t.Errorf("a %d-byte snapshot made ReadIndex allocate %d bytes", len(b), grew)
	}
}

// FuzzReadIndex throws arbitrary bytes at the sidecar reader, which parses
// what it finds on disk at every EnableFullText. It must never panic, and
// an index it accepts must survive WriteTo → ReadIndex → WriteTo with the
// same bytes.
func FuzzReadIndex(f *testing.F) {
	ix := NewIndex()
	restricted := textNote("secret plans", "the heist begins at dawn dawn")
	restricted.SetWithFlags("DocReaders", nsf.TextValue("alice", "bob"), nsf.FlagReaders)
	ix.Update(restricted)
	ix.Update(textNote("groupware", "notes domino replication"))
	ix.Update(nsf.NewNote(nsf.ClassDocument))
	var seed bytes.Buffer
	ix.WriteTo(&seed)
	f.Add(seed.Bytes())
	var empty bytes.Buffer
	NewIndex().WriteTo(&empty)
	f.Add(empty.Bytes())
	f.Add([]byte(persistMagic + "\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		var first bytes.Buffer
		if _, err := ix.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ReadIndex(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read of a written snapshot failed: %v", err)
		}
		var second bytes.Buffer
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("snapshot round trip changed the bytes")
		}
	})
}
