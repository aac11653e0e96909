package ft

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/nsf"
)

// Index persistence. The on-disk format is a snapshot of the inverted
// index, every part of it in a canonical order so that equal indexes write
// equal bytes:
//
//	magic    "FTIDX002"
//	docs     uvarint, then per doc in UNID order: UNID (16B), access-list
//	         count uvarint, names (len-prefixed strings). A doc's place in
//	         this table is its ordinal.
//	terms    uvarint, then per term in sorted order: term (len-prefixed),
//	         doc count uvarint, per doc in ordinal order: ordinal as a
//	         uvarint delta from the previous one (the first from 0),
//	         position count uvarint, positions as delta-encoded uvarints
//
// Snapshots are written atomically by the caller (write temp + rename).
const persistMagic = "FTIDX002"

// Smallest encodings of the snapshot's counted parts. ReadIndex refuses a
// count whose parts could not fit in the bytes left, so a short snapshot
// cannot make it allocate more than the snapshot's own size.
const (
	minDocBytes     = len(nsf.UNID{}) + 1 // UNID, empty access list
	minNameBytes    = 1                   // empty string
	minTermBytes    = 2                   // empty term, doc count
	minPostingBytes = 3                   // ordinal, count, one position
	minPosBytes     = 1
)

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	// bufio.Writer errors are sticky: the first one fails every later write
	// and the final Flush, which reports it.
	var scratch []byte
	uvarint := func(v uint64) {
		scratch = binary.AppendUvarint(scratch[:0], v)
		bw.Write(scratch)
	}
	str := func(s string) {
		uvarint(uint64(len(s)))
		bw.WriteString(s)
	}
	bw.WriteString(persistMagic)
	docs := make([]nsf.UNID, 0, len(ix.docTerms))
	for u := range ix.docTerms {
		docs = append(docs, u)
	}
	sort.Slice(docs, func(i, j int) bool { return bytes.Compare(docs[i][:], docs[j][:]) < 0 })
	ordinal := make(map[nsf.UNID]uint64, len(docs))
	uvarint(uint64(len(docs)))
	for i, u := range docs {
		ordinal[u] = uint64(i)
		bw.Write(u[:])
		access := ix.docAccess[u]
		uvarint(uint64(len(access)))
		for _, name := range access {
			str(name)
		}
	}
	terms := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	uvarint(uint64(len(terms)))
	type posting struct {
		ord       uint64
		positions []int32
	}
	var list []posting
	for _, t := range terms {
		list = list[:0]
		for u, positions := range ix.postings[t].docs {
			list = append(list, posting{ordinal[u], positions})
		}
		sort.Slice(list, func(i, j int) bool { return list[i].ord < list[j].ord })
		str(t)
		uvarint(uint64(len(list)))
		prevOrd := uint64(0)
		for _, p := range list {
			uvarint(p.ord - prevOrd)
			prevOrd = p.ord
			uvarint(uint64(len(p.positions)))
			prev := int32(0)
			for _, pos := range p.positions {
				uvarint(uint64(pos - prev))
				prev = pos
			}
		}
	}
	err := bw.Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// snapReader parses a snapshot held in memory. Its first error sticks:
// every later read returns zero values.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ft: "+format, args...)
	}
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or malformed varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a count of parts each at least min bytes long, refusing one
// the rest of the snapshot could not hold.
func (r *snapReader) count(what string, min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("%s count %d exceeds the %d bytes left", what, n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.fail("truncated snapshot")
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

func (r *snapReader) str() string { return string(r.take(r.count("string byte", 1))) }

// ReadIndex deserializes a snapshot written by WriteTo. It reads r to its
// end and refuses anything WriteTo could not have written: a count larger
// than the bytes left could hold, documents or terms out of order, a
// posting ordinal out of range or not increasing, an empty posting, and
// trailing bytes. The postings decode into scratch first; then each
// document gets one positions slab and one term list, cut to size, as
// Update lays them.
func ReadIndex(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ft: read snapshot: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(persistMagic)) {
		return nil, fmt.Errorf("ft: bad snapshot magic %q", data[:min(len(data), len(persistMagic))])
	}
	sr := &snapReader{b: data[len(persistMagic):]}
	ix := NewIndex()
	docs := make([]nsf.UNID, sr.count("doc", minDocBytes))
	for i := range docs {
		copy(docs[i][:], sr.take(len(docs[i])))
		if i > 0 && bytes.Compare(docs[i-1][:], docs[i][:]) >= 0 {
			sr.fail("doc %s out of order", docs[i])
		}
		var access []string
		if n := sr.count("access name", minNameBytes); n > 0 {
			access = make([]string, n)
			for j := range access {
				access[j] = sr.str()
			}
			ix.docAccess[docs[i]] = access
		}
	}
	type term struct {
		name string
		docs int
	}
	type posting struct{ ord, end int } // end: where its positions end in pos
	terms := make([]term, sr.count("term", minTermBytes))
	var postings []posting
	var pos []int32
	perDoc := make([]struct{ terms, positions int }, len(docs))
	for i := 0; i < len(terms) && sr.err == nil; i++ {
		t := sr.str()
		if i > 0 && t <= terms[i-1].name {
			sr.fail("term %q out of order", t)
		}
		nDocs := sr.count("posting", minPostingBytes)
		if nDocs == 0 {
			sr.fail("term %q has no documents", t)
		}
		terms[i] = term{t, nDocs}
		ord := uint64(0)
		for j := 0; j < nDocs && sr.err == nil; j++ {
			d := sr.uvarint()
			if j > 0 && d == 0 {
				sr.fail("term %q: ordinals not increasing", t)
			}
			if d >= uint64(len(docs))-ord {
				sr.fail("term %q: ordinal out of range", t)
				break
			}
			ord += d
			n := sr.count("position", minPosBytes)
			if n == 0 {
				sr.fail("term %q: empty posting", t)
			}
			prev := uint64(0)
			for k := 0; k < n; k++ {
				d := sr.uvarint()
				if (k > 0 && d == 0) || d > math.MaxInt32-prev {
					sr.fail("term %q: positions not increasing or out of range", t)
				}
				prev += d
				pos = append(pos, int32(prev))
			}
			postings = append(postings, posting{int(ord), len(pos)})
			perDoc[ord].terms++
			perDoc[ord].positions += n
		}
	}
	if sr.err == nil && len(sr.b) > 0 {
		sr.fail("%d trailing bytes", len(sr.b))
	}
	if sr.err != nil {
		return nil, sr.err
	}

	slabs := make([][]int32, len(docs))
	docTerms := make([][]string, len(docs))
	for i, c := range perDoc {
		if c.terms > 0 {
			slabs[i] = make([]int32, 0, c.positions)
			docTerms[i] = make([]string, 0, c.terms)
		}
	}
	ix.postings = make(map[string]postingList, len(terms))
	start := 0
	for _, t := range terms {
		m := make(map[nsf.UNID][]int32, t.docs)
		for _, p := range postings[:t.docs] {
			slab := append(slabs[p.ord], pos[start:p.end]...)
			m[docs[p.ord]] = slab[len(slabs[p.ord]):len(slab):len(slab)]
			slabs[p.ord] = slab
			docTerms[p.ord] = append(docTerms[p.ord], t.name)
			start = p.end
		}
		postings = postings[t.docs:]
		ix.postings[t.name] = postingList{term: t.name, docs: m}
	}
	ix.docTerms = make(map[nsf.UNID][]string, len(docs))
	for i, u := range docs {
		ix.docTerms[u] = docTerms[i]
	}
	return ix, nil
}

// Docs returns the indexed document UNIDs (unsorted).
func (ix *Index) Docs() []nsf.UNID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]nsf.UNID, 0, len(ix.docTerms))
	for u := range ix.docTerms {
		out = append(out, u)
	}
	return out
}
