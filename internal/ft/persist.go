package ft

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

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

// WriteTo serializes the index. It implements io.WriterTo. On disk a
// document's ordinal is its UNID's rank: the index's ordinals are
// translated, and a posting list sorted only when a document indexed since
// the load has put its ranks out of order.
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
	byUNID := make([]uint32, 0, ix.live)
	for ord, d := range ix.docs {
		if d.live {
			byUNID = append(byUNID, uint32(ord))
		}
	}
	slices.SortFunc(byUNID, func(a, b uint32) int {
		return bytes.Compare(ix.docs[a].unid[:], ix.docs[b].unid[:])
	})
	rank := make([]uint32, len(ix.docs))
	uvarint(uint64(len(byUNID)))
	for r, ord := range byUNID {
		rank[ord] = uint32(r)
		d := &ix.docs[ord]
		bw.Write(d.unid[:])
		uvarint(uint64(len(d.access)))
		for _, name := range d.access {
			str(name)
		}
	}
	terms := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		terms = append(terms, t)
	}
	slices.Sort(terms)
	uvarint(uint64(len(terms)))
	var list []posting // a term's postings, ordinals as ranks
	for _, t := range terms {
		list = list[:0]
		for _, p := range ix.postings[t].list {
			if p.n > 0 {
				list = append(list, posting{rank[p.ord], p.start, p.n})
			}
		}
		if !slices.IsSortedFunc(list, byOrd) {
			slices.SortFunc(list, byOrd)
		}
		str(t)
		uvarint(uint64(len(list)))
		prevOrd := uint32(0)
		for _, p := range list {
			uvarint(uint64(p.ord - prevOrd))
			prevOrd = p.ord
			uvarint(uint64(p.n))
			prev := int32(0)
			for _, pos := range ix.docs[byUNID[p.ord]].slab[p.start : p.start+p.n] {
				uvarint(uint64(pos - prev))
				prev = pos
			}
		}
	}
	err := bw.Flush()
	return cw.n, err
}

func byOrd(a, b posting) int { return cmp.Compare(a.ord, b.ord) }

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
// trailing bytes. A document's ordinal is its place in the snapshot. The
// postings decode into scratch first; then each document gets one
// positions slab and one term list, cut to size, as Update lays them, and
// the posting lists are cut from one array.
func ReadIndex(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ft: read snapshot: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(persistMagic)) {
		return nil, fmt.Errorf("ft: bad snapshot magic %q", data[:min(len(data), len(persistMagic))])
	}
	sr := &snapReader{b: data[len(persistMagic):]}
	docs := make([]docEntry, sr.count("doc", minDocBytes))
	for i := range docs {
		d := &docs[i]
		d.live = true
		copy(d.unid[:], sr.take(len(d.unid)))
		if i > 0 && bytes.Compare(docs[i-1].unid[:], d.unid[:]) >= 0 {
			sr.fail("doc %s out of order", d.unid)
		}
		if n := sr.count("access name", minNameBytes); n > 0 {
			d.access = make([]string, n)
			for j := range d.access {
				d.access[j] = sr.str()
			}
		}
	}
	type term struct {
		name string
		docs int
	}
	type entry struct{ ord, end int } // end: where its positions end in pos
	terms := make([]term, sr.count("term", minTermBytes))
	var entries []entry
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
			entries = append(entries, entry{int(ord), len(pos)})
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

	for i, c := range perDoc {
		if c.terms > 0 {
			docs[i].slab = make([]int32, 0, c.positions)
			docs[i].terms = make([]*postingList, 0, c.terms)
		}
	}
	ix := NewIndex()
	ix.docs, ix.live = docs, len(docs)
	ix.ords = make(map[nsf.UNID]uint32, len(docs))
	for i := range docs {
		ix.ords[docs[i].unid] = uint32(i)
	}
	ix.postings = make(map[string]*postingList, len(terms))
	lists := make([]postingList, len(terms))
	all := make([]posting, len(entries))
	start := 0
	for i, t := range terms {
		pl := &lists[i]
		pl.term, pl.list, all = t.name, all[:t.docs:t.docs], all[t.docs:]
		for k, e := range entries[:t.docs] {
			d := &docs[e.ord]
			pl.list[k] = posting{ord: uint32(e.ord), start: uint32(len(d.slab)), n: uint32(e.end - start)}
			d.slab = append(d.slab, pos[start:e.end]...)
			d.terms = append(d.terms, pl)
			start = e.end
		}
		entries = entries[t.docs:]
		ix.postings[t.name] = pl
	}
	return ix, nil
}

// Docs returns the indexed document UNIDs (unsorted).
func (ix *Index) Docs() []nsf.UNID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]nsf.UNID, 0, ix.live)
	for _, d := range ix.docs {
		if d.live {
			out = append(out, d.unid)
		}
	}
	return out
}
