package ft

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sort"
	"sync"

	"repro/internal/acl"
	"repro/internal/nsf"
)

// Index is an inverted full-text index over a database's documents. It is
// safe for concurrent use.
type Index struct {
	mu sync.RWMutex
	// postings maps term -> its posting list.
	postings map[string]postingList
	// docTerms remembers each document's distinct terms (postings keys) for
	// removal.
	docTerms map[nsf.UNID][]string
	// docAccess carries each restricted document's acl.ReadAccess list so
	// searches can be access-filtered without loading notes from the store.
	docAccess map[nsf.UNID][]string

	// work is Update's working memory, reused from one document to the
	// next; its lock serializes Updates.
	work struct {
		sync.Mutex
		w     termWalker
		ids   map[string]int32 // term -> its index in terms
		terms []string         // the document's distinct terms, interned
		ends  []int32          // per term: its count, its window's start, then its end
		toks  []int32          // per token, in order: its term's index
	}
}

// postingList maps each document holding a term to the term's positions in
// the document's token stream, in increasing order. It carries its own key,
// so Update interns a term it has seen before without allocating. All of
// one document's positions share one slab, each term a full-slice window of
// it, so a document costs one positions allocation however many terms it
// has.
type postingList struct {
	term string
	docs map[nsf.UNID][]int32
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	ix := &Index{
		postings:  make(map[string]postingList),
		docTerms:  make(map[nsf.UNID][]string),
		docAccess: make(map[nsf.UNID][]string),
	}
	ix.work.ids = make(map[string]int32)
	return ix
}

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docTerms)
}

// TermCount returns the number of distinct terms.
func (ix *Index) TermCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Update (re)indexes a note. Deletion stubs and non-documents are removed.
// One pass over the note's terms counts each distinct term's tokens; a
// second lays their positions into one slab, grouped by term; then, under
// the write lock, the document leaves the terms it no longer has and takes
// its windows in the rest.
func (ix *Index) Update(n *nsf.Note) {
	unid := n.OID.UNID
	if n.IsStub() || n.Class != nsf.ClassDocument {
		ix.Remove(unid)
		return
	}
	access := acl.ReadAccess(n)
	sc := &ix.work
	sc.Lock()
	defer sc.Unlock()
	clear(sc.ids)
	sc.terms, sc.ends, sc.toks = sc.terms[:0], sc.ends[:0], sc.toks[:0]
	ix.mu.RLock()
	for sc.w.resetNote(n); ; {
		b, ok := sc.w.next()
		if !ok {
			break
		}
		id, seen := sc.ids[string(b)]
		if !seen {
			t := ix.postings[string(b)].term
			if t == "" {
				t = string(b)
			}
			id = int32(len(sc.terms))
			sc.ids[t] = id
			sc.terms = append(sc.terms, t)
			sc.ends = append(sc.ends, 0)
		}
		sc.ends[id]++
		sc.toks = append(sc.toks, id)
	}
	ix.mu.RUnlock()
	var end int32
	for id, count := range sc.ends {
		sc.ends[id] = end // the window's start, until filled
		end += count
	}
	slab := make([]int32, len(sc.toks))
	for pos, id := range sc.toks {
		slab[sc.ends[id]] = int32(pos)
		sc.ends[id]++
	}
	terms := make([]string, len(sc.terms))
	copy(terms, sc.terms)

	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, t := range ix.docTerms[unid] {
		if _, kept := sc.ids[t]; !kept {
			ix.dropPostingLocked(t, unid)
		}
	}
	var start int32
	for id, t := range terms {
		pl := ix.postings[t]
		if pl.docs == nil {
			pl = postingList{term: t, docs: make(map[nsf.UNID][]int32, 1)}
			ix.postings[t] = pl
		}
		end := sc.ends[id]
		pl.docs[unid] = slab[start:end:end]
		start = end
	}
	ix.docTerms[unid] = terms
	if len(access) > 0 {
		ix.docAccess[unid] = access
	} else {
		delete(ix.docAccess, unid)
	}
}

// Remove drops a document from the index.
func (ix *Index) Remove(unid nsf.UNID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, t := range ix.docTerms[unid] {
		ix.dropPostingLocked(t, unid)
	}
	delete(ix.docTerms, unid)
	delete(ix.docAccess, unid)
}

// dropPostingLocked takes unid off term's posting list, and the term off
// the index with its last document.
func (ix *Index) dropPostingLocked(term string, unid nsf.UNID) {
	if docs := ix.postings[term].docs; docs != nil {
		delete(docs, unid)
		if len(docs) == 0 {
			delete(ix.postings, term)
		}
	}
}

// Result is one search hit.
type Result struct {
	UNID  nsf.UNID
	Score float64
	// Access is the document's acl.ReadAccess list as of indexing time (nil
	// when unrestricted), for access filtering without a store load.
	Access []string
}

// Search evaluates query and returns hits ranked by tf-idf score. A query
// that normalizes to nothing (stopwords and punctuation only) matches no
// documents rather than erroring; malformed queries still return errors.
func (ix *Index) Search(query string) ([]Result, error) {
	return ix.SearchCtx(context.Background(), query)
}

// SearchCtx is Search with cooperative cancellation: the deadline is
// checked at every query-tree node and again before the ranking sort, so a
// query whose budget expires mid-evaluation releases the index's read lock
// promptly instead of scoring postings for a caller that already gave up.
func (ix *Index) SearchCtx(ctx context.Context, query string) ([]Result, error) {
	q, err := parseQuery(query)
	if errors.Is(err, ErrEmptyQuery) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	scores, err := ix.evalCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(scores))
	for unid, score := range scores {
		out = append(out, Result{UNID: unid, Score: score, Access: ix.docAccess[unid]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return bytes.Compare(out[i].UNID[:], out[j].UNID[:]) < 0
	})
	return out, nil
}

// evalCtx walks the query tree, checking the deadline at each interior
// node. Leaf evaluation (one term or phrase's postings) runs
// uninterrupted — it is bounded by a single posting list, while AND/OR/NOT
// trees can multiply that work arbitrarily.
func (ix *Index) evalCtx(ctx context.Context, q qnode) (map[nsf.UNID]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch q := q.(type) {
	case qAnd:
		l, err := ix.evalCtx(ctx, q.l)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return l, nil
		}
		r, err := ix.evalCtx(ctx, q.r)
		if err != nil {
			return nil, err
		}
		out := make(map[nsf.UNID]float64)
		for unid, s := range l {
			if s2, ok := r[unid]; ok {
				out[unid] = s + s2
			}
		}
		return out, nil
	case qOr:
		l, err := ix.evalCtx(ctx, q.l)
		if err != nil {
			return nil, err
		}
		r, err := ix.evalCtx(ctx, q.r)
		if err != nil {
			return nil, err
		}
		out := make(map[nsf.UNID]float64, len(l)+len(r))
		for unid, s := range l {
			out[unid] = s
		}
		for unid, s := range r {
			out[unid] += s
		}
		return out, nil
	case qNot:
		exclude, err := ix.evalCtx(ctx, q.x)
		if err != nil {
			return nil, err
		}
		out := make(map[nsf.UNID]float64)
		for unid := range ix.docTerms {
			if _, ok := exclude[unid]; !ok {
				out[unid] = 0.1 // flat score: NOT carries no relevance signal
			}
		}
		return out, nil
	default:
		return ix.eval(q), nil
	}
}

// eval scores a leaf of the query tree: one term or phrase's postings.
// evalCtx owns the interior nodes.
func (ix *Index) eval(q qnode) map[nsf.UNID]float64 {
	switch q := q.(type) {
	case qTerm:
		return ix.evalTerm(q.term)
	case qPhrase:
		return ix.evalPhrase(q.terms)
	default:
		return nil
	}
}

func (ix *Index) idf(term string) float64 {
	df := len(ix.postings[term].docs)
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(len(ix.docTerms))/float64(df))
}

func (ix *Index) evalTerm(term string) map[nsf.UNID]float64 {
	m := ix.postings[term].docs
	if m == nil {
		return nil
	}
	idf := ix.idf(term)
	out := make(map[nsf.UNID]float64, len(m))
	for unid, positions := range m {
		out[unid] = (1 + math.Log(float64(len(positions)))) * idf
	}
	return out
}

// evalPhrase matches documents containing the terms consecutively.
func (ix *Index) evalPhrase(terms []string) map[nsf.UNID]float64 {
	if len(terms) == 0 {
		return nil
	}
	first := ix.postings[terms[0]].docs
	if first == nil {
		return nil
	}
	score := 0.0
	for _, t := range terms {
		score += ix.idf(t)
	}
	out := make(map[nsf.UNID]float64)
	for unid, starts := range first {
		count := 0
	starts:
		for _, p := range starts {
			for off, t := range terms[1:] {
				m := ix.postings[t].docs
				if m == nil {
					return nil
				}
				if !containsPos(m[unid], p+int32(off)+1) {
					continue starts
				}
			}
			count++
		}
		if count > 0 {
			out[unid] = (1 + math.Log(float64(count))) * score
		}
	}
	return out
}

func containsPos(ps []int32, want int32) bool {
	// Positions are appended in increasing order; binary search.
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ps[mid] < want:
			lo = mid + 1
		case ps[mid] > want:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// ScanSearch is the unindexed baseline: it evaluates query by tokenizing
// every note supplied by scan. Results are unranked (score 1).
func ScanSearch(query string, scan func(fn func(*nsf.Note) bool) error) ([]Result, error) {
	q, err := parseQuery(query)
	if errors.Is(err, ErrEmptyQuery) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	// One positions map, keyed by the query's terms, serves every note.
	pos := scanPositions{}
	pos.add(q)
	var w termWalker
	var out []Result
	err = scan(func(n *nsf.Note) bool {
		if n.IsStub() || n.Class != nsf.ClassDocument {
			return true
		}
		for _, ps := range pos {
			*ps = (*ps)[:0]
		}
		w.resetNote(n)
		for i := int32(0); ; i++ {
			t, ok := w.next()
			if !ok {
				break
			}
			if ps := pos[string(t)]; ps != nil {
				*ps = append(*ps, i)
			}
		}
		if matchScan(q, pos) {
			out = append(out, Result{UNID: n.OID.UNID, Score: 1})
		}
		return true
	})
	return out, err
}

// scanPositions holds one note's positions of each term a query names.
type scanPositions map[string]*[]int32

// add makes room for every term of q.
func (pos scanPositions) add(q qnode) {
	switch q := q.(type) {
	case qTerm:
		pos[q.term] = new([]int32)
	case qPhrase:
		for _, t := range q.terms {
			pos[t] = new([]int32)
		}
	case qAnd:
		pos.add(q.l)
		pos.add(q.r)
	case qOr:
		pos.add(q.l)
		pos.add(q.r)
	case qNot:
		pos.add(q.x)
	}
}

func matchScan(q qnode, pos scanPositions) bool {
	switch q := q.(type) {
	case qTerm:
		return len(*pos[q.term]) > 0
	case qPhrase:
		starts := *pos[q.terms[0]]
	starts:
		for _, p := range starts {
			for off, t := range q.terms[1:] {
				if !containsPos(*pos[t], p+int32(off)+1) {
					continue starts
				}
			}
			return true
		}
		return false
	case qAnd:
		return matchScan(q.l, pos) && matchScan(q.r, pos)
	case qOr:
		return matchScan(q.l, pos) || matchScan(q.r, pos)
	case qNot:
		return !matchScan(q.x, pos)
	default:
		return false
	}
}
