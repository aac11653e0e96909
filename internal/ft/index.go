package ft

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sort"
	"sync"

	"repro/internal/nsf"
)

// Index is an inverted full-text index over a database's documents. It is
// safe for concurrent use.
type Index struct {
	mu sync.RWMutex
	// postings maps term -> document -> positions of the term in the
	// document's token stream.
	postings map[string]map[nsf.UNID][]int32
	// docTerms remembers each document's distinct terms for removal.
	docTerms map[nsf.UNID][]string
	// docReaders carries each document's Reader-item restriction (nil when
	// unrestricted) so searches can be access-filtered without loading
	// notes from the store.
	docReaders map[nsf.UNID][]string
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		postings:   make(map[string]map[nsf.UNID][]int32),
		docTerms:   make(map[nsf.UNID][]string),
		docReaders: make(map[nsf.UNID][]string),
	}
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
func (ix *Index) Update(n *nsf.Note) {
	if n.IsStub() || n.Class != nsf.ClassDocument {
		ix.Remove(n.OID.UNID)
		return
	}
	terms := noteTerms(n)
	pos := make(map[string][]int32)
	for i, t := range terms {
		pos[t] = append(pos[t], int32(i))
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(n.OID.UNID)
	distinct := make([]string, 0, len(pos))
	for t, ps := range pos {
		m := ix.postings[t]
		if m == nil {
			m = make(map[nsf.UNID][]int32)
			ix.postings[t] = m
		}
		m[n.OID.UNID] = ps
		distinct = append(distinct, t)
	}
	ix.docTerms[n.OID.UNID] = distinct
	if readers := n.Readers(); len(readers) > 0 {
		ix.docReaders[n.OID.UNID] = readers
	}
}

// Remove drops a document from the index.
func (ix *Index) Remove(unid nsf.UNID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(unid)
}

func (ix *Index) removeLocked(unid nsf.UNID) {
	terms, ok := ix.docTerms[unid]
	if !ok {
		return
	}
	for _, t := range terms {
		if m := ix.postings[t]; m != nil {
			delete(m, unid)
			if len(m) == 0 {
				delete(ix.postings, t)
			}
		}
	}
	delete(ix.docTerms, unid)
	delete(ix.docReaders, unid)
}

// Result is one search hit.
type Result struct {
	UNID  nsf.UNID
	Score float64
	// Readers carries the document's Reader-item restriction as of indexing
	// time (nil when unrestricted), for access filtering without a store
	// load.
	Readers []string
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
		out = append(out, Result{UNID: unid, Score: score, Readers: ix.docReaders[unid]})
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
	df := len(ix.postings[term])
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(len(ix.docTerms))/float64(df))
}

func (ix *Index) evalTerm(term string) map[nsf.UNID]float64 {
	m := ix.postings[term]
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
	first := ix.postings[terms[0]]
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
				m := ix.postings[t]
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
	var out []Result
	err = scan(func(n *nsf.Note) bool {
		if n.IsStub() || n.Class != nsf.ClassDocument {
			return true
		}
		terms := noteTerms(n)
		pos := make(map[string][]int32)
		for i, t := range terms {
			pos[t] = append(pos[t], int32(i))
		}
		if matchScan(q, pos) {
			out = append(out, Result{UNID: n.OID.UNID, Score: 1})
		}
		return true
	})
	return out, err
}

func matchScan(q qnode, pos map[string][]int32) bool {
	switch q := q.(type) {
	case qTerm:
		return len(pos[q.term]) > 0
	case qPhrase:
		starts := pos[q.terms[0]]
	starts:
		for _, p := range starts {
			for off, t := range q.terms[1:] {
				if !containsPos(pos[t], p+int32(off)+1) {
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
