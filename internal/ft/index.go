package ft

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/acl"
	"repro/internal/nsf"
)

// Index is an inverted full-text index over a database's documents. It is
// safe for concurrent use.
//
// Each document has a dense ordinal, its slot in docs; a posting list is
// its term's documents in ordinal order. A new document takes the next
// ordinal, so every list it joins is appended to; an updated one keeps its
// ordinal; a removed one leaves its slot free and its postings dead, and
// once free slots outnumber live documents one order-preserving pass
// renumbers them all. Searches merge posting lists in ordinal order.
type Index struct {
	mu sync.RWMutex
	// postings maps term -> its posting list.
	postings map[string]*postingList
	// ords maps each indexed document to its ordinal.
	ords map[nsf.UNID]uint32
	// docs holds each ordinal's document; a removed document's slot is
	// free (live false) until the next renumbering.
	docs []docEntry
	live int // documents indexed: the live slots of docs

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

// docEntry is one indexed document.
type docEntry struct {
	unid nsf.UNID
	live bool
	// access carries a restricted document's acl.ReadAccess list so
	// searches can be access-filtered without loading notes from the store.
	access []string
	// terms are the posting lists holding the document, for its removal.
	terms []*postingList
	// slab holds the document's term positions grouped by term: each of its
	// postings is a window of it, so a document costs one positions
	// allocation however many terms it has.
	slab []int32
}

// postingList is a term's documents in increasing ordinal order. It carries
// its own key, so Update interns a term it has seen before without
// allocating.
//
// A document leaving the list leaves its posting dead in place, so no
// removal moves the list; a document regaining the term revives it. The
// list is compacted once its dead postings outnumber its live ones, and
// dropped from the index when it has none live.
type postingList struct {
	term string
	list []posting
	dead int
}

// df is the term's document frequency: its live postings.
func (pl *postingList) df() int { return len(pl.list) - pl.dead }

// posting is one document holding a term: its ordinal, and the window of
// its slab holding the term's positions in the document's token stream, in
// increasing order. A live posting has at least one position; n == 0 marks
// a dead one.
type posting struct {
	ord, start, n uint32
}

// positions returns p's window of its document's slab.
func (ix *Index) positions(p posting) []int32 {
	return ix.docs[p.ord].slab[p.start : p.start+p.n]
}

// find returns where ord is, or belongs, in pl's list.
func (pl *postingList) find(ord uint32) (int, bool) {
	return slices.BinarySearchFunc(pl.list, ord, func(p posting, o uint32) int {
		return cmp.Compare(p.ord, o)
	})
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	ix := &Index{
		postings: make(map[string]*postingList),
		ords:     make(map[nsf.UNID]uint32),
	}
	ix.work.ids = make(map[string]int32)
	return ix
}

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.live
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
// the write lock, the document leaves the lists of the terms it no longer
// has and takes its windows in the rest, appended at the end of each list
// for a new document.
func (ix *Index) Update(n *nsf.Note) {
	unid := n.OID.UNID
	if n.IsStub() || n.Class != nsf.ClassDocument {
		ix.Remove(unid)
		return
	}
	access := ownedAccess(n)
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
			var t string
			if pl := ix.postings[string(b)]; pl != nil {
				t = pl.term
			} else {
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
	sc.w.reset("") // the index keeps nothing of the note
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
	terms := make([]*postingList, len(sc.terms))

	ix.mu.Lock()
	defer ix.mu.Unlock()
	ord, ok := ix.ords[unid]
	if !ok {
		ord = uint32(len(ix.docs))
		ix.ords[unid] = ord
		ix.docs = append(ix.docs, docEntry{unid: unid, live: true})
		ix.live++
	}
	d := &ix.docs[ord]
	for _, pl := range d.terms {
		if _, kept := sc.ids[pl.term]; !kept {
			ix.dropPostingLocked(pl, ord)
		}
	}
	var start int32
	for id, t := range sc.terms {
		pl := ix.postings[t]
		if pl == nil {
			pl = &postingList{term: t}
			ix.postings[t] = pl
		}
		terms[id] = pl
		end := sc.ends[id]
		p := posting{ord: ord, start: uint32(start), n: uint32(end - start)}
		start = end
		if k := len(pl.list); k == 0 || pl.list[k-1].ord < ord {
			pl.list = append(pl.list, p)
		} else if i, found := pl.find(ord); found {
			if pl.list[i].n == 0 {
				pl.dead--
			}
			pl.list[i] = p
		} else {
			pl.list = slices.Insert(pl.list, i, p)
		}
	}
	d.terms, d.slab, d.access = terms, slab, access
}

// ownedAccess returns n's acl.ReadAccess list with the names copied into
// one string of the list's own: the note's strings may be parts of its
// whole record, which a kept name would keep alive.
func ownedAccess(n *nsf.Note) []string {
	access := acl.ReadAccess(n) // a fresh slice
	all := strings.Join(access, "")
	for i, a := range access {
		access[i], all = all[:len(a)], all[len(a):]
	}
	return access
}

// Remove drops a document from the index.
func (ix *Index) Remove(unid nsf.UNID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ord, ok := ix.ords[unid]
	if !ok {
		return
	}
	for _, pl := range ix.docs[ord].terms {
		ix.dropPostingLocked(pl, ord)
	}
	ix.docs[ord] = docEntry{}
	delete(ix.ords, unid)
	ix.live--
	if len(ix.docs)-ix.live > ix.live {
		ix.renumberLocked()
	}
}

// dropPostingLocked marks ord's posting on pl dead, compacting pl once most
// of it is dead and taking pl's term off the index with its last document.
func (ix *Index) dropPostingLocked(pl *postingList, ord uint32) {
	i, found := pl.find(ord)
	if !found || pl.list[i].n == 0 {
		return
	}
	pl.list[i].n = 0
	switch pl.dead++; {
	case pl.df() == 0:
		delete(ix.postings, pl.term)
	case pl.dead > pl.df():
		pl.list = slices.DeleteFunc(pl.list, dead)
		pl.dead = 0
	}
}

func dead(p posting) bool { return p.n == 0 }

// renumberLocked closes the free slots up: the live documents take
// ordinals 0, 1, … in the order they had, so every posting list stays
// sorted as it drops its dead postings and is rewritten.
func (ix *Index) renumberLocked() {
	renum := make([]uint32, len(ix.docs))
	live := ix.docs[:0]
	for ord, d := range ix.docs {
		if d.live {
			renum[ord] = uint32(len(live))
			ix.ords[d.unid] = uint32(len(live))
			live = append(live, d)
		}
	}
	clear(ix.docs[len(live):])
	ix.docs = live
	for _, pl := range ix.postings {
		pl.list, pl.dead = slices.DeleteFunc(pl.list, dead), 0
		for i := range pl.list {
			pl.list[i].ord = renum[pl.list[i].ord]
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
// checked at every query-tree node and again before ranking, so a query
// whose budget expires mid-evaluation releases the index's read lock
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
	e := evaluators.Get().(*evaluator)
	defer e.done()
	e.ix, e.ctx = ix, ctx
	hits, err := e.eval(q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Result, len(hits))
	for i, h := range hits {
		d := &ix.docs[h.ord]
		out[i] = Result{UNID: d.unid, Score: h.score, Access: d.access}
	}
	e.release(hits)
	slices.SortFunc(out, func(a, b Result) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return bytes.Compare(a.UNID[:], b.UNID[:])
	})
	return out, nil
}

// hit is one document's score in a query node's result. A node's hits are
// in increasing ordinal order.
type hit struct {
	ord   uint32
	score float64
}

// evaluator is one search's working memory: the hit buffers its query
// nodes write into, each taken back once its node's parent has merged it,
// so a search allocates none of them once the pool has grown.
type evaluator struct {
	ix   *Index
	ctx  context.Context
	free [][]hit
	curs []cursor // a phrase's place in each of its terms' lists
}

var evaluators = sync.Pool{New: func() any { return new(evaluator) }}

// done returns e to the pool.
func (e *evaluator) done() {
	e.ix, e.ctx = nil, nil
	evaluators.Put(e)
}

// buf returns an empty hit buffer with room for n hits.
func (e *evaluator) buf(n int) []hit {
	var b []hit
	if k := len(e.free); k > 0 {
		b, e.free = e.free[k-1], e.free[:k-1]
	}
	return slices.Grow(b[:0], n)
}

// release takes a buffer back.
func (e *evaluator) release(b []hit) {
	if cap(b) > 0 {
		e.free = append(e.free, b)
	}
}

// eval evaluates one query node, checking the deadline first. A leaf (one
// term or phrase's postings) runs uninterrupted: it is bounded by its
// posting lists, while AND/OR/NOT trees can multiply that work.
//
// Scores are those of the plain definition: a term scores (1 + ln tf) ·
// idf, AND and OR add their operands' scores left to right, and NOT scores
// a flat 0.1 for carrying no relevance signal.
func (e *evaluator) eval(q qnode) ([]hit, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	switch q := q.(type) {
	case qTerm:
		return e.term(e.ix.postings[q.term]), nil
	case qPhrase:
		return e.phrase(q.terms), nil
	case qAnd:
		l, r := q.l, q.r
		if lt, ok := l.(qTerm); ok {
			// Of two terms, the shorter list is walked and the other
			// galloped through; addition commutes.
			if rt, ok := r.(qTerm); ok && e.df(rt.term) < e.df(lt.term) {
				l, r = r, l
			}
		}
		hits, err := e.eval(l)
		if err != nil || len(hits) == 0 {
			return hits, err
		}
		switch r := r.(type) {
		case qTerm:
			return e.andTerm(hits, e.ix.postings[r.term]), nil
		case qNot:
			if err := e.ctx.Err(); err != nil {
				return nil, err
			}
			x, err := e.eval(r.x)
			if err != nil {
				return nil, err
			}
			return e.andNot(hits, x), nil
		}
		x, err := e.eval(r)
		if err != nil {
			return nil, err
		}
		return e.and(hits, x), nil
	case qOr:
		l, err := e.eval(q.l)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(q.r)
		if err != nil {
			return nil, err
		}
		return e.or(l, r), nil
	case qNot:
		x, err := e.eval(q.x)
		if err != nil {
			return nil, err
		}
		return e.not(x), nil
	}
	return nil, nil
}

// df is a term's document frequency.
func (e *evaluator) df(term string) int {
	if pl := e.ix.postings[term]; pl != nil {
		return pl.df()
	}
	return 0
}

// idf is a term's inverse document frequency over the live documents.
func (ix *Index) idf(pl *postingList) float64 {
	if pl == nil || pl.df() == 0 {
		return 0
	}
	return math.Log(1 + float64(ix.live)/float64(pl.df()))
}

// tfWeights[n] is 1 + ln n, the weight of a term a document holds n times,
// for the small n nearly every posting has.
var tfWeights = func() (w [256]float64) {
	for n := 1; n < len(w); n++ {
		w[n] = 1 + math.Log(float64(n))
	}
	return w
}()

// score is (1 + ln n) · weight, rounded to float64 before anything adds to
// it: the explicit conversion keeps a compiler from fusing it with an
// addition, so scores are the same bits whichever way a node reaches them.
func score(n uint32, weight float64) float64 {
	if n < uint32(len(tfWeights)) {
		return float64(tfWeights[n] * weight)
	}
	return float64((1 + math.Log(float64(n))) * weight)
}

// term scores every document on a term's list.
func (e *evaluator) term(pl *postingList) []hit {
	if pl == nil {
		return nil
	}
	idf := e.ix.idf(pl)
	out := e.buf(pl.df())
	for _, p := range pl.list {
		if p.n > 0 {
			out = append(out, hit{p.ord, score(p.n, idf)})
		}
	}
	return out
}

// andTerm keeps the hits on a term's list, adding the term's score: one
// pass over hits, galloping through the list. It writes over hits.
func (e *evaluator) andTerm(hits []hit, pl *postingList) []hit {
	if pl == nil {
		e.release(hits)
		return nil
	}
	idf := e.ix.idf(pl)
	out, j := hits[:0], 0
	for _, h := range hits {
		if j = seekPosting(pl.list, j, h.ord); j == len(pl.list) {
			break
		}
		if p := pl.list[j]; p.ord == h.ord && p.n > 0 {
			out = append(out, hit{h.ord, h.score + score(p.n, idf)})
		}
	}
	return out
}

// and keeps the hits of l that r also has, adding r's score: one pass over
// l, galloping through r. It writes over l.
func (e *evaluator) and(l, r []hit) []hit {
	out, j := l[:0], 0
	for _, h := range l {
		if j = seekHit(r, j, h.ord); j == len(r) {
			break
		}
		if r[j].ord == h.ord {
			out = append(out, hit{h.ord, h.score + r[j].score})
		}
	}
	e.release(r)
	return out
}

// andNot keeps the hits of l that x lacks, adding NOT's flat score. It
// writes over l.
func (e *evaluator) andNot(l, x []hit) []hit {
	out, j := l[:0], 0
	for _, h := range l {
		if j = seekHit(x, j, h.ord); j == len(x) || x[j].ord != h.ord {
			out = append(out, hit{h.ord, h.score + notScore})
		}
	}
	e.release(x)
	return out
}

// notScore is the flat score NOT gives every document it matches.
const notScore = 0.1

// or merges l and r, adding the scores of the hits they share.
func (e *evaluator) or(l, r []hit) []hit {
	out := e.buf(len(l) + len(r))
	i, j := 0, 0
	for i < len(l) && j < len(r) {
		switch a, b := l[i], r[j]; {
		case a.ord < b.ord:
			out = append(out, a)
			i++
		case a.ord > b.ord:
			out = append(out, b)
			j++
		default:
			out = append(out, hit{a.ord, a.score + b.score})
			i++
			j++
		}
	}
	out = append(append(out, l[i:]...), r[j:]...)
	e.release(l)
	e.release(r)
	return out
}

// not returns every live document x lacks.
func (e *evaluator) not(x []hit) []hit {
	out := e.buf(e.ix.live)
	j := 0
	for ord, d := range e.ix.docs {
		if !d.live {
			continue
		}
		for j < len(x) && x[j].ord < uint32(ord) {
			j++
		}
		if j == len(x) || x[j].ord != uint32(ord) {
			out = append(out, hit{uint32(ord), notScore})
		}
	}
	e.release(x)
	return out
}

// phrase matches the documents holding the terms consecutively: it walks
// the first term's list, gallops through the others', and checks positions
// only in the documents every list has.
func (e *evaluator) phrase(terms []string) []hit {
	ix := e.ix
	weight := 0.0
	e.curs = e.curs[:0]
	for _, t := range terms {
		pl := ix.postings[t]
		if pl == nil {
			return nil
		}
		weight += ix.idf(pl)
		e.curs = append(e.curs, cursor{list: pl.list})
	}
	first, rest := e.curs[0].list, e.curs[1:]
	out := e.buf(len(first))
docs:
	for _, p := range first {
		if p.n == 0 {
			continue
		}
		for k := range rest {
			c := &rest[k]
			if c.at = seekPosting(c.list, c.at, p.ord); c.at == len(c.list) {
				break docs
			}
			if q := c.list[c.at]; q.ord != p.ord || q.n == 0 {
				continue docs
			}
		}
		count := uint32(0)
	starts:
		for _, start := range ix.positions(p) {
			for k, c := range rest {
				if !containsPos(ix.positions(c.list[c.at]), start+int32(k)+1) {
					continue starts
				}
			}
			count++
		}
		if count > 0 {
			out = append(out, hit{p.ord, score(count, weight)})
		}
	}
	return out
}

// cursor is a place in a posting list.
type cursor struct {
	list []posting
	at   int
}

// seekPosting returns the index of the first posting at or after lo whose
// ordinal is at least ord: it gallops ahead in doubling steps to bracket
// ord, then binary searches the bracket.
func seekPosting(list []posting, lo int, ord uint32) int {
	hi := lo
	for step := 1; hi < len(list) && list[hi].ord < ord; step <<= 1 {
		lo, hi = hi+1, hi+step
	}
	for hi = min(hi, len(list)); lo < hi; {
		if mid := int(uint(lo+hi) >> 1); list[mid].ord < ord {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seekHit is seekPosting over a node's hits.
func seekHit(hits []hit, lo int, ord uint32) int {
	hi := lo
	for step := 1; hi < len(hits) && hits[hi].ord < ord; step <<= 1 {
		lo, hi = hi+1, hi+step
	}
	for hi = min(hi, len(hits)); lo < hi; {
		if mid := int(uint(lo+hi) >> 1); hits[mid].ord < ord {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
