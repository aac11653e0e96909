package ft

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sort"

	"repro/internal/acl"
	"repro/internal/nsf"
)

// oracle is the full-text index in its plainest form: postings keyed by
// UNID in maps, and every query node evaluated into a map of its own. It is
// the reference the ordinal index's results, scores and order must equal
// bit for bit.
type oracle struct {
	postings  map[string]map[nsf.UNID][]int32
	docTerms  map[nsf.UNID][]string
	docAccess map[nsf.UNID][]string
}

func newOracle() *oracle {
	return &oracle{
		postings:  make(map[string]map[nsf.UNID][]int32),
		docTerms:  make(map[nsf.UNID][]string),
		docAccess: make(map[nsf.UNID][]string),
	}
}

// update (re)indexes a note; stubs and non-documents are removed.
func (o *oracle) update(n *nsf.Note) {
	unid := n.OID.UNID
	o.remove(unid)
	if n.IsStub() || n.Class != nsf.ClassDocument {
		return
	}
	positions := map[string][]int32{}
	var terms []string
	var w termWalker
	w.resetNote(n)
	for pos := int32(0); ; pos++ {
		b, ok := w.next()
		if !ok {
			break
		}
		t := string(b)
		if positions[t] == nil {
			terms = append(terms, t)
		}
		positions[t] = append(positions[t], pos)
	}
	for t, ps := range positions {
		if o.postings[t] == nil {
			o.postings[t] = make(map[nsf.UNID][]int32)
		}
		o.postings[t][unid] = ps
	}
	o.docTerms[unid] = terms
	if access := acl.ReadAccess(n); len(access) > 0 {
		o.docAccess[unid] = access
	}
}

// remove drops a document.
func (o *oracle) remove(unid nsf.UNID) {
	for _, t := range o.docTerms[unid] {
		delete(o.postings[t], unid)
		if len(o.postings[t]) == 0 {
			delete(o.postings, t)
		}
	}
	delete(o.docTerms, unid)
	delete(o.docAccess, unid)
}

// search is SearchCtx's definition: evaluate the query into a map of
// scores, then rank by score, ties by UNID.
func (o *oracle) search(query string) ([]Result, error) {
	q, err := parseQuery(query)
	if errors.Is(err, ErrEmptyQuery) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	scores, err := o.evalCtx(context.Background(), q)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(scores))
	for unid, score := range scores {
		out = append(out, Result{UNID: unid, Score: score, Access: o.docAccess[unid]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return bytes.Compare(out[i].UNID[:], out[j].UNID[:]) < 0
	})
	return out, nil
}

func (o *oracle) evalCtx(ctx context.Context, q qnode) (map[nsf.UNID]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch q := q.(type) {
	case qAnd:
		l, err := o.evalCtx(ctx, q.l)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return l, nil
		}
		r, err := o.evalCtx(ctx, q.r)
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
		l, err := o.evalCtx(ctx, q.l)
		if err != nil {
			return nil, err
		}
		r, err := o.evalCtx(ctx, q.r)
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
		exclude, err := o.evalCtx(ctx, q.x)
		if err != nil {
			return nil, err
		}
		out := make(map[nsf.UNID]float64)
		for unid := range o.docTerms {
			if _, ok := exclude[unid]; !ok {
				out[unid] = 0.1 // flat score: NOT carries no relevance signal
			}
		}
		return out, nil
	case qTerm:
		return o.evalTerm(q.term), nil
	case qPhrase:
		return o.evalPhrase(q.terms), nil
	}
	return nil, nil
}

func (o *oracle) idf(term string) float64 {
	df := len(o.postings[term])
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(len(o.docTerms))/float64(df))
}

func (o *oracle) evalTerm(term string) map[nsf.UNID]float64 {
	m := o.postings[term]
	if m == nil {
		return nil
	}
	idf := o.idf(term)
	out := make(map[nsf.UNID]float64, len(m))
	for unid, positions := range m {
		out[unid] = (1 + math.Log(float64(len(positions)))) * idf
	}
	return out
}

// evalPhrase matches documents containing the terms consecutively.
func (o *oracle) evalPhrase(terms []string) map[nsf.UNID]float64 {
	first := o.postings[terms[0]]
	if first == nil {
		return nil
	}
	score := 0.0
	for _, t := range terms {
		score += o.idf(t)
	}
	out := make(map[nsf.UNID]float64)
	for unid, starts := range first {
		count := 0
	starts:
		for _, p := range starts {
			for off, t := range terms[1:] {
				m := o.postings[t]
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
