package ft

import "repro/internal/nsf"

// HitSummary is a search hit joined with projected item values, so a hit
// list can render (subject, author, date columns) without a per-hit
// document fetch.
type HitSummary struct {
	Result
	// Pos is the hit's position in the hit list it was paged from.
	Pos int
	// Values holds one value per requested column, in request order. A
	// column the document lacks is the zero Value (Type 0).
	Values []nsf.Value
}

// JoinPage joins the named items onto hits in rank order, from position
// start until limit hits have joined (limit <= 0: to the end), loading each
// hit's document through load. A hit whose load fails is skipped — the
// document vanished (or became unreadable) since indexing, and a hit list
// should not surface rows the caller cannot open. It returns the page, the
// position after the last hit it used, and how many hits it skipped. With
// no columns nothing is joined and no document is loaded: the page is the
// window of hits.
func JoinPage(hits []Result, start, limit int, columns []string, load func(nsf.UNID) (*nsf.Note, error)) (page []HitSummary, next, skipped int) {
	start = min(max(start, 0), len(hits))
	if limit <= 0 {
		limit = len(hits)
	}
	page = make([]HitSummary, 0, min(limit, len(hits)-start))
	next = start
	for ; next < len(hits) && len(page) < limit; next++ {
		h := HitSummary{Result: hits[next], Pos: next}
		if len(columns) > 0 {
			n, err := load(h.UNID)
			if err != nil {
				skipped++
				continue
			}
			h.Values = make([]nsf.Value, len(columns))
			for i, c := range columns {
				if n.Has(c) {
					h.Values[i] = n.Get(c)
				}
			}
		}
		page = append(page, h)
	}
	return page, next, skipped
}
