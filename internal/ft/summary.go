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
