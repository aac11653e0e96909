package kit

import "time"

// Slices cuts a measured window into equal slices and keeps, per slice,
// the operations completed and the latencies of the gated class. A
// run reports the median over slices, so that a disturbance shorter than
// the run (a collection, a checkpoint, a neighbour on the host) moves the
// slices it hits and not the result. Like Hist, one goroutine owns one.
type Slices struct {
	start time.Time
	width time.Duration
	s     []Slice
}

// Slice is one slice's tally.
type Slice struct {
	Ops   int
	Point Hist
}

// NewSlices covers [start, start+window) with n slices.
func NewSlices(start time.Time, window time.Duration, n int) *Slices {
	return &Slices{start: start, width: window / time.Duration(n), s: make([]Slice, n)}
}

// At returns the slice t falls in; a time past the window's end belongs to
// the last slice.
func (sl *Slices) At(t time.Time) *Slice {
	i := int(t.Sub(sl.start) / sl.width)
	return &sl.s[max(0, min(i, len(sl.s)-1))]
}

// Summary is the median over slices of the throughput and of the gated
// class's median latency, with the sample counts behind them.
type Summary struct {
	OpsPerSec   float64
	PointNs     float64
	Ops, Points int
}

// Summarize pools the slices of several owners index by index and takes
// the medians. A slice without a latency sample is left out of the latency's
// median.
func Summarize(owners ...*Slices) Summary {
	var sum Summary
	var rates, points []float64
	for i := range owners[0].s {
		var pooled Slice
		for _, o := range owners {
			pooled.Ops += o.s[i].Ops
			pooled.Point.Merge(&o.s[i].Point)
		}
		rates = append(rates, float64(pooled.Ops)/owners[0].width.Seconds())
		if pooled.Point.Count() > 0 {
			points = append(points, pooled.Point.Quantile(0.5))
		}
		sum.Ops += pooled.Ops
		sum.Points += pooled.Point.Count()
	}
	sum.OpsPerSec, sum.PointNs = Median(rates), Median(points)
	return sum
}
