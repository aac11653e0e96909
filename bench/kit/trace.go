package kit

import (
	"encoding/json"
	"os"
	"sort"
)

// Span is one timed call across a layer boundary. Req ties together the
// spans of one logical operation; Parent names the boundary above, the span
// whose time contains this one.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the trace began
	End    int64  `json:"end"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
}

// Trace collects spans in memory; it is written out once, at exit.
type Trace struct {
	Spans []Span
}

// Add records a span.
func (t *Trace) Add(name, parent string, req int, start, end int64) {
	t.Spans = append(t.Spans, Span{Name: name, Start: start, End: end, Parent: parent, Req: req})
}

// WriteFile writes the spans as a JSON array.
func (t *Trace) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfStat is a layer's self time over the requests that crossed it.
type SelfStat struct {
	MedianNs float64
	N        int
}

// SelfTimes computes, per span name, the median over requests of the span's
// duration minus the durations of its child spans for the same request. A
// child is any span naming this one as Parent.
func (t *Trace) SelfTimes() map[string]SelfStat {
	type key struct {
		name string
		req  int
	}
	children := make(map[key]int64)
	for _, s := range t.Spans {
		if s.Parent != "" {
			children[key{s.Parent, s.Req}] += s.End - s.Start
		}
	}
	self := make(map[string][]float64)
	for _, s := range t.Spans {
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-children[key{s.Name, s.Req}]))
	}
	out := make(map[string]SelfStat, len(self))
	for name, v := range self {
		out[name] = SelfStat{MedianNs: Median(v), N: len(v)}
	}
	return out
}

// Median returns the median of v (the mean of the middle two for an even
// count), or 0 when v is empty. It sorts v in place.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}
