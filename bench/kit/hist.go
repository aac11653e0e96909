// Package kit holds the parts of the benchmark that do not know the system
// under test: a latency histogram, a span trace with self-time arithmetic,
// the seeded op-list generator, and the result schema with its comparer.
package kit

import (
	"math"
	"math/bits"
)

// subBits fixes the histogram's resolution: every power-of-two range is cut
// into 2^subBits equal buckets, so a reported value (the bucket midpoint) is
// within 2^-(subBits+1) = 0.4% of any sample in the bucket.
const subBits = 7

const subCount = 1 << subBits

// Hist is a log-linear histogram of non-negative int64 samples
// (nanoseconds, by convention). The zero value is ready to use. It is not
// safe for concurrent use: every client owns its own and they are merged.
type Hist struct {
	counts []uint64
	n      uint64
	sum    int64
	max    int64
}

// bucket maps a sample to its bucket index. Values below subCount get one
// bucket each (exact); above, the top subBits bits after the leading one
// select the bucket within the value's power-of-two range.
func bucket(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the leading one, >= subBits
	shift := exp - subBits
	return (shift+1)*subCount + int(uint64(v)>>uint(shift))&(subCount-1)
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < subCount {
		return float64(i)
	}
	shift := i/subCount - 1
	lo := (uint64(subCount) + uint64(i%subCount)) << uint(shift)
	return float64(lo) + float64(uint64(1)<<uint(shift))/2
}

// Record adds one sample.
func (h *Hist) Record(v int64) {
	i := bucket(v)
	if i >= len(h.counts) {
		grown := make([]uint64, i+subCount)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge adds every sample of o to h.
func (h *Hist) Merge(o *Hist) {
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count is the number of samples recorded.
func (h *Hist) Count() int { return int(h.n) }

// Sum is the total of the samples recorded, exactly.
func (h *Hist) Sum() int64 { return h.sum }

// Max is the largest sample recorded, exactly.
func (h *Hist) Max() int64 { return h.max }

// Quantile returns the value at quantile q in [0,1] (the sample of rank
// ceil(q*n), as a sort would give it), or 0 with no samples.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		return float64(h.max)
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return float64(h.max)
}

// Tail returns the highest percentile that still has at least ten samples
// beyond it, and the value there: with fewer than eleven samples it falls
// back to the median. The shared sandbox does not repeat anything further
// out.
func (h *Hist) Tail() (q, v float64) {
	if h.n < 11 {
		return 0.5, h.Quantile(0.5)
	}
	q = float64(h.n-10) / float64(h.n)
	return q, h.Quantile(q)
}
