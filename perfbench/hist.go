package main

import (
	"math"
	"math/bits"
)

// subBits sets the histogram's resolution: every power-of-two range is
// split into 2^subBits equal buckets, so a bucket is at most 1/128 (0.78%)
// of its lower bound wide. Values below 2^subBits get a bucket each.
const subBits = 7

const (
	subCount = 1 << subBits
	// numBuckets covers every uint64: the widest shift is 64-subBits-1.
	numBuckets = (64 - subBits + 1) * subCount
)

// Hist is a log-linear latency histogram over nanosecond values. One
// goroutine records into it; histograms of several goroutines merge with
// Add after the run.
type Hist struct {
	counts [numBuckets]uint64
	n      uint64
	max    uint64
}

// bucketOf returns the bucket index of v.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)*subCount + int(v>>uint(shift)) - subCount
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < subCount {
		return uint64(i), uint64(i) + 1
	}
	shift := uint(i/subCount - 1)
	m := uint64(i%subCount + subCount)
	return m << shift, (m + 1) << shift
}

// Record adds one observation of v nanoseconds.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.counts[bucketOf(u)]++
	h.n++
	if u > h.max {
		h.max = u
	}
}

// Add merges o into h.
func (h *Hist) Add(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the q-quantile (0 < q <= 1): the midpoint of the bucket
// holding the ceil(q*n)-th smallest observation, capped at the largest
// observation. It is within half a bucket width (0.4%) of that
// observation. An empty histogram returns 0.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, hi := bucketBounds(i)
			if hi-lo == 1 {
				return float64(lo)
			}
			return math.Min(float64(lo)+float64(hi-lo)/2, float64(h.max))
		}
	}
	return float64(h.max)
}
