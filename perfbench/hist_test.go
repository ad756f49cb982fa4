package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketsCoverEveryValueWithinOnePercent(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 49152, 1 << 40, math.MaxUint64} {
		i := bucketOf(v)
		lo, hi := bucketBounds(i)
		if v < lo || (hi != 0 && v >= hi) {
			t.Fatalf("value %d outside its bucket %d [%d, %d)", v, i, lo, hi)
		}
		if lo >= subCount && float64(hi-lo)/float64(lo) > 0.01 {
			t.Fatalf("bucket %d [%d, %d) is wider than 1%% of its lower bound", i, lo, hi)
		}
	}
	for i := 1; i < numBuckets; i++ {
		_, prevHi := bucketBounds(i - 1)
		lo, _ := bucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ends at %d", i, lo, prevHi)
		}
	}
}

func TestQuantileMatchesExactQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, 200000)
	var h Hist
	for i := range samples {
		// Log-normal around 200 ns with a heavy tail, like serve latency.
		v := int64(200 * math.Exp(rng.NormFloat64()))
		samples[i] = v
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(samples))))
		exact := float64(samples[rank-1])
		got := h.Quantile(q)
		if math.Abs(got-exact) > 0.01*exact+0.5 {
			t.Errorf("q=%v: histogram says %v, exact quantile is %v", q, got, exact)
		}
	}
	if h.Count() != uint64(len(samples)) {
		t.Fatalf("count %d, want %d", h.Count(), len(samples))
	}
}

func TestAddMergesHistograms(t *testing.T) {
	var a, b, all Hist
	for v := int64(1); v <= 1000; v++ {
		all.Record(v * 37)
		if v%2 == 0 {
			a.Record(v * 37)
		} else {
			b.Record(v * 37)
		}
	}
	a.Add(&b)
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("merged q=%v is %v, want %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
}
