package main

import "time"

// slice is one consecutive part of a timed window: about a second for the
// online workloads, one grid for paper-replay.
type slice struct {
	rate float64 // requests per second
	lat  Hist    // one sample per request (per batch for resp-pipeline)
}

// pacer cuts a timed window into slices of about a second. Callers tally
// their completed requests and latencies per slice. The window's
// throughput and latency quantiles are medians over slices, so a short
// stall on a shared host moves one slice, not the result.
type pacer struct {
	start time.Time
	slice time.Duration
	n     int
}

func newPacer(d time.Duration) *pacer {
	n := max(int(d/time.Second), 1)
	return &pacer{start: time.Now(), slice: d / time.Duration(n), n: n}
}

// tally is one caller's per-slice requests and latencies.
type tally struct {
	p      *pacer
	counts []int64
	lat    []Hist
	idx    int
	next   time.Time
}

func (p *pacer) tally() *tally {
	return &tally{p: p, counts: make([]int64, p.n), lat: make([]Hist, p.n), next: p.start.Add(p.slice)}
}

// add tallies n requests completed at now, with one latency sample, and
// reports whether the window is over.
func (t *tally) add(now time.Time, n int64, lat time.Duration) (done bool) {
	t.counts[t.idx] += n
	t.lat[t.idx].Record(int64(lat))
	for now.After(t.next) {
		if t.idx++; t.idx == len(t.counts) {
			return true
		}
		t.next = t.next.Add(t.p.slice)
	}
	return false
}

// slices merges the callers' tallies into the window's slices.
func (p *pacer) slices(ts []*tally) []*slice {
	out := make([]*slice, p.n)
	for i := range out {
		out[i] = &slice{}
		for _, t := range ts {
			out[i].rate += float64(t.counts[i]) / p.slice.Seconds()
			out[i].lat.Add(&t.lat[i])
		}
	}
	return out
}
