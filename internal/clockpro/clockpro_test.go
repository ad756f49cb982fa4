package clockpro

import (
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("1-frame cache should error")
	}
	if _, err := New(0); err == nil {
		t.Error("0-frame cache should error")
	}
}

func TestBasicHitMiss(t *testing.T) {
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if hit, _, _ := c.Access(1); hit {
		t.Error("cold access reported hit")
	}
	if hit, _, _ := c.Access(1); !hit {
		t.Error("resident access reported miss")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("stats = %d/%d", c.Hits, c.Misses)
	}
	if !c.Contains(1) || c.Contains(2) {
		t.Error("Contains wrong")
	}
}

func TestCapacityRespected(t *testing.T) {
	c, _ := New(4)
	for p := uint64(0); p < 100; p++ {
		c.Access(p)
		if c.Len() > 4 {
			t.Fatalf("resident %d > 4 frames", c.Len())
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Evictions == 0 {
		t.Error("no evictions under pressure")
	}
}

func TestTestPeriodPromotion(t *testing.T) {
	// A page evicted during its test period and quickly re-faulted becomes
	// hot: the short-reuse-distance signal CLOCK-Pro is built around.
	c, _ := New(4)
	c.Access(1)
	// Flood just enough to evict page 1 while its test metadata survives
	// (the non-resident list is bounded by the frame count).
	for p := uint64(10); p < 15; p++ {
		c.Access(p)
	}
	if c.Contains(1) {
		t.Skip("page 1 survived the flood; pattern needs adjusting")
	}
	c.Access(1) // fault within test period -> hot
	e := c.entries.Get(1)
	if e == nil || e.kind != hot {
		t.Errorf("re-faulted page kind = %v, want hot", e)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHotPagesSurviveScan(t *testing.T) {
	// Hot set accessed repeatedly, plus a one-pass scan: the hot pages must
	// survive the scan (the LIRS/CLOCK-Pro advantage over LRU).
	c, _ := New(8)
	hot := []uint64{1, 2, 3}
	for round := 0; round < 30; round++ {
		for _, p := range hot {
			c.Access(p)
		}
		c.Access(uint64(100 + round)) // scan page, never reused
	}
	for _, p := range hot {
		if !c.Contains(p) {
			t.Errorf("hot page %d evicted by scan", p)
		}
	}
}

func TestLoopPatternBeatsLRU(t *testing.T) {
	// Cyclic access over frames+2 pages: LRU misses every access after
	// warmup; CLOCK-Pro keeps part of the loop resident.
	const frames = 16
	const loop = frames + 2
	c, _ := New(frames)
	// LRU reference: sliding window over a cycle always misses.
	total, hits := 0, int64(0)
	for i := 0; i < loop*50; i++ {
		p := uint64(i % loop)
		if h, _, _ := c.Access(p); h {
			hits++
		}
		total++
	}
	lruHits := 0 // LRU provably gets zero hits on a cyclic scan > capacity
	if int(hits) <= lruHits {
		t.Errorf("CLOCK-Pro hits = %d on a loop; expected to beat LRU's %d", hits, lruHits)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	c, _ := New(32)
	for i := 0; i < 50000; i++ {
		var p uint64
		if rng.Intn(10) < 7 {
			p = uint64(rng.Intn(16)) // hot region
		} else {
			p = uint64(16 + rng.Intn(500))
		}
		c.Access(p)
		if i%1000 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.HitRatio() < 0.3 {
		t.Errorf("hit ratio %v too low for a hot-region workload", c.HitRatio())
	}
}

func TestEvictionReporting(t *testing.T) {
	c, _ := New(2)
	c.Access(1)
	c.Access(2)
	sawEviction := false
	for p := uint64(3); p < 30; p++ {
		_, _, ok := c.Access(p)
		if ok {
			sawEviction = true
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if !sawEviction {
		t.Error("no eviction reported under pressure")
	}
}
