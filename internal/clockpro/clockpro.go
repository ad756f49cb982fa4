// Package clockpro implements the CLOCK-Pro page replacement algorithm
// (Jiang, Chen & Zhang, USENIX ATC 2005), the third algorithm the paper
// discusses: CLOCK-DWF "outperforms previous studies such as CLOCK-PRO",
// and the proposed scheme in turn outperforms CLOCK-DWF.
//
// CLOCK-Pro approximates LIRS reuse-distance tracking with clock machinery:
// pages are hot or cold; resident cold pages carry a test period in which a
// re-reference promotes them to hot; non-resident cold pages are remembered
// (bounded by memory size) so that short-reuse-distance faults can adapt the
// hot/cold balance. Three hands sweep one circular list: hand-cold finds the
// eviction victim, hand-hot demotes stale hot pages and retires old
// metadata, hand-test expires test periods and shrinks the cold target.
//
// In this repository CLOCK-Pro manages a single memory zone; the
// replacement-quality comparison (LRU vs CLOCK vs CLOCK-Pro hit ratios)
// backs the paper's related-work ordering without inventing an unpublished
// hybrid variant.
package clockpro

import (
	"fmt"

	"hybridmem/internal/pagemap"
)

type kind uint8

const (
	hot kind = iota
	cold
	test // non-resident cold page still in its test period
)

type entry struct {
	page       uint64
	kind       kind
	ref        bool
	inTest     bool // resident cold pages: test period active
	prev, next *entry
}

// Cache is a CLOCK-Pro managed memory of a fixed frame count.
type Cache struct {
	frames     int
	coldTarget int
	entries    pagemap.Map[*entry]
	// hand positions on the circular list; nil when empty.
	handHot, handCold, handTest *entry
	countHot, countCold         int // resident pages by kind
	countTest                   int // non-resident metadata entries

	// Stats.
	Hits, Misses, Evictions int64
}

// New returns a CLOCK-Pro cache with the given capacity.
func New(frames int) (*Cache, error) {
	if frames < 2 {
		return nil, fmt.Errorf("clockpro: need at least 2 frames, got %d", frames)
	}
	return &Cache{
		frames:     frames,
		coldTarget: frames / 2,
	}, nil
}

// Len returns the number of resident pages.
func (c *Cache) Len() int { return c.countHot + c.countCold }

// Contains reports whether the page is resident.
func (c *Cache) Contains(page uint64) bool {
	e := c.entries.Get(page)
	return e != nil && e.kind != test
}

// insert links e just behind handHot (the list position new pages take).
func (c *Cache) insert(e *entry) {
	if c.handHot == nil {
		e.prev, e.next = e, e
		c.handHot, c.handCold, c.handTest = e, e, e
		return
	}
	e.prev = c.handHot.prev
	e.next = c.handHot
	e.prev.next = e
	e.next.prev = e
}

// remove unlinks e, fixing any hand that pointed at it.
func (c *Cache) remove(e *entry) {
	for _, h := range []**entry{&c.handHot, &c.handCold, &c.handTest} {
		if *h == e {
			if e.next == e {
				*h = nil
			} else {
				*h = e.next
			}
		}
	}
	if e.next == e {
		c.handHot, c.handCold, c.handTest = nil, nil, nil
	} else {
		e.prev.next = e.next
		e.next.prev = e.prev
	}
	c.entries.Delete(e.page)
}

// Access services one reference. It returns whether it hit, and the page
// evicted to make room on a miss (ok reports an eviction happened).
func (c *Cache) Access(page uint64) (hit bool, evicted uint64, ok bool) {
	if e := c.entries.Get(page); e != nil && e.kind != test {
		e.ref = true
		c.Hits++
		return true, 0, false
	}
	c.Misses++

	// Make room first: resident set must stay within frames.
	for c.Len() >= c.frames {
		if v, vok := c.runHandCold(); vok {
			evicted, ok = v, true
		}
	}

	if e := c.entries.Get(page); e != nil {
		// Fault within the test period: the reuse distance is short, so the
		// page deserves hot status and cold pages in general deserve more
		// room.
		c.adjustColdTarget(+1)
		c.countTest--
		c.remove(e)
		c.makeHotRoom()
		c.insert(&entry{page: page, kind: hot})
		c.entries.Set(page, c.handHot.prev)
		c.countHot++
		return false, evicted, ok
	}

	// First fault (or test period long expired): resident cold with a
	// fresh test period.
	e := &entry{page: page, kind: cold, inTest: true}
	c.insert(e)
	c.entries.Set(page, e)
	c.countCold++
	return false, evicted, ok
}

// makeHotRoom demotes hot pages until the hot set respects its budget.
func (c *Cache) makeHotRoom() {
	budget := c.frames - c.coldTarget
	for c.countHot >= budget && c.countHot > 0 {
		c.runHandHot()
	}
}

// runHandCold advances hand-cold over resident cold pages, returning an
// evicted page when one is reclaimed.
func (c *Cache) runHandCold() (uint64, bool) {
	e := c.findFrom(&c.handCold, func(e *entry) bool { return e.kind == cold })
	if e == nil {
		// No cold pages: force a hot demotion and retry on the next loop.
		c.runHandHot()
		return 0, false
	}
	c.handCold = e.next
	if e.ref {
		e.ref = false
		if e.inTest {
			// Re-referenced within its test period: promote to hot.
			e.kind = hot
			e.inTest = false
			c.countCold--
			c.countHot++
			c.makeHotRoom()
			return 0, false
		}
		// Re-referenced after the test period: grant a fresh one.
		e.inTest = true
		return 0, false
	}
	// Unreferenced cold page: reclaim the frame.
	page := e.page
	c.Evictions++
	if e.inTest {
		// Keep metadata so a quick return is detected.
		e.kind = test
		c.countCold--
		c.countTest++
		for c.countTest > c.frames {
			c.runHandTest()
		}
	} else {
		c.countCold--
		c.remove(e)
	}
	return page, true
}

// runHandHot advances hand-hot: stale hot pages demote to cold (no test
// period); non-resident metadata it passes is retired.
func (c *Cache) runHandHot() {
	e := c.findFrom(&c.handHot, func(e *entry) bool { return e.kind == hot })
	if e == nil {
		return
	}
	c.handHot = e.next
	if e.ref {
		e.ref = false
		return
	}
	e.kind = cold
	e.inTest = false
	c.countHot--
	c.countCold++
}

// runHandTest expires the test period of the next cold page: non-resident
// metadata is dropped and the cold target shrinks (long reuse distances).
func (c *Cache) runHandTest() {
	e := c.findFrom(&c.handTest, func(e *entry) bool { return e.kind != hot })
	if e == nil {
		return
	}
	c.handTest = e.next
	c.adjustColdTarget(-1)
	if e.kind == test {
		c.countTest--
		c.remove(e)
		return
	}
	e.inTest = false
}

// findFrom advances a hand until match returns true, at most one full lap.
func (c *Cache) findFrom(hand **entry, match func(*entry) bool) *entry {
	if *hand == nil {
		return nil
	}
	e := *hand
	for i := 0; i <= c.entries.Len(); i++ {
		if match(e) {
			*hand = e
			return e
		}
		e = e.next
	}
	return nil
}

func (c *Cache) adjustColdTarget(delta int) {
	c.coldTarget += delta
	if c.coldTarget < 1 {
		c.coldTarget = 1
	}
	if c.coldTarget > c.frames-1 {
		c.coldTarget = c.frames - 1
	}
}

// HitRatio returns hits/(hits+misses).
func (c *Cache) HitRatio() float64 {
	if t := c.Hits + c.Misses; t > 0 {
		return float64(c.Hits) / float64(t)
	}
	return 0
}

// CheckInvariants validates counts and capacity.
func (c *Cache) CheckInvariants() error {
	nh, nc, nt := 0, 0, 0
	c.entries.Range(func(_ uint64, e *entry) bool {
		switch e.kind {
		case hot:
			nh++
		case cold:
			nc++
		case test:
			nt++
		}
		return true
	})
	if nh != c.countHot || nc != c.countCold || nt != c.countTest {
		return fmt.Errorf("clockpro: counts drifted: %d/%d/%d vs %d/%d/%d",
			nh, nc, nt, c.countHot, c.countCold, c.countTest)
	}
	if c.Len() > c.frames {
		return fmt.Errorf("clockpro: %d resident pages in %d frames", c.Len(), c.frames)
	}
	if c.countTest > c.frames {
		return fmt.Errorf("clockpro: %d test entries exceed %d frames", c.countTest, c.frames)
	}
	if c.coldTarget < 1 || c.coldTarget > c.frames-1 {
		return fmt.Errorf("clockpro: cold target %d outside [1,%d]", c.coldTarget, c.frames-1)
	}
	return nil
}
