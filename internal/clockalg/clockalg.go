// Package clockalg implements the CLOCK (second-chance) page ring used by the
// CLOCK-DWF baseline (Lee, Bahn & Noh, IEEE TC 2013) and by CLOCK-Pro.
//
// Pages sit on a circular list with per-page reference bits. A clock hand
// sweeps the ring on eviction: referenced pages lose their bit and survive
// the lap; the first page failing the policy's keep test is the victim.
// Beyond the classic algorithm, EvictFunc lets a policy inject extra survival
// rules (CLOCK-DWF keeps write-dominant pages in DRAM this way).
package clockalg

import (
	"fmt"

	"hybridmem/internal/pagemap"
)

type node[V any] struct {
	key        uint64
	val        V
	ref        bool
	prev, next *node[V]
}

// Ring is a clock of pages keyed by page number, found through a
// pagemap.Map. The zero value is an empty ring.
type Ring[V any] struct {
	nodes pagemap.Map[*node[V]]
	hand  *node[V]
}

// New returns an empty ring.
func New[V any]() *Ring[V] {
	return &Ring[V]{}
}

// Len returns the number of pages in the ring.
func (r *Ring[V]) Len() int { return r.nodes.Len() }

// Contains reports whether key is present.
func (r *Ring[V]) Contains(key uint64) bool {
	return r.nodes.Get(key) != nil
}

// Get returns a pointer to key's value without touching its reference bit.
func (r *Ring[V]) Get(key uint64) (*V, bool) {
	n := r.nodes.Get(key)
	if n == nil {
		return nil, false
	}
	return &n.val, true
}

// Reference sets key's reference bit (a page hit) and returns a pointer to
// its value.
func (r *Ring[V]) Reference(key uint64) (*V, bool) {
	n := r.nodes.Get(key)
	if n == nil {
		return nil, false
	}
	n.ref = true
	return &n.val, true
}

// Ref reports the current reference bit of key.
func (r *Ring[V]) Ref(key uint64) bool {
	n := r.nodes.Get(key)
	return n != nil && n.ref
}

// Insert adds a new page just behind the hand (the position the hand will
// reach last), with the given initial reference bit. It is an error if the
// key is already present.
func (r *Ring[V]) Insert(key uint64, v V, ref bool) error {
	if r.nodes.Get(key) != nil {
		return fmt.Errorf("clockalg: key %d already present", key)
	}
	n := &node[V]{key: key, val: v, ref: ref}
	r.nodes.Set(key, n)
	if r.hand == nil {
		n.prev, n.next = n, n
		r.hand = n
		return nil
	}
	// Insert before the hand: hand.prev <-> n <-> hand.
	n.prev = r.hand.prev
	n.next = r.hand
	n.prev.next = n
	n.next.prev = n
	return nil
}

func (r *Ring[V]) unlink(n *node[V]) {
	if n.next == n { // last node
		r.hand = nil
	} else {
		n.prev.next = n.next
		n.next.prev = n.prev
		if r.hand == n {
			r.hand = n.next
		}
	}
	n.prev, n.next = nil, nil
	r.nodes.Delete(n.key)
}

// Remove deletes key from the ring (a migration, not an eviction) and
// returns its value. The hand skips to the next page if it pointed here.
func (r *Ring[V]) Remove(key uint64) (V, bool) {
	n := r.nodes.Get(key)
	if n == nil {
		var zero V
		return zero, false
	}
	v := n.val
	r.unlink(n)
	return v, true
}

// KeepFunc lets a policy grant extra survival laps to the page under the
// hand (its value may be mutated, e.g. decaying a write-history counter).
// Returning true skips the page this lap.
type KeepFunc[V any] func(key uint64, v *V) bool

// EvictFunc runs the clock sweep and removes the chosen victim:
//
//  1. a page with its reference bit set gets it cleared and survives,
//  2. otherwise, if keep (when non-nil) returns true the page survives,
//  3. otherwise the page is evicted.
//
// After maxLaps full sweeps without a victim (possible only with a keep
// function that never yields), the page under the hand is evicted anyway.
// It returns false only if the ring is empty.
func (r *Ring[V]) EvictFunc(keep KeepFunc[V], maxLaps int) (uint64, V, bool) {
	if r.hand == nil {
		var zero V
		return 0, zero, false
	}
	if maxLaps < 1 {
		maxLaps = 1
	}
	limit := r.nodes.Len() * maxLaps
	for i := 0; i <= limit; i++ {
		n := r.hand
		if n.ref {
			n.ref = false
			r.hand = n.next
			continue
		}
		if i < limit && keep != nil && keep(n.key, &n.val) {
			r.hand = n.next
			continue
		}
		key, v := n.key, n.val
		r.unlink(n)
		return key, v, true
	}
	// Unreachable: the loop always evicts by i == limit.
	panic("clockalg: sweep failed to evict")
}

// Evict runs the classic second-chance sweep (no extra keep rules).
func (r *Ring[V]) Evict() (uint64, V, bool) {
	return r.EvictFunc(nil, 1)
}

// Keys returns the keys in ring order starting at the hand. O(n); for tests.
func (r *Ring[V]) Keys() []uint64 {
	if r.hand == nil {
		return nil
	}
	keys := make([]uint64, 0, r.nodes.Len())
	for n := r.hand; ; n = n.next {
		keys = append(keys, n.key)
		if n.next == r.hand {
			break
		}
	}
	return keys
}

// CheckInvariants validates the circular links against the key map.
func (r *Ring[V]) CheckInvariants() error {
	if r.hand == nil {
		if r.nodes.Len() != 0 {
			return fmt.Errorf("clockalg: nil hand with %d nodes", r.nodes.Len())
		}
		return nil
	}
	seen := 0
	for n := r.hand; ; n = n.next {
		if r.nodes.Get(n.key) != n {
			return fmt.Errorf("clockalg: node %d linked but not mapped", n.key)
		}
		if n.next.prev != n || n.prev.next != n {
			return fmt.Errorf("clockalg: broken links at %d", n.key)
		}
		seen++
		if seen > r.nodes.Len() {
			return fmt.Errorf("clockalg: ring longer than map (%d > %d)", seen, r.nodes.Len())
		}
		if n.next == r.hand {
			break
		}
	}
	if seen != r.nodes.Len() {
		return fmt.Errorf("clockalg: ring has %d nodes, map has %d", seen, r.nodes.Len())
	}
	return nil
}
