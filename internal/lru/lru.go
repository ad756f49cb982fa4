// Package lru implements the recency list at the heart of both the paper's
// proposed scheme and the single-technology baselines: a doubly-linked LRU
// list whose nodes are found through a pagemap.Map (a slice index for
// dense page numbers, a hash probe only for sparse ones), plus optional
// *position windows* ("markers").
//
// A marker watches the top K positions of the list. The proposed scheme
// (Section IV) keeps read/write counters only for pages within the top
// readperc/writeperc fraction of the NVM queue; when a page is pushed across
// that boundary its counter is reset (Algorithm 1, lines 8-9). Markers make
// that O(1) per operation: each marker tracks the boundary node (the K-th
// from the front) and fires a demotion callback exactly when a node crosses
// the boundary outward. Nodes that passively slide *into* a window (because
// another node left) fire nothing, matching the algorithm.
package lru

import (
	"errors"
	"fmt"

	"hybridmem/internal/pagemap"
)

// DemoteFunc is called when a node is pushed out of a marker's window. The
// value pointer may be mutated (the scheme resets its counters).
type DemoteFunc[V any] func(key uint64, v *V)

// MarkerID identifies a window created by AddMarker.
type MarkerID int

// Marks is a set of marker windows, as returned by TouchMarks.
type Marks uint8

// Has reports whether the set contains marker m's window.
func (s Marks) Has(m MarkerID) bool { return s&(1<<uint(m)) != 0 }

type node[V any] struct {
	key        uint64
	val        V
	prev, next *node[V] // prev is toward the front (MRU), next toward the back (LRU)
	inWin      uint8    // bit i set => inside marker i's window
}

type marker[V any] struct {
	cap      int
	count    int
	boundary *node[V] // the last (deepest) node inside the window, nil if empty
	onDemote DemoteFunc[V]
}

// List is an LRU list from page keys to values. The front is the most
// recently used position. The zero value is not usable; call New.
type List[V any] struct {
	nodes   pagemap.Map[*node[V]]
	root    node[V] // sentinel: root.next = front, root.prev = back
	markers []*marker[V]
}

// New returns an empty list.
func New[V any]() *List[V] {
	l := &List[V]{}
	l.root.next = &l.root
	l.root.prev = &l.root
	return l
}

// AddMarker registers a window over the top `capacity` positions. Markers
// must be added while the list is empty, and at most 8 are supported.
func (l *List[V]) AddMarker(capacity int, onDemote DemoteFunc[V]) (MarkerID, error) {
	if l.nodes.Len() != 0 {
		return 0, errors.New("lru: markers must be added to an empty list")
	}
	if capacity < 1 {
		return 0, fmt.Errorf("lru: marker capacity %d < 1", capacity)
	}
	if len(l.markers) == 8 {
		return 0, errors.New("lru: at most 8 markers supported")
	}
	l.markers = append(l.markers, &marker[V]{cap: capacity, onDemote: onDemote})
	return MarkerID(len(l.markers) - 1), nil
}

// Len returns the number of nodes in the list.
func (l *List[V]) Len() int { return l.nodes.Len() }

// Contains reports whether key is present.
func (l *List[V]) Contains(key uint64) bool {
	return l.nodes.Get(key) != nil
}

// Get returns a pointer to key's value without changing its position.
func (l *List[V]) Get(key uint64) (*V, bool) {
	n := l.nodes.Get(key)
	if n == nil {
		return nil, false
	}
	return &n.val, true
}

// Front returns the most recently used key.
func (l *List[V]) Front() (uint64, bool) {
	if l.Len() == 0 {
		return 0, false
	}
	return l.root.next.key, true
}

// Back returns the least recently used key.
func (l *List[V]) Back() (uint64, bool) {
	if l.Len() == 0 {
		return 0, false
	}
	return l.root.prev.key, true
}

func (l *List[V]) linkFront(n *node[V]) {
	n.prev = &l.root
	n.next = l.root.next
	n.prev.next = n
	n.next.prev = n
}

func (l *List[V]) unlink(n *node[V]) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

func (m *marker[V]) demote(n *node[V], bit uint8) {
	n.inWin &^= bit
	if m.onDemote != nil {
		m.onDemote(n.key, &n.val)
	}
}

// PushFront inserts a new key at the MRU position. It is an error if the key
// is already present (use Touch).
func (l *List[V]) PushFront(key uint64, v V) error {
	if l.nodes.Get(key) != nil {
		return fmt.Errorf("lru: key %d already present", key)
	}
	n := &node[V]{key: key, val: v}
	l.nodes.Set(key, n)
	l.linkFront(n)
	for i, m := range l.markers {
		bit := uint8(1) << uint(i)
		if m.count < m.cap {
			m.count++
			n.inWin |= bit
			if m.boundary == nil {
				m.boundary = n
			}
			continue
		}
		// Window full: the old boundary node is pushed out; the node just
		// above it becomes the new boundary and the fresh node enters.
		old := m.boundary
		m.boundary = old.prev
		m.demote(old, bit)
		n.inWin |= bit
	}
	return nil
}

// Touch moves key to the MRU position and returns a pointer to its value.
func (l *List[V]) Touch(key uint64) (*V, bool) {
	v, _, ok := l.TouchMarks(key)
	return v, ok
}

// TouchMarks is Touch that also returns the windows key was inside before
// the move, so a caller can sample window membership at hit time with the
// same single lookup.
func (l *List[V]) TouchMarks(key uint64) (*V, Marks, bool) {
	n := l.nodes.Get(key)
	if n == nil {
		return nil, 0, false
	}
	was := Marks(n.inWin)
	if l.root.next == n { // already front; membership cannot change
		return &n.val, was, true
	}
	oldPrev := n.prev
	l.unlink(n)
	l.linkFront(n)
	for i, m := range l.markers {
		bit := uint8(1) << uint(i)
		if n.inWin&bit != 0 {
			// Moving within the window: membership is unchanged; only the
			// boundary can shift, when the boundary node itself moved.
			if m.boundary == n && m.count > 1 {
				m.boundary = oldPrev
			}
			continue
		}
		// The node jumps from beyond the window to the front.
		if m.count < m.cap {
			m.count++
			n.inWin |= bit
			if m.boundary == nil {
				m.boundary = n
			}
			continue
		}
		old := m.boundary
		m.boundary = old.prev
		m.demote(old, bit)
		n.inWin |= bit
	}
	return &n.val, was, true
}

// removeNode fixes markers and unlinks n.
func (l *List[V]) removeNode(n *node[V]) V {
	for i, m := range l.markers {
		bit := uint8(1) << uint(i)
		if n.inWin&bit == 0 {
			continue
		}
		n.inWin &^= bit // leaving the list, not a demotion: no callback
		if m.boundary == n {
			if n.next != &l.root {
				// The first beyond-window node slides in silently.
				m.boundary = n.next
				n.next.inWin |= bit
			} else {
				if n.prev != &l.root {
					m.boundary = n.prev
				} else {
					m.boundary = nil
				}
				m.count--
			}
			continue
		}
		if m.boundary.next != &l.root {
			m.boundary.next.inWin |= bit
			m.boundary = m.boundary.next
		} else {
			m.count--
		}
	}
	l.unlink(n)
	l.nodes.Delete(n.key)
	return n.val
}

// Remove deletes key from any position and returns its value.
func (l *List[V]) Remove(key uint64) (V, bool) {
	n := l.nodes.Get(key)
	if n == nil {
		var zero V
		return zero, false
	}
	return l.removeNode(n), true
}

// RemoveBack evicts the LRU node and returns its key and value.
func (l *List[V]) RemoveBack() (uint64, V, bool) {
	if l.Len() == 0 {
		var zero V
		return 0, zero, false
	}
	n := l.root.prev
	key := n.key
	return key, l.removeNode(n), true
}

// Keys returns all keys from front (MRU) to back (LRU). Intended for tests
// and reports; O(n).
func (l *List[V]) Keys() []uint64 {
	keys := make([]uint64, 0, l.Len())
	for n := l.root.next; n != &l.root; n = n.next {
		keys = append(keys, n.key)
	}
	return keys
}

// WindowKeys returns the keys currently inside marker m's window, front to
// back. O(n); intended for tests.
func (l *List[V]) WindowKeys(m MarkerID) []uint64 {
	var keys []uint64
	bit := uint8(1) << uint(m)
	for n := l.root.next; n != &l.root; n = n.next {
		if n.inWin&bit != 0 {
			keys = append(keys, n.key)
		}
	}
	return keys
}

// CheckInvariants recomputes every marker's window from scratch and compares
// it with the incremental state. It returns an error describing the first
// inconsistency found. Used by property tests.
func (l *List[V]) CheckInvariants() error {
	// Walk forward and backward to validate the links.
	fwd := 0
	for n := l.root.next; n != &l.root; n = n.next {
		if l.nodes.Get(n.key) != n {
			return fmt.Errorf("lru: node %d linked but not mapped", n.key)
		}
		fwd++
	}
	if fwd != l.nodes.Len() {
		return fmt.Errorf("lru: %d linked nodes, %d mapped", fwd, l.nodes.Len())
	}
	for i, m := range l.markers {
		bit := uint8(1) << uint(i)
		wantCount := m.cap
		if l.Len() < m.cap {
			wantCount = l.Len()
		}
		if m.count != wantCount {
			return fmt.Errorf("lru: marker %d count %d, want %d", i, m.count, wantCount)
		}
		pos := 0
		var lastIn *node[V]
		for n := l.root.next; n != &l.root; n = n.next {
			pos++
			in := pos <= m.cap
			if in {
				lastIn = n
			}
			if got := n.inWin&bit != 0; got != in {
				return fmt.Errorf("lru: marker %d node %d at pos %d: inWin=%v, want %v",
					i, n.key, pos, got, in)
			}
		}
		if m.boundary != lastIn {
			gotKey, wantKey := uint64(0), uint64(0)
			if m.boundary != nil {
				gotKey = m.boundary.key
			}
			if lastIn != nil {
				wantKey = lastIn.key
			}
			return fmt.Errorf("lru: marker %d boundary %d, want %d", i, gotKey, wantKey)
		}
	}
	return nil
}
