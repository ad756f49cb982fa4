// Package pagemap is the page table of the offline simulator: a map keyed
// by page number that indexes a slice when the page numbers are dense and
// falls back to a built-in map when they are not.
//
// A kernel finds a page by indexing a table with its page number, not by
// hashing it. The policies' recency lists, clock rings and the inverted
// page table of package mm do one lookup per simulated access, and the
// evaluation's footprints are dense (pages lie in [0, pages)), so indexing
// a slice replaces a hash probe on every access. Arbitrary page numbers
// (full-system captures, trace files, the public API's byte addresses)
// stay correct: keys beyond the dense span live in the fallback map, and
// the span only grows while it stays proportional to the entry count, so
// memory is O(peak entries), never O(largest key).
package pagemap

// minSpan is the smallest dense span allocated once a key fits in it.
const minSpan = 64

// Map maps page numbers to values of V. The zero value of V means
// "absent": Get returns it for a missing key and Set with it deletes. The
// zero Map is empty and ready to use. A Map is not safe for concurrent use.
type Map[V comparable] struct {
	// dense[k] holds key k for every k < len(dense).
	dense []V
	// sparse holds the keys at or beyond len(dense).
	sparse map[uint64]V
	n      int
}

// Len returns the number of keys present.
func (m *Map[V]) Len() int { return m.n }

// Get returns key's value, or the zero value if key is absent.
func (m *Map[V]) Get(key uint64) V {
	if key < uint64(len(m.dense)) {
		return m.dense[key]
	}
	return m.sparse[key]
}

// Set stores v under key. Storing the zero value deletes key.
func (m *Map[V]) Set(key uint64, v V) {
	var zero V
	if v == zero {
		m.Delete(key)
		return
	}
	if key >= uint64(len(m.dense)) {
		// The span may grow to cover key only while it stays within a
		// constant factor of the entry count; see grow.
		if key >= 4*uint64(m.n+1)+minSpan {
			if m.sparse == nil {
				m.sparse = make(map[uint64]V)
			}
			// One map operation; the length change says whether key was new.
			before := len(m.sparse)
			m.sparse[key] = v
			m.n += len(m.sparse) - before
			return
		}
		m.grow(key)
	}
	if m.dense[key] == zero {
		m.n++
	}
	m.dense[key] = v
}

// Delete removes key, if present.
func (m *Map[V]) Delete(key uint64) {
	var zero V
	if key < uint64(len(m.dense)) {
		if m.dense[key] != zero {
			m.dense[key] = zero
			m.n--
		}
		return
	}
	before := len(m.sparse)
	delete(m.sparse, key)
	m.n -= before - len(m.sparse)
}

// grow extends the dense span to cover key, moving the fallback keys the
// new span covers into it. Set calls it only for a key below
// 4·(Len+1)+64, and the span at least doubles, so growth copies O(1)
// amortized per key and the span stays below 8·(Len+1)+128: within a
// constant factor of the peak entry count.
func (m *Map[V]) grow(key uint64) {
	span := max(2*uint64(len(m.dense)), key+1, minSpan)
	dense := make([]V, span)
	copy(dense, m.dense)
	m.dense = dense
	for k, v := range m.sparse {
		if k < span {
			dense[k] = v
			delete(m.sparse, k)
		}
	}
}

// Range calls f for every key and its value until f returns false: the
// dense span in increasing key order, then the fallback keys in no
// particular order. f must not modify m.
func (m *Map[V]) Range(f func(key uint64, v V) bool) {
	var zero V
	for k, v := range m.dense {
		if v != zero && !f(uint64(k), v) {
			return
		}
	}
	for k, v := range m.sparse {
		if !f(k, v) {
			return
		}
	}
}
