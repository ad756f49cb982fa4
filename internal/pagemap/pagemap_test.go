package pagemap

import (
	"math"
	"math/rand"
	"testing"
)

// check compares m against the reference map: Len, every reference key
// through Get, and Range's key set and values.
func check[V comparable](t *testing.T, step int, m *Map[V], ref map[uint64]V) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("step %d: Len %d, reference %d", step, m.Len(), len(ref))
	}
	for k, want := range ref {
		if got := m.Get(k); got != want {
			t.Fatalf("step %d: Get(%d) = %v, want %v", step, k, got, want)
		}
	}
	seen := 0
	m.Range(func(k uint64, v V) bool {
		want, ok := ref[k]
		if !ok || v != want {
			t.Fatalf("step %d: Range yielded %d=%v, reference has %v (present %v)", step, k, v, want, ok)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("step %d: Range yielded %d keys, want %d", step, seen, len(ref))
	}
}

// drive applies steps random Set/Delete/Get operations on keys drawn by
// key to m and to the built-in reference map ref, comparing after each.
func drive(t *testing.T, m *Map[uint32], ref map[uint64]uint32, seed int64, steps int, key func(r *rand.Rand) uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		k := key(r)
		switch op := r.Intn(10); {
		case op < 6:
			v := uint32(r.Intn(4)) // 0 deletes, as documented
			m.Set(k, v)
			if v == 0 {
				delete(ref, k)
			} else {
				ref[k] = v
			}
		case op < 9:
			m.Delete(k)
			delete(ref, k)
		default:
			if got, want := m.Get(k), ref[k]; got != want {
				t.Fatalf("step %d: Get(%d) = %d, want %d", step, k, got, want)
			}
		}
		check(t, step, m, ref)
	}
}

// driveFresh runs drive on an empty Map.
func driveFresh(t *testing.T, seed int64, steps int, key func(r *rand.Rand) uint64) {
	t.Helper()
	drive(t, &Map[uint32]{}, map[uint64]uint32{}, seed, steps, key)
}

func TestDenseKeys(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		driveFresh(t, seed, 3000, func(r *rand.Rand) uint64 { return uint64(r.Intn(700)) })
	}
}

func TestSparseKeys(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		driveFresh(t, seed, 2000, func(r *rand.Rand) uint64 { return uint64(r.Intn(300))<<30 + 7 })
	}
}

func TestBoundaryKeys(t *testing.T) {
	keys := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 63, 64, 1 << 63}
	driveFresh(t, 4, 2000, func(r *rand.Rand) uint64 { return keys[r.Intn(len(keys))] })
}

// TestGrowOverFallback first fills the fallback map with keys just beyond
// what the empty span may cover, then adds dense keys until the span grows
// over them, so fallback keys must move into the slice; random dense and
// sparse traffic then runs over the grown map.
func TestGrowOverFallback(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var m Map[uint32]
	ref := map[uint64]uint32{}
	set := func(step int, k uint64, v uint32) {
		m.Set(k, v)
		ref[k] = v
		check(t, step, &m, ref)
	}
	for i := 0; i < 50; i++ {
		set(i, uint64(200+r.Intn(2000)), uint32(1+r.Intn(9)))
	}
	var fallback []uint64
	for k := range m.sparse {
		fallback = append(fallback, k)
	}
	if len(fallback) == 0 {
		t.Fatal("setup put no key in the fallback map")
	}
	for i := 0; i < 1500; i++ {
		set(50+i, uint64(i), uint32(1+r.Intn(9)))
	}
	moved := 0
	for _, k := range fallback {
		if k < uint64(len(m.dense)) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("the span (%d) grew over none of %d fallback keys", len(m.dense), len(fallback))
	}
	for k := range m.sparse {
		if k < uint64(len(m.dense)) {
			t.Fatalf("fallback key %d left inside a span of %d", k, len(m.dense))
		}
	}
	drive(t, &m, ref, 6, 2000, func(r *rand.Rand) uint64 {
		if r.Intn(2) == 0 {
			return uint64(r.Intn(3000))
		}
		return uint64(r.Intn(50))<<40 | 1
	})
}

// TestSpanBounded checks memory stays O(entries): sparse and strided keys
// never drag the dense span out to the largest key.
func TestSpanBounded(t *testing.T) {
	var m Map[bool]
	for i := uint64(0); i < 1000; i++ {
		m.Set(i*1000, true)
		m.Set(math.MaxUint64-i, true)
	}
	if m.Len() != 2000 {
		t.Fatalf("Len %d, want 2000", m.Len())
	}
	if limit := 8*(m.Len()+1) + 2*minSpan; len(m.dense) > limit {
		t.Fatalf("dense span %d exceeds %d for %d keys", len(m.dense), limit, m.Len())
	}
}

func TestRangeStops(t *testing.T) {
	var m Map[int]
	for i := uint64(0); i < 10; i++ {
		m.Set(i, int(i)+1)
		m.Set(i<<50, int(i)+1)
	}
	calls := 0
	m.Range(func(uint64, int) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Fatalf("Range made %d calls after f returned false, want 3", calls)
	}
}
