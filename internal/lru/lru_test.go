package lru

import (
	"math/rand"
	"reflect"
	"testing"
)

// inWindow reports whether key is currently inside marker m's window.
func (l *List[V]) inWindow(key uint64, m MarkerID) bool {
	n := l.nodes.Get(key)
	return n != nil && n.inWin&(1<<uint(m)) != 0
}

func TestEmptyList(t *testing.T) {
	l := New[int]()
	if l.Len() != 0 {
		t.Error("new list not empty")
	}
	if _, ok := l.Front(); ok {
		t.Error("Front on empty returned ok")
	}
	if _, ok := l.Back(); ok {
		t.Error("Back on empty returned ok")
	}
	if _, _, ok := l.RemoveBack(); ok {
		t.Error("RemoveBack on empty returned ok")
	}
	if _, ok := l.Touch(1); ok {
		t.Error("Touch on empty returned ok")
	}
	if _, ok := l.Remove(1); ok {
		t.Error("Remove on empty returned ok")
	}
}

func TestBasicLRUOrder(t *testing.T) {
	l := New[string]()
	for i := uint64(1); i <= 4; i++ {
		if err := l.PushFront(i, "v"); err != nil {
			t.Fatal(err)
		}
	}
	// Order: 4 3 2 1 (front to back).
	if got := l.Keys(); !reflect.DeepEqual(got, []uint64{4, 3, 2, 1}) {
		t.Fatalf("keys = %v", got)
	}
	if _, ok := l.Touch(2); !ok {
		t.Fatal("Touch(2) missed")
	}
	if got := l.Keys(); !reflect.DeepEqual(got, []uint64{2, 4, 3, 1}) {
		t.Fatalf("after touch keys = %v", got)
	}
	if k, _, ok := l.RemoveBack(); !ok || k != 1 {
		t.Fatalf("RemoveBack = %d, want 1", k)
	}
	if f, _ := l.Front(); f != 2 {
		t.Errorf("Front = %d, want 2", f)
	}
	if b, _ := l.Back(); b != 3 {
		t.Errorf("Back = %d, want 3", b)
	}
}

func TestPushFrontDuplicate(t *testing.T) {
	l := New[int]()
	if err := l.PushFront(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.PushFront(1, 0); err == nil {
		t.Error("duplicate PushFront should error")
	}
}

func TestGetDoesNotReorder(t *testing.T) {
	l := New[int]()
	for i := uint64(1); i <= 3; i++ {
		l.PushFront(i, int(i)*10)
	}
	v, ok := l.Get(1)
	if !ok || *v != 10 {
		t.Fatalf("Get(1) = %v, %v", v, ok)
	}
	*v = 99
	if got := l.Keys(); !reflect.DeepEqual(got, []uint64{3, 2, 1}) {
		t.Errorf("Get reordered: %v", got)
	}
	if v2, _ := l.Get(1); *v2 != 99 {
		t.Error("Get pointer did not persist mutation")
	}
}

func TestMarkerRules(t *testing.T) {
	l := New[int]()
	if _, err := l.AddMarker(0, nil); err == nil {
		t.Error("capacity 0 marker should error")
	}
	l.PushFront(1, 0)
	if _, err := l.AddMarker(2, nil); err == nil {
		t.Error("AddMarker on non-empty list should error")
	}
	l2 := New[int]()
	for i := 0; i < 8; i++ {
		if _, err := l2.AddMarker(1, nil); err != nil {
			t.Fatalf("marker %d: %v", i, err)
		}
	}
	if _, err := l2.AddMarker(1, nil); err == nil {
		t.Error("9th marker should error")
	}
}

func TestWindowMembershipOnPush(t *testing.T) {
	l := New[int]()
	var demoted []uint64
	m, err := l.AddMarker(2, func(k uint64, _ *int) { demoted = append(demoted, k) })
	if err != nil {
		t.Fatal(err)
	}
	l.PushFront(1, 0) // window: [1]
	l.PushFront(2, 0) // window: [2 1]
	if len(demoted) != 0 {
		t.Fatalf("unexpected demotions %v", demoted)
	}
	l.PushFront(3, 0) // window: [3 2], demote 1
	if !reflect.DeepEqual(demoted, []uint64{1}) {
		t.Fatalf("demoted = %v, want [1]", demoted)
	}
	if !l.inWindow(3, m) || !l.inWindow(2, m) || l.inWindow(1, m) {
		t.Errorf("window membership wrong: %v", l.WindowKeys(m))
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowTouchInsideNoDemotion(t *testing.T) {
	l := New[int]()
	var demoted []uint64
	m, _ := l.AddMarker(3, func(k uint64, _ *int) { demoted = append(demoted, k) })
	for i := uint64(1); i <= 5; i++ {
		l.PushFront(i, 0)
	}
	// list: 5 4 3 2 1; window: {5 4 3}; pushes demoted 1 then 2.
	demoted = nil
	// Touch a node already inside the window: nobody crosses the boundary.
	l.Touch(4) // list: 4 5 3
	if len(demoted) != 0 {
		t.Errorf("touch inside window demoted %v", demoted)
	}
	if got := l.WindowKeys(m); !reflect.DeepEqual(got, []uint64{4, 5, 3}) {
		t.Errorf("window = %v, want [4 5 3]", got)
	}
	// Touch the boundary node itself.
	l.Touch(3) // window: 3 4 5
	if len(demoted) != 0 {
		t.Errorf("touch boundary demoted %v", demoted)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowTouchFromOutsideDemotesBoundary(t *testing.T) {
	l := New[int]()
	var demoted []uint64
	m, _ := l.AddMarker(2, func(k uint64, _ *int) { demoted = append(demoted, k) })
	for i := uint64(1); i <= 4; i++ {
		l.PushFront(i, 0)
	}
	// list: 4 3 2 1; window {4 3}.
	demoted = nil
	l.Touch(1) // 1 enters window, 3 leaves. list: 1 4 3 2, window {1 4}.
	if !reflect.DeepEqual(demoted, []uint64{3}) {
		t.Errorf("demoted = %v, want [3]", demoted)
	}
	if got := l.WindowKeys(m); !reflect.DeepEqual(got, []uint64{1, 4}) {
		t.Errorf("window = %v, want [1 4]", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowSlideInOnRemove(t *testing.T) {
	l := New[int]()
	var demoted []uint64
	m, _ := l.AddMarker(2, func(k uint64, _ *int) { demoted = append(demoted, k) })
	for i := uint64(1); i <= 4; i++ {
		l.PushFront(i, 0)
	}
	demoted = nil
	// Remove an in-window node: the first beyond-window node slides in
	// silently (no demotion callback).
	l.Remove(4) // list: 3 2 1; window {3 2}
	if len(demoted) != 0 {
		t.Errorf("remove caused demotions %v", demoted)
	}
	if got := l.WindowKeys(m); !reflect.DeepEqual(got, []uint64{3, 2}) {
		t.Errorf("window = %v, want [3 2]", got)
	}
	// Remove the boundary node: same silent slide-in.
	l.Remove(2) // list: 3 1; window {3 1}
	if got := l.WindowKeys(m); !reflect.DeepEqual(got, []uint64{3, 1}) {
		t.Errorf("window = %v, want [3 1]", got)
	}
	if len(demoted) != 0 {
		t.Errorf("boundary remove caused demotions %v", demoted)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveBackUpdatesWindows(t *testing.T) {
	l := New[int]()
	m, _ := l.AddMarker(5, nil)
	for i := uint64(1); i <= 3; i++ {
		l.PushFront(i, 0)
	}
	// All 3 nodes inside a window of capacity 5.
	k, _, ok := l.RemoveBack()
	if !ok || k != 1 {
		t.Fatalf("RemoveBack = %d, want 1", k)
	}
	if got := l.WindowKeys(m); !reflect.DeepEqual(got, []uint64{3, 2}) {
		t.Errorf("window = %v", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDemoteCallbackCanMutateValue(t *testing.T) {
	l := New[int]()
	l.AddMarker(1, func(_ uint64, v *int) { *v = 0 })
	l.PushFront(1, 7)
	l.PushFront(2, 8) // demotes 1, resetting its value
	if v, _ := l.Get(1); *v != 0 {
		t.Errorf("value after demotion = %d, want 0", *v)
	}
	if v, _ := l.Get(2); *v != 8 {
		t.Errorf("in-window value = %d, want 8", *v)
	}
}

func TestNestedWindows(t *testing.T) {
	// Two markers as in the proposed scheme (readperc < writeperc).
	l := New[int]()
	small, _ := l.AddMarker(2, nil)
	large, _ := l.AddMarker(4, nil)
	for i := uint64(1); i <= 6; i++ {
		l.PushFront(i, 0)
	}
	// list: 6 5 4 3 2 1
	if got := l.WindowKeys(small); !reflect.DeepEqual(got, []uint64{6, 5}) {
		t.Errorf("small window = %v", got)
	}
	if got := l.WindowKeys(large); !reflect.DeepEqual(got, []uint64{6, 5, 4, 3}) {
		t.Errorf("large window = %v", got)
	}
	// A node in the large-only region touched to front enters both.
	l.Touch(3)
	if !l.inWindow(3, small) || !l.inWindow(3, large) {
		t.Error("touched node should be in both windows")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomOpsInvariants drives the list with random operations and
// validates the incremental window state against a from-scratch recompute
// after every step.
func TestRandomOpsInvariants(t *testing.T) {
	for _, caps := range [][]int{{1}, {3}, {2, 5}, {1, 4, 9}} {
		rng := rand.New(rand.NewSource(42))
		l := New[int]()
		for _, c := range caps {
			if _, err := l.AddMarker(c, nil); err != nil {
				t.Fatal(err)
			}
		}
		var present []uint64
		nextKey := uint64(1)
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // push
				l.PushFront(nextKey, step)
				present = append(present, nextKey)
				nextKey++
			case op < 7: // touch
				if len(present) > 0 {
					k := present[rng.Intn(len(present))]
					if _, ok := l.Touch(k); !ok {
						t.Fatalf("step %d: Touch(%d) missed", step, k)
					}
				}
			case op < 9: // remove random
				if len(present) > 0 {
					i := rng.Intn(len(present))
					k := present[i]
					if _, ok := l.Remove(k); !ok {
						t.Fatalf("step %d: Remove(%d) missed", step, k)
					}
					present = append(present[:i], present[i+1:]...)
				}
			default: // remove back
				if k, _, ok := l.RemoveBack(); ok {
					for i, p := range present {
						if p == k {
							present = append(present[:i], present[i+1:]...)
							break
						}
					}
				}
			}
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("caps %v step %d: %v", caps, step, err)
			}
			if l.Len() != len(present) {
				t.Fatalf("step %d: len %d, want %d", step, l.Len(), len(present))
			}
		}
	}
}

// TestDemotionExactness checks that across a random workload, a demotion
// callback fires for a key if and only if that key actually left the window
// while remaining in the list (validated against a brute-force model).
func TestDemotionExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const capacity = 4
	l := New[int]()
	demotions := map[uint64]int{}
	if _, err := l.AddMarker(capacity, func(k uint64, _ *int) { demotions[k]++ }); err != nil {
		t.Fatal(err)
	}

	// Brute-force mirror: slice of keys, front at index 0.
	var mirror []uint64
	expected := map[uint64]int{}
	inWin := func(keys []uint64, k uint64) bool {
		for i, kk := range keys {
			if kk == k {
				return i < capacity
			}
		}
		return false
	}
	apply := func(f func()) (before []uint64) {
		before = append([]uint64(nil), mirror...)
		f()
		return before
	}
	nextKey := uint64(1)
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(mirror) == 0:
			k := nextKey
			nextKey++
			before := apply(func() { mirror = append([]uint64{k}, mirror...) })
			l.PushFront(k, 0)
			for _, kk := range before {
				if inWin(before, kk) && !inWin(mirror, kk) {
					expected[kk]++
				}
			}
		case op == 1:
			k := mirror[rng.Intn(len(mirror))]
			before := apply(func() {
				for i, kk := range mirror {
					if kk == k {
						mirror = append(mirror[:i], mirror[i+1:]...)
						break
					}
				}
				mirror = append([]uint64{k}, mirror...)
			})
			l.Touch(k)
			for _, kk := range before {
				if kk == k {
					continue
				}
				if inWin(before, kk) && !inWin(mirror, kk) {
					expected[kk]++
				}
			}
		default:
			i := rng.Intn(len(mirror))
			k := mirror[i]
			apply(func() { mirror = append(mirror[:i], mirror[i+1:]...) })
			l.Remove(k)
			// Removals never demote.
		}
		if !reflect.DeepEqual(demotions, expected) {
			t.Fatalf("step %d: demotions %v, want %v", step, demotions, expected)
		}
	}
}

// TestTouchMarksMatchesInWindowThenTouch drives two lists through the same
// random operations with two markers. One list is touched with
// TouchMarks, the other is probed for window membership and then
// touched with Touch; the returned marks, the values, the demotions and
// the list order must agree at every step.
func TestTouchMarksMatchesInWindowThenTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type demotion struct {
		key uint64
		m   int
	}
	var gotDem, wantDem []demotion
	got, want := New[int](), New[int]()
	var ids [2]MarkerID
	for i, c := range []int{3, 8} {
		var err error
		if ids[i], err = got.AddMarker(c, func(k uint64, _ *int) { gotDem = append(gotDem, demotion{k, i}) }); err != nil {
			t.Fatal(err)
		}
		if _, err := want.AddMarker(c, func(k uint64, _ *int) { wantDem = append(wantDem, demotion{k, i}) }); err != nil {
			t.Fatal(err)
		}
	}
	var present []uint64
	nextKey := uint64(1)
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 3 || len(present) == 0:
			got.PushFront(nextKey, 0)
			want.PushFront(nextKey, 0)
			present = append(present, nextKey)
			nextKey++
		case op < 8:
			k := present[rng.Intn(len(present))]
			if rng.Intn(8) == 0 {
				k = nextKey // absent
			}
			var wasIn [2]bool
			for i, id := range ids {
				wasIn[i] = want.inWindow(k, id)
			}
			wv, wok := want.Touch(k)
			gv, marks, gok := got.TouchMarks(k)
			if gok != wok {
				t.Fatalf("step %d: TouchMarks(%d) ok=%v, Touch ok=%v", step, k, gok, wok)
			}
			for i, id := range ids {
				if marks.Has(id) != wasIn[i] {
					t.Fatalf("step %d: TouchMarks(%d) marker %d = %v, want %v", step, k, i, marks.Has(id), wasIn[i])
				}
			}
			if gok {
				*gv += step
				*wv += step
			}
		default:
			i := rng.Intn(len(present))
			got.Remove(present[i])
			want.Remove(present[i])
			present = append(present[:i], present[i+1:]...)
		}
		for _, l := range []*List[int]{got, want} {
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if !reflect.DeepEqual(got.Keys(), want.Keys()) {
			t.Fatalf("step %d: order %v, want %v", step, got.Keys(), want.Keys())
		}
		if !reflect.DeepEqual(gotDem, wantDem) {
			t.Fatalf("step %d: demotions %v, want %v", step, gotDem, wantDem)
		}
	}
	for _, k := range present {
		g, _ := got.Get(k)
		w, _ := want.Get(k)
		if *g != *w {
			t.Errorf("key %d: value %d, want %d", k, *g, *w)
		}
	}
}
