package lru

import (
	"testing"
	"testing/quick"
)

// mirror is a brute-force reference model of the segmented LRU: a slice
// ordered front-to-back with windows recomputed from positions.
type mirror struct {
	keys []uint64
	caps []int
}

func (m *mirror) indexOf(k uint64) int {
	for i, kk := range m.keys {
		if kk == k {
			return i
		}
	}
	return -1
}

func (m *mirror) pushFront(k uint64) { m.keys = append([]uint64{k}, m.keys...) }

func (m *mirror) touch(k uint64) {
	i := m.indexOf(k)
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.pushFront(k)
}

func (m *mirror) remove(k uint64) {
	i := m.indexOf(k)
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
}

func (m *mirror) removeBack() uint64 {
	k := m.keys[len(m.keys)-1]
	m.keys = m.keys[:len(m.keys)-1]
	return k
}

func (m *mirror) inWindow(k uint64, w int) bool {
	i := m.indexOf(k)
	return i >= 0 && i < m.caps[w]
}

// TestQuickOpsMatchMirror replays quick-generated operation sequences
// against the real list and the brute-force mirror, comparing the complete
// observable state (key order and window membership) after every step.
func TestQuickOpsMatchMirror(t *testing.T) {
	f := func(ops []uint16, cap1, cap2 uint8) bool {
		c1 := int(cap1%9) + 1
		c2 := int(cap2%9) + 1
		l := New[int]()
		if _, err := l.AddMarker(c1, nil); err != nil {
			return false
		}
		if _, err := l.AddMarker(c2, nil); err != nil {
			return false
		}
		m := &mirror{caps: []int{c1, c2}}
		nextKey := uint64(1)

		for _, op := range ops {
			kind := op % 4
			switch {
			case kind == 0 || len(m.keys) == 0:
				l.PushFront(nextKey, 0)
				m.pushFront(nextKey)
				nextKey++
			case kind == 1:
				k := m.keys[int(op/4)%len(m.keys)]
				if _, ok := l.Touch(k); !ok {
					return false
				}
				m.touch(k)
			case kind == 2:
				k := m.keys[int(op/4)%len(m.keys)]
				if _, ok := l.Remove(k); !ok {
					return false
				}
				m.remove(k)
			default:
				k, _, ok := l.RemoveBack()
				if !ok {
					return false
				}
				if want := m.removeBack(); k != want {
					return false
				}
			}
			// Full-state comparison.
			keys := l.Keys()
			if len(keys) != len(m.keys) {
				return false
			}
			for i, k := range keys {
				if k != m.keys[i] {
					return false
				}
			}
			for w := 0; w < 2; w++ {
				for _, k := range m.keys {
					if l.inWindow(k, MarkerID(w)) != m.inWindow(k, w) {
						return false
					}
				}
			}
			if err := l.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
