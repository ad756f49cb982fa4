package mm

import (
	"math/rand"
	"testing"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(-1, 2); err == nil {
		t.Error("negative DRAM size should error")
	}
	if _, err := NewSystem(0, 0); err == nil {
		t.Error("zero total frames should error")
	}
	s, err := NewSystem(0, 4)
	if err != nil {
		t.Fatalf("NVM-only system: %v", err)
	}
	if s.Cap(LocDRAM) != 0 || s.Cap(LocNVM) != 4 {
		t.Errorf("caps = %d/%d", s.Cap(LocDRAM), s.Cap(LocNVM))
	}
}

func TestLocationString(t *testing.T) {
	if LocDRAM.String() != "DRAM" || LocNVM.String() != "NVM" || LocDisk.String() != "disk" {
		t.Error("location names wrong")
	}
	if LocDisk.IsMemory() || !LocDRAM.IsMemory() || !LocNVM.IsMemory() {
		t.Error("IsMemory wrong")
	}
}

func TestPlaceAndCapacity(t *testing.T) {
	s, _ := NewSystem(2, 1)
	if _, err := s.Place(10, LocDRAM); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(11, LocDRAM); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(12, LocDRAM); err == nil {
		t.Error("placing into a full zone should error")
	}
	if _, err := s.Place(10, LocNVM); err == nil {
		t.Error("placing an already-resident page should error")
	}
	if _, err := s.Place(12, LocDisk); err == nil {
		t.Error("placing to disk should error")
	}
	if s.Free(LocDRAM) != 0 || s.Residents(LocDRAM) != 2 {
		t.Errorf("free/residents = %d/%d", s.Free(LocDRAM), s.Residents(LocDRAM))
	}
	if s.Loc(10) != LocDRAM || s.Loc(99) != LocDisk {
		t.Error("Loc wrong")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrate(t *testing.T) {
	s, _ := NewSystem(1, 1)
	s.Place(1, LocDRAM)
	if _, err := s.Migrate(1, LocNVM); err != nil {
		t.Fatal(err)
	}
	if s.Loc(1) != LocNVM {
		t.Errorf("Loc = %v, want NVM", s.Loc(1))
	}
	if s.Free(LocDRAM) != 1 || s.Free(LocNVM) != 0 {
		t.Error("frame accounting after migration wrong")
	}
	if _, err := s.Migrate(1, LocNVM); err == nil {
		t.Error("migrating to current zone should error")
	}
	if _, err := s.Migrate(2, LocDRAM); err == nil {
		t.Error("migrating non-resident page should error")
	}
	s.Place(2, LocDRAM)
	if _, err := s.Migrate(2, LocNVM); err == nil {
		t.Error("migrating into a full zone should error")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictToDisk(t *testing.T) {
	s, _ := NewSystem(1, 0)
	s.Place(1, LocDRAM)
	if err := s.EvictToDisk(1); err != nil {
		t.Fatal(err)
	}
	if s.Loc(1) != LocDisk {
		t.Error("page should be on disk")
	}
	if err := s.EvictToDisk(1); err == nil {
		t.Error("evicting non-resident page should error")
	}
	// Frame must be reusable.
	if _, err := s.Place(2, LocDRAM); err != nil {
		t.Fatal(err)
	}
}

func TestWear(t *testing.T) {
	s, _ := NewSystem(1, 2)
	s.Place(1, LocNVM)
	s.Place(2, LocNVM)
	if err := s.AddWear(1, 64); err != nil {
		t.Fatal(err)
	}
	s.AddWear(1, 1)
	s.AddWear(2, 10)
	if err := s.AddWear(3, 1); err == nil {
		t.Error("wear on non-resident page should error")
	}
	ws := s.Wear(LocNVM)
	if ws.Total != 75 || ws.Max != 65 || ws.Used != 2 {
		t.Errorf("wear = %+v, want total 75 max 65 used 2", ws)
	}
	if s.Wear(LocDRAM).Total != 0 {
		t.Error("DRAM wear should be zero")
	}
	// Wear sticks to the frame, not the page: after eviction the frame
	// keeps its history.
	s.EvictToDisk(1)
	if got := s.Wear(LocNVM).Total; got != 75 {
		t.Errorf("wear after eviction = %d, want 75", got)
	}
}

func TestFrameReuseLowIndicesFirst(t *testing.T) {
	s, _ := NewSystem(3, 0)
	f1, _ := s.Place(1, LocDRAM)
	f2, _ := s.Place(2, LocDRAM)
	if f1.Index != 0 || f2.Index != 1 {
		t.Errorf("frames = %d,%d; want 0,1", f1.Index, f2.Index)
	}
}

func TestRandomOpsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, _ := NewSystem(8, 16)
	resident := map[uint64]bool{}
	nextPage := uint64(1)
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			loc := LocDRAM
			if rng.Intn(2) == 0 {
				loc = LocNVM
			}
			if s.Free(loc) > 0 {
				if _, err := s.Place(nextPage, loc); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				resident[nextPage] = true
				nextPage++
			}
		case op < 7:
			if len(resident) > 0 {
				p := anyPage(rng, resident)
				to := LocDRAM
				if s.Loc(p) == LocDRAM {
					to = LocNVM
				}
				if s.Free(to) > 0 {
					if _, err := s.Migrate(p, to); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
		case op < 9:
			if len(resident) > 0 {
				p := anyPage(rng, resident)
				if err := s.EvictToDisk(p); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				delete(resident, p)
			}
		default:
			if len(resident) > 0 {
				if err := s.AddWear(anyPage(rng, resident), uint64(rng.Intn(100))); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := s.Residents(LocDRAM) + s.Residents(LocNVM); got != len(resident) {
			t.Fatalf("step %d: residents %d, want %d", step, got, len(resident))
		}
	}
}

func anyPage(rng *rand.Rand, m map[uint64]bool) uint64 {
	i := rng.Intn(len(m))
	for k := range m {
		if i == 0 {
			return k
		}
		i--
	}
	panic("unreachable")
}

// TestNonMemoryLocations pins the answers for LocDisk and out-of-range
// Location values: no frames, no wear, no leveling.
func TestNonMemoryLocations(t *testing.T) {
	s, _ := NewSystem(2, 3)
	for _, loc := range []Location{LocDisk, Location(3), Location(255)} {
		if s.Cap(loc) != 0 || s.Free(loc) != 0 || s.Residents(loc) != 0 || s.GapMoves(loc) != 0 {
			t.Errorf("%d: cap/free/residents/gap = %d/%d/%d/%d", loc,
				s.Cap(loc), s.Free(loc), s.Residents(loc), s.GapMoves(loc))
		}
		if w := s.Wear(loc); w != (WearStats{}) {
			t.Errorf("%d: wear %+v", loc, w)
		}
		if err := s.EnableWearLeveling(loc, 10); err == nil {
			t.Errorf("%d: wear leveling enabled on a non-memory location", loc)
		}
		if err := s.AddWearFrame(Frame{Zone: loc}, 1); err == nil {
			t.Errorf("%d: wear charged to a non-memory frame", loc)
		}
	}
}

// TestSparsePageNumbers places pages whose numbers are far beyond the
// frame count, including the extremes of the page-number space.
func TestSparsePageNumbers(t *testing.T) {
	s, _ := NewSystem(2, 2)
	pages := []uint64{0, 1 << 40, 1<<64 - 1, 7<<30 + 7}
	for i, p := range pages {
		loc := LocDRAM
		if i%2 == 1 {
			loc = LocNVM
		}
		if _, err := s.Place(p, loc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Swap(0, 7<<30+7); err != nil {
		t.Fatal(err)
	}
	if s.Loc(0) != LocNVM || s.Loc(7<<30+7) != LocDRAM || s.Loc(1<<64-1) != LocDRAM || s.Loc(5) != LocDisk {
		t.Error("Loc wrong after swap")
	}
	if err := s.EvictToDisk(1 << 40); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.FrameOf(1 << 40); ok {
		t.Error("evicted page still has a frame")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsDetectsCorruption breaks the frame tables directly
// and expects each break to be reported.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *System {
		s, _ := NewSystem(2, 2)
		if _, err := s.Place(10, LocDRAM); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Place(11, LocNVM); err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := map[string]func(s *System){
		"wrong resident": func(s *System) { s.zones[LocDRAM].pageOf[0] = 99 },
		"frame freed":    func(s *System) { s.zones[LocNVM].release(0) },
		"frame leaked":   func(s *System) { s.zones[LocDRAM].free = s.zones[LocDRAM].free[:0] },
		"bad free frame": func(s *System) { s.zones[LocNVM].free[0] = 5 },
		"unknown zone":   func(s *System) { s.where.Set(12, Frame{Zone: Location(9)}) },
	}
	for name, corrupt := range cases {
		s := build()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: clean system: %v", name, err)
		}
		corrupt(s)
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}
