package workload

import (
	"testing"

	"hybridmem/internal/trace"
)

func mixOf(t *testing.T, names []string, scale float64, seed int64) *Mix {
	t.Helper()
	var specs []Spec
	for _, n := range names {
		s, ok := ByName(n)
		if !ok {
			t.Fatalf("unknown %s", n)
		}
		specs = append(specs, s)
	}
	m, err := NewMix(specs, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMixValidation(t *testing.T) {
	s, _ := ByName("ferret")
	if _, err := NewMix([]Spec{s}, 0.01, 1); err == nil {
		t.Error("single-tenant mix should error")
	}
	bad := s
	bad.Pattern.HotFraction = 2
	if _, err := NewMix([]Spec{s, bad}, 0.01, 1); err == nil {
		t.Error("invalid tenant should error")
	}
}

func TestMixPreservesTenantCounts(t *testing.T) {
	m := mixOf(t, []string{"bodytrack", "raytrace"}, 0.01, 5)
	perTenant := map[uint64]*trace.Stats{}
	total := int64(0)
	for {
		r, ok := m.Next()
		if !ok {
			break
		}
		tenant := r.Addr >> tenantShift
		st := perTenant[tenant]
		if st == nil {
			st = trace.NewStats(PageSizeBytes)
			perTenant[tenant] = st
		}
		st.Observe(r)
		total++
	}
	if total != m.TotalAccesses() {
		t.Fatalf("emitted %d, want %d", total, m.TotalAccesses())
	}
	if len(perTenant) != 2 {
		t.Fatalf("tenants = %d, want 2", len(perTenant))
	}
	bt, _ := ByName("bodytrack")
	rt, _ := ByName("raytrace")
	btStats := perTenant[1]
	rtStats := perTenant[2]
	if btStats.Reads != scaleInt64(bt.Reads, 0.01) || btStats.Writes != scaleInt64(bt.Writes, 0.01) {
		t.Errorf("bodytrack counts %d/%d wrong", btStats.Reads, btStats.Writes)
	}
	if rtStats.Reads != scaleInt64(rt.Reads, 0.01) || rtStats.Writes != scaleInt64(rt.Writes, 0.01) {
		t.Errorf("raytrace counts %d/%d wrong", rtStats.Reads, rtStats.Writes)
	}
}

func TestMixTenantsAreInterleaved(t *testing.T) {
	m := mixOf(t, []string{"bodytrack", "raytrace"}, 0.01, 7)
	// Within the first 1000 accesses both tenants must appear (no serial
	// phases).
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		r, ok := m.Next()
		if !ok {
			t.Fatal("stream too short")
		}
		seen[r.Addr>>tenantShift] = true
	}
	if len(seen) != 2 {
		t.Errorf("tenants in first 1000 accesses: %d, want 2", len(seen))
	}
}

func TestMixWarmupCoversCombinedFootprint(t *testing.T) {
	m := mixOf(t, []string{"bodytrack", "raytrace"}, 0.01, 9)
	st := trace.CollectStats(m.WarmupSource(1), PageSizeBytes)
	if st.FootprintPages() != m.Pages() {
		t.Errorf("warmup covered %d pages, want %d", st.FootprintPages(), m.Pages())
	}
	if n := m.WarmupSource(1).(sizedSource).TotalAccesses(); n != st.Total() {
		t.Errorf("warmup reports %d accesses, emits %d", n, st.Total())
	}
}

func TestMixDeterminism(t *testing.T) {
	m1 := mixOf(t, []string{"freqmine", "x264"}, 0.005, 11)
	m2 := mixOf(t, []string{"freqmine", "x264"}, 0.005, 11)
	for {
		r1, ok1 := m1.Next()
		r2, ok2 := m2.Next()
		if ok1 != ok2 {
			t.Fatal("lengths diverged")
		}
		if !ok1 {
			break
		}
		if r1 != r2 {
			t.Fatal("streams diverged")
		}
	}
}
