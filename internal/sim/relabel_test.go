package sim

import (
	"testing"

	"hybridmem/internal/clockdwf"
	"hybridmem/internal/core"
	"hybridmem/internal/dramcache"
	"hybridmem/internal/memspec"
	"hybridmem/internal/policy"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// TestRelabellingInvariance replays one trace under injective renumberings
// of its pages, dense and sparse, and requires every policy to produce
// identical counts and wear: placement must depend on the access pattern
// only, never on the page numbers or on how the page tables store them.
func TestRelabellingInvariance(t *testing.T) {
	spec, _ := workload.ByName("dedup")
	g, err := workload.NewGenerator(spec, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := trace.Materialize(g.WarmupSource(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	roi, err := trace.Materialize(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := append(warm, roi...)
	pages := g.Pages()

	mspec := memspec.Default()
	pageSize := uint64(mspec.Geometry.PageSizeBytes)
	relabel := func(f func(p uint64) uint64) []trace.Record {
		out := make([]trace.Record, len(recs))
		for i, r := range recs {
			p := r.Addr / pageSize
			r.Addr = f(p)*pageSize + r.Addr%pageSize
			out[i] = r
		}
		return out
	}
	labellings := []struct {
		name string
		f    func(p uint64) uint64
	}{
		{"identity", func(p uint64) uint64 { return p }},
		{"strided 2^30", func(p uint64) uint64 { return p<<30 + 7 }},
		{"mirrored 2^52", func(p uint64) uint64 { return 1<<52 - 1 - p }},
		{"every third +2^40", func(p uint64) uint64 {
			if p%3 == 0 {
				return p + 1<<40
			}
			return p
		}},
	}

	sizing := memspec.DefaultSizing()
	total := sizing.TotalPages(pages)
	dram, nvm := sizing.Partition(pages)
	builders := []struct {
		name  string
		build func() (policy.Policy, error)
	}{
		{"proposed", func() (policy.Policy, error) { return core.New(dram, nvm, core.DefaultConfig()) }},
		{"proposed-adaptive", func() (policy.Policy, error) {
			return core.NewAdaptive(dram, nvm, core.DefaultConfig(), core.DefaultAdaptiveConfig())
		}},
		{"clock-dwf", func() (policy.Policy, error) { return clockdwf.New(dram, nvm, clockdwf.DefaultConfig()) }},
		{"dram-only", func() (policy.Policy, error) { return policy.NewDRAMOnly(total) }},
		{"nvm-only", func() (policy.Policy, error) { return policy.NewNVMOnly(total) }},
		{"dramcache", func() (policy.Policy, error) { return dramcache.New(dram, nvm, dramcache.DefaultConfig()) }},
	}

	traces := make([][]trace.Record, len(labellings))
	for i, l := range labellings {
		traces[i] = relabel(l.f)
	}
	for _, b := range builders {
		var want *Result
		for i, l := range labellings {
			p, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(trace.NewSliceSource(traces[i]), p, mspec, Options{Shadow: true, CheckEvery: 10007})
			if err != nil {
				t.Fatalf("%s, %s: %v", b.name, l.name, err)
			}
			if want == nil {
				want = res
				continue
			}
			if res.Counts != want.Counts {
				t.Errorf("%s, %s: counts\n got  %+v\n want %+v", b.name, l.name, res.Counts, want.Counts)
			}
			if res.NVMWear != want.NVMWear {
				t.Errorf("%s, %s: NVM wear %+v, want %+v", b.name, l.name, res.NVMWear, want.NVMWear)
			}
		}
	}
}
