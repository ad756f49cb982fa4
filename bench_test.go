// Benchmark harness: one benchmark per paper table and figure, regenerating
// the artifact end to end (trace synthesis, warmup, all four policies, model
// evaluation, figure assembly) per iteration, plus micro-benchmarks of every
// substrate on the hot path and ablation benches for the design choices
// DESIGN.md calls out.
//
// Figure benches report their headline number through b.ReportMetric, so a
// benchmark run doubles as a quick reproduction check:
//
//	go test -bench=Fig -benchmem
//
// The benchmarks run at a reduced trace scale (the experiments' shapes are
// scale-stable; see DESIGN.md); cmd/figures regenerates everything at any
// scale including 1.0.
package hybridmem

import (
	"testing"

	"hybridmem/internal/cache"
	"hybridmem/internal/clockdwf"
	"hybridmem/internal/clockpro"
	"hybridmem/internal/core"
	"hybridmem/internal/dramcache"
	"hybridmem/internal/experiments"
	"hybridmem/internal/fullsys"
	"hybridmem/internal/lru"
	"hybridmem/internal/memspec"
	"hybridmem/internal/policy"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// benchCfg is the reduced-scale configuration the figure benches run at.
func benchCfg() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.002
	cfg.MinPages = 128
	return cfg
}

// benchRunAll regenerates the full evaluation once.
func benchRunAll(b *testing.B) []*experiments.WorkloadRun {
	b.Helper()
	runs, err := experiments.RunAll(benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	return runs
}

// figureBench regenerates one figure per iteration and reports its G-Mean
// (or for fig1, the mean static share) as the headline metric.
func figureBench(b *testing.B, id string, group int) {
	var headline float64
	for i := 0; i < b.N; i++ {
		runs := benchRunAll(b)
		f, err := experiments.BuildFigure(id, runs)
		if err != nil {
			b.Fatal(err)
		}
		if gi, ok := f.ColumnIndex("G-Mean"); ok {
			headline = f.Total(group, gi)
		} else {
			// fig1: average static share across workloads.
			sum := 0.0
			static := f.Groups[0].Components[0].Values
			for _, v := range static {
				sum += v
			}
			headline = sum / float64(len(static))
		}
	}
	b.ReportMetric(headline, "headline")
}

// BenchmarkTable2 regenerates the machine-configuration table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2(memspec.DefaultMachine())
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3 regenerates the workload characterization (all twelve
// generators, warmup + ROI).
func BenchmarkTable3(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3Measure(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatal("missing workloads")
		}
	}
}

// BenchmarkTable4 regenerates the memory-characteristics table.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table4(memspec.Default())
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1 regenerates the DRAM-only power breakdown (Fig. 1).
func BenchmarkFig1(b *testing.B) { figureBench(b, "fig1", 0) }

// BenchmarkFig2a regenerates CLOCK-DWF power vs DRAM-only (Fig. 2a).
func BenchmarkFig2a(b *testing.B) { figureBench(b, "fig2a", 0) }

// BenchmarkFig2b regenerates CLOCK-DWF AMAT vs DRAM-only (Fig. 2b).
func BenchmarkFig2b(b *testing.B) { figureBench(b, "fig2b", 0) }

// BenchmarkFig2c regenerates CLOCK-DWF NVM writes vs NVM-only (Fig. 2c).
func BenchmarkFig2c(b *testing.B) { figureBench(b, "fig2c", 0) }

// BenchmarkFig4a regenerates the two-policy power comparison (Fig. 4a),
// reporting the proposed scheme's G-Mean.
func BenchmarkFig4a(b *testing.B) { figureBench(b, "fig4a", 1) }

// BenchmarkFig4b regenerates the two-policy NVM-writes comparison (Fig. 4b).
func BenchmarkFig4b(b *testing.B) { figureBench(b, "fig4b", 1) }

// BenchmarkFig4c regenerates the proposed-vs-CLOCK-DWF AMAT figure (Fig. 4c).
func BenchmarkFig4c(b *testing.B) { figureBench(b, "fig4c", 0) }

// --- ablation benches (design choices) ---

// BenchmarkAblationThresholds sweeps the migration thresholds on raytrace
// (the Section V-B sensitivity discussion).
func BenchmarkAblationThresholds(b *testing.B) {
	cfg := benchCfg()
	pairs := [][2]int{{8, 12}, {96, 128}, {256, 384}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ThresholdSweep("raytrace", cfg, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAdaptive compares fixed and adaptive thresholds.
func BenchmarkAblationAdaptive(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CompareAdaptive("raytrace", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPageFactor sweeps the migration granularity (Section II).
func BenchmarkAblationPageFactor(b *testing.B) {
	cfg := benchCfg()
	geoms := []memspec.Geometry{memspec.DefaultGeometry(), memspec.WordGeometry()}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PageFactorSweep("freqmine", cfg, geoms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFullSys regenerates the trace-methodology comparison.
func BenchmarkAblationFullSys(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FullSysAblation("bodytrack", cfg, fullsys.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReplacement regenerates the LRU/CLOCK/CLOCK-Pro hit-ratio
// comparison.
func BenchmarkAblationReplacement(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ReplacementComparison("ferret", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- policy micro-benchmarks (ns per memory access) ---

// benchTrace builds a reusable skewed trace.
func benchTrace(n int) []trace.Record {
	spec, _ := workload.ByName("ferret")
	g, err := workload.NewGenerator(spec, 0.01, 7)
	if err != nil {
		panic(err)
	}
	recs, err := trace.Materialize(trace.Limit(g, n), 0)
	if err != nil && err != trace.ErrTruncated {
		panic(err)
	}
	return recs
}

// sparseTrace renumbers every page p of recs to p·2^30+7, so each page
// table lookup misses pagemap's dense span and takes its fallback map.
func sparseTrace(recs []trace.Record) []trace.Record {
	const pageSize = 4096
	out := make([]trace.Record, len(recs))
	for i, r := range recs {
		r.Addr = (r.Addr/pageSize<<30+7)*pageSize + r.Addr%pageSize
		out[i] = r
	}
	return out
}

func policyBench(b *testing.B, recs []trace.Record, build func() policy.Policy) {
	spec := memspec.Default()
	b.ResetTimer()
	total := int64(0)
	for i := 0; i < b.N; i++ {
		p := build()
		res, err := sim.Run(trace.NewSliceSource(recs), p, spec, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Counts.Accesses
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Maccesses/s")
}

func benchProposed() policy.Policy {
	p, _ := core.New(12, 117, core.DefaultConfig())
	return p
}

func benchAdaptive() policy.Policy {
	p, _ := core.NewAdaptive(12, 117, core.DefaultConfig(), core.DefaultAdaptiveConfig())
	return p
}

func benchClockDWF() policy.Policy {
	p, _ := clockdwf.New(12, 117, clockdwf.DefaultConfig())
	return p
}

func benchDRAMOnly() policy.Policy {
	p, _ := policy.NewDRAMOnly(129)
	return p
}

func benchDRAMCache() policy.Policy {
	p, _ := dramcache.New(12, 117, dramcache.DefaultConfig())
	return p
}

// BenchmarkPolicyProposed measures the proposed scheme's access path.
func BenchmarkPolicyProposed(b *testing.B) { policyBench(b, benchTrace(200000), benchProposed) }

// BenchmarkPolicyAdaptive measures the adaptive variant's access path.
func BenchmarkPolicyAdaptive(b *testing.B) { policyBench(b, benchTrace(200000), benchAdaptive) }

// BenchmarkPolicyClockDWF measures CLOCK-DWF's access path.
func BenchmarkPolicyClockDWF(b *testing.B) { policyBench(b, benchTrace(200000), benchClockDWF) }

// BenchmarkPolicyDRAMOnly measures the LRU baseline's access path.
func BenchmarkPolicyDRAMOnly(b *testing.B) { policyBench(b, benchTrace(200000), benchDRAMOnly) }

// BenchmarkPolicySparse measures each policy's access path on the same
// trace with sparse page numbers: the page tables' fallback path.
func BenchmarkPolicySparse(b *testing.B) {
	recs := sparseTrace(benchTrace(200000))
	for _, c := range []struct {
		name  string
		build func() policy.Policy
	}{
		{"proposed", benchProposed},
		{"adaptive", benchAdaptive},
		{"clock-dwf", benchClockDWF},
		{"dram-only", benchDRAMOnly},
		{"dramcache", benchDRAMCache},
	} {
		b.Run("policy="+c.name, func(b *testing.B) { policyBench(b, recs, c.build) })
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkSegmentedLRU measures the windowed LRU's Touch path (the
// proposed scheme's hottest operation).
func BenchmarkSegmentedLRU(b *testing.B) {
	l := lru.New[int]()
	l.AddMarker(100, func(uint64, *int) {})
	l.AddMarker(300, func(uint64, *int) {})
	for i := uint64(0); i < 1000; i++ {
		l.PushFront(i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Touch(uint64(i*7919) % 1000)
	}
}

// BenchmarkGenerator measures workload synthesis throughput.
func BenchmarkGenerator(b *testing.B) {
	spec, _ := workload.ByName("canneal")
	g, err := workload.NewGenerator(spec, 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.StopTimer()
			g, _ = workload.NewGenerator(spec, 1, 3)
			b.StartTimer()
		}
	}
}

// BenchmarkCacheHierarchy measures the MOESI hierarchy's access path.
func BenchmarkCacheHierarchy(b *testing.B) {
	h, err := cache.NewHierarchy(memspec.DefaultMachine())
	if err != nil {
		b.Fatal(err)
	}
	recs := benchTrace(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		if _, err := h.Access(int(r.CPU), r.Addr, r.Op == trace.OpWrite, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceCodec measures binary trace encode+decode throughput.
func BenchmarkTraceCodec(b *testing.B) {
	recs := benchTrace(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		w := trace.NewWriter(&buf)
		if _, err := trace.WriteAll(w, trace.NewSliceSource(recs)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs) * 14))
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkAblationArchitecture regenerates the migration-vs-caching
// comparison (Section III).
func BenchmarkAblationArchitecture(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ArchComparison("ferret", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWearLevel regenerates the Start-Gap wear-leveling study.
func BenchmarkAblationWearLevel(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WearLevelAblation("bodytrack", cfg, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyDRAMCache measures the cache-architecture access path.
func BenchmarkPolicyDRAMCache(b *testing.B) { policyBench(b, benchTrace(200000), benchDRAMCache) }

// BenchmarkClockPro measures the CLOCK-Pro replacement access path.
func BenchmarkClockPro(b *testing.B) {
	recs := benchTrace(100000)
	c, err := clockpro.New(150)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		c.Access(r.Page(4096))
	}
}
