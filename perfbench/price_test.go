package main

import (
	"math"
	"testing"

	"hybridmem/internal/core"
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/sim"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// simulate runs one small Table III workload under the proposed policy.
func simulate(t *testing.T) *sim.Result {
	t.Helper()
	spec, _ := workload.ByName("ferret")
	gen, err := workload.NewGenerator(spec, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	dram, nvm := memspec.DefaultSizing().Partition(gen.Pages())
	pol, err := core.New(dram, nvm, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(trace.Concat(gen.WarmupSource(4), gen), pol, memspec.Default(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Promotions == 0 || res.Counts.Demotions == 0 || res.Counts.WritesNVM == 0 {
		t.Fatalf("run exercises too little of the model: %+v", res.Counts)
	}
	return res
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

func TestPriceCountsMatchesModelEvaluate(t *testing.T) {
	res := simulate(t)
	spec := memspec.Default()
	rep, err := model.Evaluate(res, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := priceCounts(res.Counts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !near(got.AMATNS, rep.AMAT.Total()) {
		t.Errorf("AMAT %v, model says %v", got.AMATNS, rep.AMAT.Total())
	}
	if want := rep.APPR.Total() - rep.APPR.Static; !near(got.EnergyNJ, want) {
		t.Errorf("energy %v, model's non-static energy is %v", got.EnergyNJ, want)
	}
	if want := 1000 * float64(rep.NVMWrites.Total()) / float64(rep.Accesses); !near(got.NVMWritesPerKop, want) {
		t.Errorf("NVM writes/kop %v, model says %v", got.NVMWritesPerKop, want)
	}
	full, err := priceResult(res, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !near(full.EnergyNJ, rep.APPR.Total()) || rep.APPR.Static == 0 {
		t.Errorf("simulated run energy %v, model says %v (static %v)", full.EnergyNJ, rep.APPR.Total(), rep.APPR.Static)
	}
}

func TestCountsFromStatsRoundTrips(t *testing.T) {
	c := simulate(t).Counts
	st := tiered.Stats{
		Accesses: c.Accesses, ReadsDRAM: c.ReadsDRAM, WritesDRAM: c.WritesDRAM,
		ReadsNVM: c.ReadsNVM, WritesNVM: c.WritesNVM, Faults: c.Faults,
		FaultsToDRAM: c.FaultsToDRAM, FaultsToNVM: c.FaultsToNVM,
		Promotions: c.Promotions, Demotions: c.Demotions,
		DemotionsFault: c.DemotionsFault, DemotionsPromo: c.DemotionsPromo,
		DemotionsClean: c.DemotionsClean,
	}
	back := countsFromStats(st)
	back.TotalGapNS, back.EvictionsDRAM, back.EvictionsNVM = c.TotalGapNS, c.EvictionsDRAM, c.EvictionsNVM
	if back != c {
		t.Fatalf("round trip changed counts:\n got %+v\nwant %+v", back, c)
	}
}
