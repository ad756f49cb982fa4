package main

import (
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/sim"
	"hybridmem/internal/tiered"
)

// paperCost is one run priced in the paper's units.
type paperCost struct {
	// AMATNS is Eq. 1, in ns per access.
	AMATNS float64
	// EnergyNJ is Eq. 2 per access: dynamic + fault + migration energy,
	// plus Eq. 3 static energy when the run has a simulated runtime.
	EnergyNJ float64
	// NVMWritesPerKop counts line writes reaching NVM (request writes,
	// fault fills and demotions) per thousand accesses.
	NVMWritesPerKop float64
	// DRAMHitRate is DRAM hits per access.
	DRAMHitRate float64
}

// countsFromStats maps an online engine's counter delta onto the
// simulator's accounting, field for field. The engine does not split
// evictions by zone; they do not enter the model.
func countsFromStats(st tiered.Stats) sim.Counts {
	return sim.Counts{
		Accesses:       st.Accesses,
		ReadsDRAM:      st.ReadsDRAM,
		WritesDRAM:     st.WritesDRAM,
		ReadsNVM:       st.ReadsNVM,
		WritesNVM:      st.WritesNVM,
		Faults:         st.Faults,
		FaultsToDRAM:   st.FaultsToDRAM,
		FaultsToNVM:    st.FaultsToNVM,
		Promotions:     st.Promotions,
		Demotions:      st.Demotions,
		DemotionsFault: st.DemotionsFault,
		DemotionsPromo: st.DemotionsPromo,
		DemotionsClean: st.DemotionsClean,
		EvictionsNVM:   st.Evictions,
	}
}

// priceCounts prices counts through model.Evaluate. An online run has no
// simulated runtime, so its static term is zero.
func priceCounts(c sim.Counts, spec memspec.Spec) (paperCost, error) {
	return priceResult(&sim.Result{Counts: c}, spec)
}

// priceResult prices a simulated run, static energy included.
func priceResult(r *sim.Result, spec memspec.Spec) (paperCost, error) {
	rep, err := model.Evaluate(r, spec)
	if err != nil {
		return paperCost{}, err
	}
	return paperCost{
		AMATNS:          rep.AMAT.Total(),
		EnergyNJ:        rep.APPR.Total(),
		NVMWritesPerKop: 1000 * float64(rep.NVMWrites.Total()) / float64(r.Counts.Accesses),
		DRAMHitRate:     float64(r.Counts.HitsDRAM()) / float64(r.Counts.Accesses),
	}, nil
}
