package tiered

import (
	"fmt"

	"hybridmem/internal/core"
	"hybridmem/internal/memspec"
	"hybridmem/internal/mm"
	"hybridmem/internal/trace"
)

// Kind selects the migration policy the engine runs online.
type Kind string

// The policies that run online. Each maps to the same-named reference
// policy of the offline simulator (see VerifyAgainstSim).
const (
	// Proposed is the paper's two-LRU scheme with windowed counters.
	Proposed Kind = "proposed"
	// Adaptive is the proposed scheme with the adaptive-threshold
	// controller retuning per scan epoch.
	Adaptive Kind = "proposed-adaptive"
	// ClockDWF is the write-triggered CLOCK-DWF baseline.
	ClockDWF Kind = "clock-dwf"
)

// Kinds lists every policy the online engine supports.
func Kinds() []Kind { return []Kind{Proposed, Adaptive, ClockDWF} }

// ValidKind reports whether k names a supported online policy. CLIs use it
// to reject unknown -policy values before doing any work.
func ValidKind(k Kind) bool {
	for _, v := range Kinds() {
		if v == k {
			return true
		}
	}
	return false
}

// EpochStats is what one scan epoch observed, as deltas since the previous
// epoch. Adaptive policies retune their thresholds from it.
type EpochStats struct {
	Accesses   int64
	HitsDRAM   int64
	Promotions int64
}

// OnlinePolicy is the migration-decision plug of the engine.
// It sees only windowed per-page counters (gathered by the shard scans),
// never queue positions: the online engine trades the reference policies'
// exact LRU bookkeeping for a lock-free hit path, and approximates their
// recency windows with scan epochs. The engine builds one instance per
// tenant, each fed only its own tenant's epoch deltas, so adaptive
// threshold tuning is independent per tenant.
//
// Concurrency contract: Hot and Epoch are only ever called under the
// engine's scan lock, so implementations may keep plain (non-atomic)
// mutable threshold state. Hot runs once per swept page inside the
// lock-free shard sweep of every epoch, so it must be cheap and must not
// allocate — the daemon's steady state performs zero allocations per
// epoch, and a policy that allocates in Hot would break that (there is a
// regression test). FaultZone is called from concurrent Serve goroutines
// and must be pure.
type OnlinePolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Hot reports whether a page with the given windowed counters should
	// be promoted to DRAM.
	Hot(reads, writes uint64) bool
	// FaultZone says which zone a faulting page is loaded into.
	FaultZone(op trace.Op) mm.Location
	// Epoch is called once per scan epoch (under the scan lock) so
	// adaptive implementations can retune.
	Epoch(EpochStats)
}

// BreakEvenHits returns the number of NVM read hits a page must convert to
// DRAM hits to repay one promotion and the demotion it forces — the
// migration-cost model the paper sizes its thresholds against (Section IV:
// thresholds are "closely related to the cost of the migration"). Moving a
// page costs PageFactor line reads plus writes each way; each subsequent
// access saves the NVM-DRAM read latency difference.
func BreakEvenHits(spec memspec.Spec) int {
	pf := float64(spec.Geometry.PageFactor())
	cost := pf * (spec.NVM.ReadLatencyNS + spec.DRAM.WriteLatencyNS +
		spec.DRAM.ReadLatencyNS + spec.NVM.WriteLatencyNS)
	save := spec.NVM.ReadLatencyNS - spec.DRAM.ReadLatencyNS
	if save <= 0 {
		return 1
	}
	n := int(cost/save) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// proposedOnline migrates pages whose windowed counters exceed the
// configured thresholds, the online form of Algorithm 1's migration test.
// Faults always load into DRAM (Section IV).
type proposedOnline struct {
	readThresh  int
	writeThresh int
}

func (p *proposedOnline) Name() string { return string(Proposed) }

func (p *proposedOnline) Hot(reads, writes uint64) bool {
	return reads > uint64(p.readThresh) || writes > uint64(p.writeThresh)
}

func (p *proposedOnline) FaultZone(trace.Op) mm.Location { return mm.LocDRAM }

func (p *proposedOnline) Epoch(EpochStats) {}

// adaptiveOnline hill-climbs the thresholds per scan epoch, the online form
// of core.Adaptive. The reference controller attributes DRAM hits to the
// specific pages it promoted; tracking that per page would put a write on
// the hit path, so the online controller uses the coarser epoch-level proxy
// DRAM-hits-per-promotion and relies on the configured bounds to keep the
// approximation in range.
type adaptiveOnline struct {
	proposedOnline
	cfg core.AdaptiveConfig

	// Adjustments counts threshold changes (for tests and reports).
	Adjustments int
}

func (a *adaptiveOnline) Name() string { return string(Adaptive) }

func (a *adaptiveOnline) Epoch(s EpochStats) {
	if s.Accesses == 0 {
		return
	}
	read, write := a.readThresh, a.writeThresh
	newRead, newWrite := read, write
	switch {
	case s.Promotions == 0:
		// Nothing migrated: probe downward so hot pages stuck in NVM get
		// a chance to move.
		newRead, newWrite = read-1, write-1
	default:
		utility := float64(s.HitsDRAM) / float64(s.Promotions)
		if utility < a.cfg.TargetUtility {
			newRead, newWrite = read*2, write*2
		} else if utility >= 2*a.cfg.TargetUtility {
			newRead, newWrite = read-1, write-1
		}
	}
	newRead = clampInt(newRead, a.cfg.MinThreshold, a.cfg.MaxThreshold)
	newWrite = clampInt(newWrite, a.cfg.MinThreshold, a.cfg.MaxThreshold)
	if newRead != read || newWrite != write {
		a.readThresh, a.writeThresh = newRead, newWrite
		a.Adjustments++
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// clockDWFOnline is the write-triggered baseline: any write to an NVM page
// within the epoch marks it for promotion (CLOCK-DWF never services writes
// in NVM), write faults load into DRAM and read faults into NVM.
type clockDWFOnline struct{}

func (clockDWFOnline) Name() string { return string(ClockDWF) }

func (clockDWFOnline) Hot(_, writes uint64) bool { return writes >= 1 }

func (clockDWFOnline) FaultZone(op trace.Op) mm.Location {
	if op == trace.OpWrite {
		return mm.LocDRAM
	}
	return mm.LocNVM
}

func (clockDWFOnline) Epoch(EpochStats) {}

// newOnlinePolicy builds the decision plug for a kind.
func newOnlinePolicy(kind Kind, coreCfg core.Config, adCfg core.AdaptiveConfig) (OnlinePolicy, error) {
	base := proposedOnline{
		readThresh:  coreCfg.ReadThreshold,
		writeThresh: coreCfg.WriteThreshold,
	}
	switch kind {
	case Proposed:
		return &base, nil
	case Adaptive:
		if err := adCfg.Validate(); err != nil {
			return nil, err
		}
		return &adaptiveOnline{proposedOnline: base, cfg: adCfg}, nil
	case ClockDWF:
		return clockDWFOnline{}, nil
	default:
		return nil, fmt.Errorf("tiered: unknown policy %q (have %v)", kind, Kinds())
	}
}
