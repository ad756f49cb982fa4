package tiered

import (
	"fmt"

	"hybridmem/internal/clockdwf"
	"hybridmem/internal/core"
	"hybridmem/internal/mm"
	"hybridmem/internal/policy"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
)

// VerifyAgainstSim checks the engine's accounting against the paper's
// single-threaded reference scheme. It runs recs through the simulator,
// then replays them through a fresh instance of the same reference policy
// whose every decision is applied to an Engine built from cfg and never
// started: each access gets the tallies ServeTenant makes, and each move
// is applied to the engine's table, frame pools and counters. It compares
// every event count and the final zone occupancies, and returns the
// engine's stats and a nil error when the two accountings are identical.
//
// The reference policies model one uniform machine with no namespaces, so
// cfg must describe a single-node engine whose only tenant is the default
// tenant owning all of DRAM. cfg.Events is ignored: the replay's moves
// must not reach a live migration trace.
func VerifyAgainstSim(cfg Config, recs []trace.Record) (Stats, error) {
	cfg.Events = nil
	e, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	cfg = e.Config()
	if len(cfg.Tenants) != 1 || cfg.Tenants[0].ID != DefaultTenant || cfg.Tenants[0].DRAMQuota != cfg.DRAMPages {
		// A partial quota would be silently ignored by the reference
		// policy, then tripped over by CheckInvariants' spill accounting.
		return Stats{}, fmt.Errorf("tiered: sim equivalence needs the single default tenant owning all of DRAM")
	}
	if n := e.NumNodes(); n != 1 {
		return Stats{}, fmt.Errorf("tiered: sim equivalence needs a single-node topology, got %d nodes", n)
	}

	// Reference side: the simulator driving a fresh policy instance.
	ref, err := newReferencePolicy(cfg)
	if err != nil {
		return Stats{}, err
	}
	res, err := sim.Run(trace.NewSliceSource(recs), ref, cfg.Spec, sim.Options{})
	if err != nil {
		return Stats{}, err
	}

	// Engine side: a second instance's decisions mirrored into the engine.
	pol, err := newReferencePolicy(cfg)
	if err != nil {
		return Stats{}, err
	}
	for i, r := range recs {
		if err := e.replayAccess(pol, r.Addr, r.Op); err != nil {
			return Stats{}, fmt.Errorf("tiered: verify access %d: %w", i, err)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		return Stats{}, err
	}
	got := e.Stats()
	sys := pol.System()
	if got.ResidentDRAM != int64(sys.Residents(mm.LocDRAM)) || got.ResidentNVM != int64(sys.Residents(mm.LocNVM)) {
		return got, fmt.Errorf("tiered: table %d/%d pages, reference system %d/%d",
			got.ResidentDRAM, got.ResidentNVM, sys.Residents(mm.LocDRAM), sys.Residents(mm.LocNVM))
	}
	if err := sys.CheckInvariants(); err != nil {
		return got, err
	}

	c := res.Counts
	checks := []struct {
		name      string
		got, want int64
	}{
		{"accesses", got.Accesses, c.Accesses},
		{"reads-dram", got.ReadsDRAM, c.ReadsDRAM},
		{"writes-dram", got.WritesDRAM, c.WritesDRAM},
		{"reads-nvm", got.ReadsNVM, c.ReadsNVM},
		{"writes-nvm", got.WritesNVM, c.WritesNVM},
		{"faults", got.Faults, c.Faults},
		{"faults-to-dram", got.FaultsToDRAM, c.FaultsToDRAM},
		{"faults-to-nvm", got.FaultsToNVM, c.FaultsToNVM},
		{"promotions", got.Promotions, c.Promotions},
		{"demotions", got.Demotions, c.Demotions},
		{"demotions-fault", got.DemotionsFault, c.DemotionsFault},
		{"demotions-promo", got.DemotionsPromo, c.DemotionsPromo},
		{"demotions-clean", got.DemotionsClean, c.DemotionsClean},
		{"evictions", got.Evictions, c.EvictionsDRAM + c.EvictionsNVM},
		{"resident-dram", got.ResidentDRAM, int64(ref.System().Residents(mm.LocDRAM))},
		{"resident-nvm", got.ResidentNVM, int64(ref.System().Residents(mm.LocNVM))},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			return got, fmt.Errorf("tiered: %s policy diverges from sim on %s: engine %d, sim %d",
				cfg.Policy, ck.name, ck.got, ck.want)
		}
	}
	return got, nil
}

// newReferencePolicy builds the single-threaded reference policy for the
// configured kind: the exact implementation the simulator drives.
func newReferencePolicy(cfg Config) (policy.Policy, error) {
	switch cfg.Policy {
	case Proposed:
		return core.New(cfg.DRAMPages, cfg.NVMPages, cfg.Core)
	case Adaptive:
		return core.NewAdaptive(cfg.DRAMPages, cfg.NVMPages, cfg.Core, cfg.Adaptive)
	case ClockDWF:
		return clockdwf.New(cfg.DRAMPages, cfg.NVMPages, clockdwf.DefaultConfig())
	default:
		return nil, fmt.Errorf("tiered: unknown policy %q (have %v)", cfg.Policy, Kinds())
	}
}

// replayAccess routes one default-tenant access through the reference
// policy and mirrors its outcome into the engine, tallying exactly what
// sim.Run tallies for the same access.
func (e *Engine) replayAccess(pol policy.Policy, addr uint64, op trace.Op) error {
	ts := e.def
	page := e.pageOf(addr)
	if page > maxTablePage {
		return ErrPageRange
	}
	cell := tableKey(ts.id, page) & e.stripeMask
	e.serveCells[cell].accesses.Add(1)
	ts.cells[cell].accesses.Add(1)
	r, err := pol.Access(page, op)
	if err != nil {
		return err
	}
	if r.Fault {
		switch r.ServedFrom {
		case mm.LocDRAM, mm.LocNVM:
			// The replay runs on one node: every placement is local.
			e.tallyFault(ts, r.ServedFrom, 0, 0)
		default:
			return fmt.Errorf("tiered: fault served from %v", r.ServedFrom)
		}
	} else {
		e.tallyHit(ts, cell, r.ServedFrom, op)
	}
	for _, m := range r.Moves {
		if err := e.mirrorMove(ts, m); err != nil {
			return err
		}
	}
	return nil
}

// mirrorMove applies one reference-policy move to the sharded table and
// the occupancy counters, with the same classification sim.Run uses. The
// replay runs on a single-node topology, so every frame lives in node 0's
// pools and every migration is node-local.
func (e *Engine) mirrorMove(ts *tenantState, m policy.Move) error {
	fail := func() error {
		return fmt.Errorf("tiered: table out of sync applying %+v", m)
	}
	n0 := e.nodes[0]
	switch {
	case m.From == mm.LocNVM && m.To == mm.LocDRAM:
		if !e.tbl.MoveIf(ts.id, m.Page, mm.LocNVM, mm.LocDRAM) {
			return fail()
		}
		n0.nvmUsed.Add(-1)
		n0.dramUsed.Add(1)
		ts.dramUsed.Add(1)
		ts.nodeUsed[0].Add(1)
		e.c.promotions.Add(1)
		ts.c.promotions.Add(1)
		n0.promosLocal.Add(1)
	case m.From == mm.LocDRAM && m.To == mm.LocNVM:
		if !e.tbl.MoveIf(ts.id, m.Page, mm.LocDRAM, mm.LocNVM) {
			return fail()
		}
		n0.dramUsed.Add(-1)
		ts.dramUsed.Add(-1)
		ts.nodeUsed[0].Add(-1)
		n0.nvmUsed.Add(1)
		n0.demosLocal.Add(1)
		switch m.Reason {
		case policy.ReasonDemoteClean:
			e.c.demotionsClean.Add(1)
		case policy.ReasonDemoteFault:
			e.c.demotions.Add(1)
			ts.c.demotions.Add(1)
			e.c.demotionsFault.Add(1)
		default:
			e.c.demotions.Add(1)
			ts.c.demotions.Add(1)
			e.c.demotionsPromo.Add(1)
		}
	case m.From == mm.LocDisk && m.To.IsMemory():
		if !e.tbl.Insert(ts.id, m.Page, m.To) {
			return fail()
		}
		if m.To == mm.LocDRAM {
			n0.dramUsed.Add(1)
			ts.dramUsed.Add(1)
			ts.nodeUsed[0].Add(1)
		} else {
			n0.nvmUsed.Add(1)
		}
	case m.To == mm.LocDisk && m.From.IsMemory():
		if !e.tbl.RemoveIf(ts.id, m.Page, m.From) {
			return fail()
		}
		if m.From == mm.LocDRAM {
			n0.dramUsed.Add(-1)
			ts.dramUsed.Add(-1)
			ts.nodeUsed[0].Add(-1)
		} else {
			n0.nvmUsed.Add(-1)
		}
		e.c.evictions.Add(1)
		ts.c.evictions.Add(1)
	default:
		return fmt.Errorf("tiered: unexpected move %+v", m)
	}
	return nil
}
