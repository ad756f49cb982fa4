// Package core implements the paper's proposed OS-level data migration
// scheme (Section IV, Algorithm 1) for a hybrid DRAM-NVM main memory.
//
// Two unmodified LRU queues manage the two memories. The NVM queue
// additionally keeps per-page read and write counters, but only while a page
// sits within the top ReadPerc / WritePerc fraction of the queue; a page
// pushed across either window boundary has that counter reset (Algorithm 1
// lines 8-9). A counter exceeding its threshold marks the page hot, and the
// page migrates to the DRAM MRU position, displacing the DRAM LRU tail into
// the NVM MRU position. Page faults always load into DRAM (Section IV):
// since DRAM is full in steady state, loading anywhere costs one NVM page
// write either way, and the new page is the most likely to be re-accessed.
//
// The thresholds make migrations conditional on demonstrated reuse inside
// the hot region of the NVM queue, which is exactly what removes the
// non-beneficial migrations that dominate CLOCK-DWF's power and AMAT.
package core

import (
	"fmt"

	"hybridmem/internal/lru"
	"hybridmem/internal/mm"
	"hybridmem/internal/policy"
	"hybridmem/internal/trace"
)

// Config holds the four tuning parameters of Algorithm 1.
//
// The paper sets the write-side parameters higher than the read-side ones
// (Section IV): the larger write window dominates, so write-dominant pages
// still reach their threshold far more easily, matching the stated intent
// that they get migration priority (an NVM write costs 3.5x the latency and
// 10x the energy of a DRAM write, Table IV).
type Config struct {
	// ReadPerc is the fraction of the NVM queue (from the MRU end) within
	// which read counters accumulate; outside it they reset.
	ReadPerc float64
	// WritePerc is the analogous window for write counters.
	WritePerc float64
	// ReadThreshold is the read count (within the window) above which a
	// page migrates to DRAM.
	ReadThreshold int
	// WriteThreshold is the analogous write count.
	WriteThreshold int
}

// DefaultConfig returns the parameter set used for the paper-reproduction
// experiments.
//
// The thresholds are sized relative to the migration cost (Section IV: they
// are "closely related to the cost of the migration between DRAM and NVM"):
// moving a page costs PageFactor (64) line transfers each way, so a page
// must demonstrate more reuse than one full sequential sweep of its lines
// before a migration can pay off. That also makes streaming pages — which
// receive up to PageFactor consecutive hits and then go cold — ineligible.
func DefaultConfig() Config {
	return Config{
		ReadPerc:       0.10,
		WritePerc:      0.30,
		ReadThreshold:  96,
		WriteThreshold: 128,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.ReadPerc <= 0 || c.ReadPerc > 1 {
		return fmt.Errorf("core: ReadPerc %v outside (0,1]", c.ReadPerc)
	}
	if c.WritePerc <= 0 || c.WritePerc > 1 {
		return fmt.Errorf("core: WritePerc %v outside (0,1]", c.WritePerc)
	}
	if c.ReadThreshold < 1 {
		return fmt.Errorf("core: ReadThreshold %d < 1", c.ReadThreshold)
	}
	if c.WriteThreshold < 1 {
		return fmt.Errorf("core: WriteThreshold %d < 1", c.WriteThreshold)
	}
	return nil
}

// counters is the per-page housekeeping stored in the NVM queue. At two
// machine words per page it matches the paper's ~0.04% overhead estimate
// for 4KB pages.
type counters struct {
	reads, writes int
}

// Scheme is the proposed migration policy.
type Scheme struct {
	cfg      Config
	dram     *lru.List[struct{}]
	nvm      *lru.List[counters]
	readWin  lru.MarkerID
	writeWin lru.MarkerID
	sys      *mm.System
	moves    []policy.Move

	// Migrations counts NVM->DRAM promotions (exposed for the adaptive
	// extension and for tests).
	Migrations int64
}

var _ policy.Policy = (*Scheme)(nil)

// New returns the proposed scheme over the given zone sizes.
func New(dramFrames, nvmFrames int, cfg Config) (*Scheme, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dramFrames < 1 || nvmFrames < 1 {
		return nil, fmt.Errorf("core: both zones need frames, got %d/%d", dramFrames, nvmFrames)
	}
	sys, err := mm.NewSystem(dramFrames, nvmFrames)
	if err != nil {
		return nil, err
	}
	s := &Scheme{
		cfg:  cfg,
		dram: lru.New[struct{}](),
		nvm:  lru.New[counters](),
		sys:  sys,
	}
	readCap := windowCap(cfg.ReadPerc, nvmFrames)
	writeCap := windowCap(cfg.WritePerc, nvmFrames)
	if s.readWin, err = s.nvm.AddMarker(readCap, func(_ uint64, v *counters) {
		v.reads = 0
	}); err != nil {
		return nil, err
	}
	if s.writeWin, err = s.nvm.AddMarker(writeCap, func(_ uint64, v *counters) {
		v.writes = 0
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// windowCap converts a queue fraction into a position count (at least 1).
func windowCap(perc float64, frames int) int {
	c := int(perc*float64(frames) + 0.5)
	if c < 1 {
		c = 1
	}
	return c
}

// Name implements policy.Policy.
func (s *Scheme) Name() string { return "proposed" }

// System implements policy.Policy.
func (s *Scheme) System() *mm.System { return s.sys }

// Access implements policy.Policy, following Algorithm 1.
func (s *Scheme) Access(page uint64, op trace.Op) (policy.Result, error) {
	s.moves = s.moves[:0]

	// Line 1-3: DRAM holds the hottest pages, search it first.
	if _, ok := s.dram.Touch(page); ok {
		return policy.Result{ServedFrom: mm.LocDRAM}, nil
	}

	// Lines 7-9: the LRU update pushes one page across each window
	// boundary; the marker demotion callbacks reset its counters. Window
	// membership is sampled before the update: "request is within
	// readperc" refers to the page's position when it is hit.
	if v, was, ok := s.nvm.TouchMarks(page); ok {
		inRead, inWrite := was.Has(s.readWin), was.Has(s.writeWin)

		// Lines 10-22: update the counter for the request's kind.
		migrate := false
		if op == trace.OpRead {
			if inRead {
				v.reads++
			} else {
				v.reads = 1
			}
			migrate = v.reads > s.cfg.ReadThreshold
		} else {
			if inWrite {
				v.writes++
			} else {
				v.writes = 1
			}
			migrate = v.writes > s.cfg.WriteThreshold
		}

		// Lines 23-25: past the threshold, the page is hot; migrate it.
		// The request itself was serviced by NVM before the DMA copy.
		if migrate {
			if err := s.promote(page); err != nil {
				return policy.Result{}, err
			}
		}
		return policy.Result{ServedFrom: mm.LocNVM, Moves: s.moves}, nil
	}

	// Lines 27-28: page fault, always into DRAM.
	if err := s.fault(page); err != nil {
		return policy.Result{}, err
	}
	return policy.Result{ServedFrom: mm.LocDRAM, Fault: true, Moves: s.moves}, nil
}

// promote migrates a hot NVM page to the DRAM MRU position, demoting the
// DRAM LRU tail into the vacated NVM frame when DRAM is full.
func (s *Scheme) promote(page uint64) error {
	s.nvm.Remove(page) // counters are dropped with the queue entry
	s.Migrations++
	if s.dram.Len() == s.sys.Cap(mm.LocDRAM) {
		victim, _, _ := s.dram.RemoveBack()
		if err := s.sys.Swap(page, victim); err != nil {
			return err
		}
		// The demoted page enters the NVM queue like any newly arriving
		// page: at the MRU head with fresh counters (Section IV).
		if err := s.nvm.PushFront(victim, counters{}); err != nil {
			return err
		}
		s.moves = append(s.moves,
			policy.Move{Page: page, From: mm.LocNVM, To: mm.LocDRAM, Reason: policy.ReasonPromotion},
			policy.Move{Page: victim, From: mm.LocDRAM, To: mm.LocNVM, Reason: policy.ReasonDemotePromo})
	} else {
		if _, err := s.sys.Migrate(page, mm.LocDRAM); err != nil {
			return err
		}
		s.moves = append(s.moves, policy.Move{
			Page: page, From: mm.LocNVM, To: mm.LocDRAM, Reason: policy.ReasonPromotion})
	}
	return s.dram.PushFront(page, struct{}{})
}

// fault loads a missing page into DRAM, cascading the DRAM tail into NVM and
// the NVM tail to disk as capacity requires.
func (s *Scheme) fault(page uint64) error {
	if s.dram.Len() == s.sys.Cap(mm.LocDRAM) {
		victim, _, _ := s.dram.RemoveBack()
		if s.nvm.Len() == s.sys.Cap(mm.LocNVM) {
			nvmVictim, _, _ := s.nvm.RemoveBack()
			if err := s.sys.EvictToDisk(nvmVictim); err != nil {
				return err
			}
			s.moves = append(s.moves, policy.Move{
				Page: nvmVictim, From: mm.LocNVM, To: mm.LocDisk, Reason: policy.ReasonEvict})
		}
		if _, err := s.sys.Migrate(victim, mm.LocNVM); err != nil {
			return err
		}
		if err := s.nvm.PushFront(victim, counters{}); err != nil {
			return err
		}
		s.moves = append(s.moves, policy.Move{
			Page: victim, From: mm.LocDRAM, To: mm.LocNVM, Reason: policy.ReasonDemoteFault})
	}
	if _, err := s.sys.Place(page, mm.LocDRAM); err != nil {
		return err
	}
	if err := s.dram.PushFront(page, struct{}{}); err != nil {
		return err
	}
	s.moves = append(s.moves, policy.Move{
		Page: page, From: mm.LocDisk, To: mm.LocDRAM, Reason: policy.ReasonFault})
	return nil
}

// Counters returns the current read/write counters of an NVM-resident page
// (for tests and debugging).
func (s *Scheme) Counters(page uint64) (reads, writes int, ok bool) {
	v, ok := s.nvm.Get(page)
	if !ok {
		return 0, 0, false
	}
	return v.reads, v.writes, true
}

// Residents returns the queue lengths (for tests).
func (s *Scheme) Residents() (dram, nvm int) { return s.dram.Len(), s.nvm.Len() }

// CheckInvariants cross-validates the LRU queues against the physical map.
func (s *Scheme) CheckInvariants() error {
	if err := s.dram.CheckInvariants(); err != nil {
		return err
	}
	if err := s.nvm.CheckInvariants(); err != nil {
		return err
	}
	if err := s.sys.CheckInvariants(); err != nil {
		return err
	}
	if s.dram.Len() != s.sys.Residents(mm.LocDRAM) {
		return fmt.Errorf("core: DRAM queue %d pages, system %d",
			s.dram.Len(), s.sys.Residents(mm.LocDRAM))
	}
	if s.nvm.Len() != s.sys.Residents(mm.LocNVM) {
		return fmt.Errorf("core: NVM queue %d pages, system %d",
			s.nvm.Len(), s.sys.Residents(mm.LocNVM))
	}
	for _, k := range s.dram.Keys() {
		if s.sys.Loc(k) != mm.LocDRAM {
			return fmt.Errorf("core: page %d in DRAM queue but at %s", k, s.sys.Loc(k))
		}
	}
	for _, k := range s.nvm.Keys() {
		if s.sys.Loc(k) != mm.LocNVM {
			return fmt.Errorf("core: page %d in NVM queue but at %s", k, s.sys.Loc(k))
		}
	}
	return nil
}
