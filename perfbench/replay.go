package main

import (
	"fmt"
	"time"

	"hybridmem/internal/clockdwf"
	"hybridmem/internal/core"
	"hybridmem/internal/experiments"
	"hybridmem/internal/model"
	"hybridmem/internal/policy"
	"hybridmem/internal/runner"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// replayWorkers is the runner pool width, as many workers as the online
// workloads have load goroutines.
const replayWorkers = 2

// replayBench replays the paper's evaluation grid — every Table III
// workload under the four standard policies — one workload row per
// request, over traces generated once at set-up.
type replayBench struct {
	cfg   experiments.Config
	names []string
	// first holds each row's first run: the reference for the determinism
	// check and the source of the paper-unit metrics.
	first map[string]*experiments.WorkloadRun
}

// effectiveScale mirrors experiments.Config's per-workload scale: the
// configured scale, floored so the footprint keeps MinPages pages. It is a
// copy of an unexported method and must track it, or the probe's trace
// handles miss the grid's cache.
func effectiveScale(cfg experiments.Config, spec workload.Spec) float64 {
	s := cfg.Scale
	if cfg.MinPages > 0 && float64(spec.Pages())*s < float64(cfg.MinPages) {
		s = float64(cfg.MinPages) / float64(spec.Pages())
	}
	if s > 1 {
		s = 1
	}
	return s
}

// traces returns the cached trace handle the grid uses for spec.
func (b *replayBench) traces(spec workload.Spec) *runner.Traces {
	return b.cfg.Cache.Get(spec, effectiveScale(b.cfg, spec), b.cfg.Seed)
}

// setupReplay generates every row's trace on the runner pool, then runs
// the first row once to settle.
func setupReplay(seed int64, _ string, tr *tracer, genS *float64) (instance, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Parallel = replayWorkers
	cfg.Cache = runner.NewTraceCache()
	b := &replayBench{cfg: cfg, names: workload.Names(), first: map[string]*experiments.WorkloadRun{}}
	start := time.Now()
	err := runner.New(replayWorkers).Do(len(b.names), func(i int) error {
		spec, _ := workload.ByName(b.names[i])
		t0 := time.Now()
		_, _, _, err := b.traces(spec).Materialize()
		t1 := time.Now()
		tr.lane().add("workload.generate", -1, t0, t1)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("generate traces: %w", err)
	}
	*genS = time.Since(start).Seconds()
	if _, err := experiments.RunWorkload(b.names[0], cfg); err != nil {
		return nil, err
	}
	return b, nil
}

// simulated returns the accesses a row simulated: each policy's warm-up
// pass (one per page) plus its ROI.
func simulated(run *experiments.WorkloadRun) int64 {
	var n int64
	for _, res := range run.Results {
		n += int64(run.Pages) + res.Counts.Accesses
	}
	return n
}

// checkRow checks a row's accounting and, on a repeat, that it reproduced
// the row's first run exactly.
func (b *replayBench) checkRow(run *experiments.WorkloadRun, ck *checks) {
	first := b.first[run.Workload.Name]
	if first == nil {
		b.first[run.Workload.Name] = run
	}
	for _, id := range experiments.StandardPolicies() {
		key := run.Workload.Name + "/" + string(id)
		ck.add(checkSimCounts(key, run.Results[id].Counts))
		if first != nil {
			ck.add(checkSameRun(key, first.Results[id], run.Results[id]))
		}
	}
}

func (b *replayBench) window(d time.Duration, tr *tracer, ck *checks) (*window, error) {
	ln := tr.lane()
	w := &window{layer: map[string]float64{}}
	start := time.Now()
	// Whole grids only, each one slice, so every window replays the same
	// mix of rows: the window ends at the first grid boundary after d.
	for time.Since(start) < d {
		gridStart, gridOps := time.Now(), w.ops
		sl := &slice{}
		for _, name := range b.names {
			t0 := time.Now()
			run, err := experiments.RunWorkload(name, b.cfg)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			ln.add("experiments.RunWorkload", -1, t0, t1)
			sl.lat.Record(int64(t1.Sub(t0)))
			w.ops += simulated(run)
			b.checkRow(run, ck)
		}
		sl.rate = float64(w.ops-gridOps) / time.Since(gridStart).Seconds()
		w.slices = append(w.slices, sl)
	}
	cost, err := b.paperCost()
	if err != nil {
		return nil, err
	}
	w.cost = cost
	if tr != nil {
		if err := b.probe(ln, ck, w.layer); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// paperCost prices the proposed policy over the grid: the geometric mean
// of the rows' Eq. 1-3 costs (static energy included) and the mean of
// their DRAM hit rates. Every row weighs the same, so the largest
// workload's seed-to-seed swing does not dominate.
func (b *replayBench) paperCost() (paperCost, error) {
	var amat, energy, writes []float64
	var hitRate float64
	for _, name := range b.names {
		res := b.first[name].Results[experiments.Proposed]
		c, err := priceResult(res, b.cfg.Spec)
		if err != nil {
			return paperCost{}, fmt.Errorf("%s: %w", name, err)
		}
		amat = append(amat, c.AMATNS)
		energy = append(energy, c.EnergyNJ)
		writes = append(writes, c.NVMWritesPerKop)
		hitRate += c.DRAMHitRate / float64(len(b.names))
	}
	return paperCost{
		AMATNS:          geomean(amat),
		EnergyNJ:        geomean(energy),
		NVMWritesPerKop: geomean(writes),
		DRAMHitRate:     hitRate,
	}, nil
}

// buildPolicy builds one standard policy the way the evaluation grid
// provisions it. It is a copy of experiments' unexported buildPolicy and
// must track it; a drift shows as a checkSameRun failure in the probe.
func buildPolicy(id experiments.PolicyID, cfg experiments.Config, pages int) (policy.Policy, error) {
	dram, nvm := cfg.Sizing.Partition(pages)
	switch id {
	case experiments.DRAMOnly:
		return policy.NewDRAMOnly(cfg.Sizing.TotalPages(pages))
	case experiments.NVMOnly:
		return policy.NewNVMOnly(cfg.Sizing.TotalPages(pages))
	case experiments.ClockDWF:
		return clockdwf.New(dram, nvm, cfg.DWF)
	case experiments.Proposed:
		if cfg.Adaptive {
			return core.NewAdaptive(dram, nvm, cfg.Core, cfg.AdaptiveCfg)
		}
		return core.New(dram, nvm, cfg.Core)
	}
	return nil, fmt.Errorf("unknown policy %q", id)
}

// probe runs the grid once more as runner jobs, which time each
// simulation, to cost the layers under experiments: the runner pool's
// busy share, each policy's simulation rate and model evaluation.
func (b *replayBench) probe(ln *lane, ck *checks, layer map[string]float64) error {
	var jobs []runner.Job
	for _, name := range b.names {
		spec, _ := workload.ByName(name)
		tr := b.traces(spec)
		for _, id := range experiments.StandardPolicies() {
			id := id
			jobs = append(jobs, runner.Job{
				ID:    name + "/" + string(id),
				Seed:  b.cfg.Seed,
				Trace: tr,
				Spec:  b.cfg.Spec,
				Opts:  sim.Options{CheckEvery: b.cfg.CheckEvery},
				Build: func() (policy.Policy, error) {
					_, _, pages, err := tr.Materialize()
					if err != nil {
						return nil, err
					}
					return buildPolicy(id, b.cfg, pages)
				},
			})
		}
	}
	start := time.Now()
	results, err := runner.New(replayWorkers).RunJobs(jobs)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("runner probe: %w", err)
	}
	ln.add("runner.RunJobs", -1, start, end)

	var busy time.Duration
	elapsed := map[string]time.Duration{}
	accesses := map[string]int64{}
	for i, r := range results {
		name, id := b.names[i/4], experiments.StandardPolicies()[i%4]
		ck.add(checkSameRun(r.ID, b.first[name].Results[id], r.Result))
		busy += r.Elapsed
		elapsed[string(id)] += r.Elapsed
		accesses[string(id)] += int64(b.first[name].Pages) + r.Result.Counts.Accesses
		err := ln.timed("model.Evaluate", func() error {
			_, err := model.Evaluate(r.Result, b.cfg.Spec)
			return err
		})
		ck.add(err)
	}
	layer["runner.busy_share"] = busy.Seconds() / (replayWorkers * end.Sub(start).Seconds())
	for id, e := range elapsed {
		layer["sim.accesses_per_s."+id] = float64(accesses[id]) / e.Seconds()
	}
	layer["runner.trace_generations"] = float64(b.cfg.Cache.Generations())
	return nil
}

// finish has nothing left to stop: the grid runs to completion per row.
func (b *replayBench) finish(*tracer, *checks, map[string]float64) error { return nil }

func (b *replayBench) close() {}
