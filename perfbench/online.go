package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"hybridmem/internal/memspec"
	"hybridmem/internal/obs"
	"hybridmem/internal/persist"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// roiCap bounds each materialized ROI prefix. Loads replay their trace
// circularly, so the bound caps set-up time and memory without ending the
// run early.
const roiCap = 1 << 20

// sampleEvery is a traced window's span sampling period for per-access
// calls: one access in sampleEvery gets a span.
const sampleEvery = 256

// genTrace materializes a workload's warm-up pass (every page touched
// once) and a bounded prefix of its ROI, each into one exactly sized
// slice so set-up leaves no garbage behind.
func genTrace(name string, scale float64, seed int64, ln *lane) (warm, roi []trace.Record, pages int, err error) {
	err = ln.timed("workload.generate", func() error {
		spec, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("unknown Table III workload %q", name)
		}
		gen, err := workload.NewGenerator(spec, scale, seed)
		if err != nil {
			return err
		}
		pages = gen.Pages()
		warm = drain(gen.WarmupSource(seed+1), pages)
		roi = drain(gen, int(min(gen.TotalAccesses(), roiCap)))
		return nil
	})
	return warm, roi, pages, err
}

// drain reads up to n records from src.
func drain(src trace.Source, n int) []trace.Record {
	recs := make([]trace.Record, 0, n)
	for len(recs) < n {
		r, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	return recs
}

// loop is one closed-loop caller: it serves a tenant's trace circularly,
// one access at a time, each issued as soon as the previous returns.
type loop struct {
	tenant    tiered.TenantID
	recs      []trace.Record
	pos       int
	ops, errs int64
}

// run serves until the window tallied by t ends or, with a nil t, until
// maxOps accesses are done. Each access's latency, tallied into t, is the
// time since the previous one completed. With ln set, one access in
// sampleEvery gets a span.
func (l *loop) run(e *tiered.Engine, t *tally, maxOps int64, ln *lane) {
	l.ops, l.errs = 0, 0
	prev := time.Now()
	for l.ops < maxOps {
		r := l.recs[l.pos]
		if l.pos++; l.pos == len(l.recs) {
			l.pos = 0
		}
		sampled := ln != nil && l.ops%sampleEvery == 0
		start := prev
		if sampled {
			start = time.Now()
		}
		_, err := e.ServeTenant(l.tenant, r.Addr, r.Op)
		now := time.Now()
		if sampled {
			ln.add("tiered.ServeTenant", -1, start, now)
		}
		if err != nil {
			l.errs++
		}
		l.ops++
		if t != nil && t.add(now, 1, now.Sub(prev)) {
			return
		}
		prev = now
	}
}

// engineBench drives an in-process engine with one closed loop per
// caller; with a checkpointer it also cuts checkpoints on a fixed period.
type engineBench struct {
	e     *tiered.Engine
	cfg   tiered.Config
	loops []*loop

	ring     *obs.EventRing
	ckp      *persist.Checkpointer
	dir      string
	cutEvery time.Duration
	// Cut outcomes, written by the one goroutine cutting at a time.
	cuts, cutFails       int64
	cutBytes, cutRecords []float64
}

// start builds and starts the engine, then warms it: each tenant's warm-up
// pass serially, then settleOps accesses per loop concurrently. A
// checkpointer's base cut gets a span on ln.
func (b *engineBench) start(warm [][]trace.Record, settleOps int64, ln *lane) error {
	e, err := tiered.New(b.cfg)
	if err != nil {
		return err
	}
	if b.dir != "" {
		if b.ckp, err = persist.NewCheckpointer(e, persist.Config{Dir: b.dir, FullEvery: churnFullEvery}); err != nil {
			return err
		}
	}
	if err := e.Start(); err != nil {
		return err
	}
	b.e = e
	for i, recs := range warm {
		for _, r := range recs {
			if _, err := e.ServeTenant(b.loops[i].tenant, r.Addr, r.Op); err != nil {
				b.close()
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if b.ckp != nil {
		b.cut(ln) // the chain's base
	}
	b.runLoops(nil, settleOps, nil)
	for _, l := range b.loops {
		if l.errs != 0 {
			b.close()
			return fmt.Errorf("settle: %d serve errors", l.errs)
		}
	}
	return nil
}

// runLoops runs every loop on its own goroutine and waits for all: for the
// window p paces, or with a nil p for maxOps accesses each. It returns
// the loops' tallies.
func (b *engineBench) runLoops(p *pacer, maxOps int64, tr *tracer) []*tally {
	var wg sync.WaitGroup
	ts := make([]*tally, len(b.loops))
	for i, l := range b.loops {
		if p != nil {
			ts[i] = p.tally()
		}
		wg.Add(1)
		go func(l *loop, t *tally, ln *lane) {
			defer wg.Done()
			l.run(b.e, t, maxOps, ln)
		}(l, ts[i], tr.lane())
	}
	wg.Wait()
	return ts
}

// cut takes one checkpoint and records its outcome.
func (b *engineBench) cut(ln *lane) {
	before := b.ckp.Stats()
	start := time.Now()
	err := b.ckp.CheckpointNow()
	end := time.Now()
	b.cuts++
	if err != nil {
		b.cutFails++
		fmt.Fprintln(os.Stderr, "perfbench: checkpoint cut:", err)
		return
	}
	after := b.ckp.Stats()
	name := "persist.CheckpointNow.delta"
	if after.FullCuts > before.FullCuts {
		name = "persist.CheckpointNow.full"
	}
	ln.add(name, -1, start, end)
	b.cutBytes = append(b.cutBytes, float64(after.LastBytes))
	b.cutRecords = append(b.cutRecords, float64(after.LastRecords))
}

// engineSnap is an engine's counters at the start of a window.
type engineSnap struct {
	e           *tiered.Engine
	tenants     []tiered.TenantID
	ring        *obs.EventRing
	st          tiered.Stats
	ds          tiered.DaemonStats
	ts          []tiered.TenantStats
	events      uint64
	overwritten uint64
	mem         runtime.MemStats
	sampler     *daemonSampler
}

// snapEngine snapshots e's counters; with sample set it also samples the
// daemon over the window.
func snapEngine(e *tiered.Engine, tenants []tiered.TenantID, ring *obs.EventRing, sample bool) *engineSnap {
	s := &engineSnap{e: e, tenants: tenants, ring: ring, st: e.Stats(), ds: e.DaemonStats()}
	for _, t := range tenants {
		ts, _ := e.TenantStats(t)
		s.ts = append(s.ts, ts)
	}
	if ring != nil {
		s.events, s.overwritten = ring.Published(), ring.Overwritten()
	}
	runtime.ReadMemStats(&s.mem)
	if sample {
		s.sampler = sampleDaemon(e)
	}
	return s
}

// stopSampling stops the window's daemon sampler, if one runs.
func (s *engineSnap) stopSampling() {
	if s.sampler != nil {
		s.sampler.stop()
	}
}

// finish closes a window of ops requests that issued accesses engine
// accesses: it checks the engine's accounting, prices the counter delta in
// paper units and derives the engine's per-layer metrics.
func (s *engineSnap) finish(w *window, accesses int64, ck *checks) error {
	s.stopSampling()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	dd := s.e.Stats().Sub(s.st)
	ck.add(checkServeCounts(dd, accesses))
	cost, err := priceCounts(countsFromStats(dd), memspec.Default())
	if err != nil {
		return fmt.Errorf("price window: %w", err)
	}
	w.cost = cost

	minHit := 1.0
	for i, t := range s.tenants {
		ts, _ := s.e.TenantStats(t)
		td := ts.Sub(s.ts[i])
		minHit = math.Min(minHit, share(td.HitsDRAM, td.Accesses))
	}
	ds := s.e.DaemonStats()
	layer := w.layer
	layer["tiered.faults_per_kop"] = perKop(dd.Faults, dd.Accesses)
	layer["tiered.demotions_per_kop"] = perKop(dd.Demotions, dd.Accesses)
	layer["tiered.evictions_per_kop"] = perKop(dd.Evictions, dd.Accesses)
	layer["tiered.tenant_dram_hit_rate.min"] = minHit
	layer["tiered.allocs_per_op"] = share(int64(mem.Mallocs-s.mem.Mallocs), w.ops)
	layer["daemon.epochs"] = float64(ds.Epochs - s.ds.Epochs)
	layer["daemon.promotions_per_kop"] = perKop(dd.Promotions, dd.Accesses)
	layer["daemon.promote_yield"] = share(dd.Promotions, ds.Candidates-s.ds.Candidates)
	layer["daemon.queue_drop_share"] = share(ds.BatchesDropped-s.ds.BatchesDropped, ds.Batches-s.ds.Batches)
	if s.sampler != nil {
		layer["tiered.spill_used_share"] = s.sampler.spillShare
		layer["daemon.scan_ns.max"] = float64(s.sampler.maxScanNS)
	}
	if s.ring != nil {
		layer["obs.events_per_kop"] = perKop(int64(s.ring.Published()-s.events), dd.Accesses)
		layer["obs.events_overwritten"] = float64(s.ring.Overwritten() - s.overwritten)
	}
	return nil
}

// scanSampleEvery is how often a daemonSampler reads the engine: the engine's
// default scan interval, so it sees about every epoch.
const scanSampleEvery = 2 * time.Millisecond

// daemonSampler samples, over a window, two figures the engine only keeps
// as a running maximum or a point reading: each epoch's scan time and the
// spill pool's use.
type daemonSampler struct {
	quit, done chan struct{}
	// maxScanNS is the longest scan of the epochs sampled; spillShare the
	// mean over samples of spill pages used ÷ spill pool.
	maxScanNS  int64
	spillShare float64
}

func sampleDaemon(e *tiered.Engine) *daemonSampler {
	s := &daemonSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(scanSampleEvery)
		defer tick.Stop()
		epochs := e.DaemonStats().Epochs
		var spill float64
		var n int
		for {
			select {
			case <-s.quit:
				if n > 0 {
					s.spillShare = spill / float64(n)
				}
				return
			case <-tick.C:
			}
			if ds := e.DaemonStats(); ds.Epochs != epochs {
				epochs = ds.Epochs
				s.maxScanNS = max(s.maxScanNS, ds.LastScanNS)
			}
			spill += share(e.SpillUsed(), e.SpillPool())
			n++
		}
	}()
	return s
}

// stop ends sampling and waits for the sampler; it may be called twice.
func (s *daemonSampler) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	close(s.quit)
	<-s.done
}

func (b *engineBench) window(d time.Duration, tr *tracer, ck *checks) (*window, error) {
	tenants := make([]tiered.TenantID, len(b.loops))
	for i, l := range b.loops {
		tenants[i] = l.tenant
	}
	snap := snapEngine(b.e, tenants, b.ring, tr != nil)
	cutFails := b.cutFails
	p := newPacer(d)
	stop := make(chan struct{})
	var cutter sync.WaitGroup
	if b.ckp != nil {
		cutter.Add(1)
		go func(ln *lane) {
			defer cutter.Done()
			tick := time.NewTicker(b.cutEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					b.cut(ln)
				}
			}
		}(tr.lane())
	}
	ts := b.runLoops(p, math.MaxInt64, tr)
	w := &window{slices: p.slices(ts), layer: map[string]float64{}}
	close(stop)
	cutter.Wait()

	for _, l := range b.loops {
		w.ops += l.ops
		w.failed += l.errs
	}
	w.failed += b.cutFails - cutFails
	if err := snap.finish(w, w.ops, ck); err != nil {
		return nil, err
	}
	return w, nil
}

func (b *engineBench) finish(tr *tracer, ck *checks, layer map[string]float64) error {
	if err := b.e.Stop(); err != nil {
		return err
	}
	ck.add(checkInvariants("after the run", b.e.CheckInvariants))
	if b.ckp == nil {
		return nil
	}
	defer os.RemoveAll(b.dir)
	ln := tr.lane()
	b.cut(ln) // the drain's final cut, over the stopped engine
	ck.expect(b.cutFails == 0, "%d of %d checkpoint cuts failed", b.cutFails, b.cuts)
	layer["persist.failures"] = float64(b.cutFails)
	layer["persist.cut_bytes.p50"] = median(b.cutBytes)
	layer["persist.cut_records.p50"] = median(b.cutRecords)

	stopped := resident(b.e)
	var ch *persist.Chain
	err := ln.timed("persist.ReadChain", func() (err error) {
		ch, err = persist.ReadChain(b.dir)
		return err
	})
	if err != nil {
		return fmt.Errorf("read checkpoint chain: %w", err)
	}
	ck.expect(!ch.Truncated && int64(len(ch.Records)) == stopped,
		"chain holds %d records (truncated %v), the stopped engine %d resident pages",
		len(ch.Records), ch.Truncated, stopped)

	// Restore the chain into a fresh engine of the run's geometry: the
	// window in which a restarted server answers -LOADING. As with tierd
	// -warmup-dram-topk, the pages DRAM held at the cut go back into DRAM,
	// so a full machine restores whole instead of overflowing NVM.
	cfg := b.cfg
	cfg.Events = nil
	cfg.WarmupDRAMTopK = cfg.DRAMPages
	fresh, err := tiered.New(cfg)
	if err != nil {
		return err
	}
	ckp, err := persist.NewCheckpointer(fresh, persist.Config{Dir: b.dir, FullEvery: churnFullEvery})
	if err != nil {
		return err
	}
	start := time.Now()
	restored, rs, err := ckp.Restore()
	end := time.Now()
	if err != nil || restored == nil {
		return fmt.Errorf("restore: chain %v, error %v", restored != nil, err)
	}
	ln.add("persist.Restore", -1, start, end)
	layer["persist.restore_s"] = end.Sub(start).Seconds()
	ck.add(checkRestore(len(restored.Records), rs, resident(fresh), stopped))
	ck.add(checkInvariants("after restore", fresh.CheckInvariants))

	if tr != nil {
		// The engine's share of restore, timed on its own.
		other, err := tiered.New(cfg)
		if err != nil {
			return err
		}
		pages := restoredPages(ch)
		var rs2 tiered.RestoreStats
		if err := ln.timed("tiered.Restore", func() (err error) {
			rs2, err = other.Restore(pages)
			return err
		}); err != nil {
			return fmt.Errorf("engine restore: %w", err)
		}
		ck.add(checkRestore(len(pages), rs2, resident(other), stopped))
	}
	return nil
}

// resident returns the pages e holds in either tier.
func resident(e *tiered.Engine) int64 {
	st := e.Stats()
	return st.ResidentDRAM + st.ResidentNVM
}

// restoredPages converts a chain's records the way Checkpointer.Restore
// hands them to the engine.
func restoredPages(ch *persist.Chain) []tiered.RestoredPage {
	pages := make([]tiered.RestoredPage, len(ch.Records))
	for i, r := range ch.Records {
		pages[i] = tiered.RestoredPage{
			Tenant: tiered.TenantID(r.Tenant),
			Page:   r.Page,
			Node:   int(r.Node),
			Warm:   r.Warm,
			Score:  r.Score(),
			Reads:  uint64(r.Reads),
			Writes: uint64(r.Writes),
		}
	}
	return pages
}

func (b *engineBench) close() {
	if b.e != nil && b.e.Running() {
		b.e.Stop()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// setupEmbedHot: one tenant embedding the engine as a library, DRAM as
// large as the footprint, two callers hammering the hit path.
func setupEmbedHot(seed int64, _ string, tr *tracer, genS *float64) (instance, error) {
	start := time.Now()
	warm, roi, pages, err := genTrace("dedup", 0.5, seed, tr.lane())
	if err != nil {
		return nil, err
	}
	*genS = time.Since(start).Seconds()
	b := &engineBench{
		cfg: tiered.Config{Policy: tiered.Proposed, DRAMPages: pages, NVMPages: pages},
		loops: []*loop{
			{tenant: tiered.DefaultTenant, recs: roi},
			{tenant: tiered.DefaultTenant, recs: roi, pos: len(roi) / 2},
		},
	}
	if err := b.start([][]trace.Record{warm}, 250_000, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// tierd's checkpoint defaults: a cut every second, every 8th cut full.
const (
	churnCutEvery  = time.Second
	churnFullEvery = 8
)

// setupChurn: two tenants whose footprint far exceeds DRAM under the
// paper's provisioning rule, a delta-log checkpointer cutting on a fixed
// period, and the admin plane's event ring attached.
func setupChurn(seed int64, dir string, tr *tracer, genS *float64) (instance, error) {
	start := time.Now()
	ln := tr.lane()
	names := []string{"ferret", "vips"}
	warm := make([][]trace.Record, len(names))
	b := &engineBench{ring: obs.NewEventRing(obs.DefaultRingSize), cutEvery: churnCutEvery}
	total := 0
	for i, name := range names {
		w, roi, pages, err := genTrace(name, 0.25, seed+int64(i), ln)
		if err != nil {
			return nil, err
		}
		warm[i] = w
		total += pages
		b.loops = append(b.loops, &loop{tenant: tiered.TenantID(i), recs: roi})
	}
	*genS = time.Since(start).Seconds()
	dram, nvm := memspec.DefaultSizing().Partition(total)
	tenants := make([]tiered.TenantConfig, len(names))
	for i, name := range names {
		tenants[i] = tiered.TenantConfig{ID: tiered.TenantID(i), Name: name, DRAMQuota: dram * 50 / 100}
	}
	b.cfg = tiered.Config{Policy: tiered.Proposed, DRAMPages: dram, NVMPages: nvm, Tenants: tenants, Events: b.ring}
	d, err := os.MkdirTemp(dir, "perfbench-ckpt-")
	if err != nil {
		return nil, err
	}
	b.dir = d
	if err := b.start(warm, 150_000, ln); err != nil {
		os.RemoveAll(b.dir)
		return nil, err
	}
	return b, nil
}
