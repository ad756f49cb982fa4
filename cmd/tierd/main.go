// Command tierd benchmarks the online tiered-memory engine under
// concurrent closed-loop load: it replays Table III workload traces from
// many goroutines into internal/tiered and reports throughput, service
// latency percentiles and migration activity.
//
//	go run ./cmd/tierd -workload bodytrack -goroutines 16 -duration 2s
//	go run ./cmd/tierd -workload ferret -policy clock-dwf -shards 1 -ops 500000 -json
//	go run ./cmd/tierd -verify -goroutines 1       # equivalence gate vs internal/sim
//	go run ./cmd/tierd -tenants 'bodytrack:40,canneal:30,ferret:30' -duration 2s
//	go run ./cmd/tierd -numa nodes=2,remote-penalty=1.8 -duration 2s
//	go run ./cmd/tierd -serve 127.0.0.1:6380 -workload bodytrack       # RESP server
//	go run ./cmd/tierd -connect 127.0.0.1:6380 -connections 4 -pipeline 16 -duration 5s
//
// With -verify, tierd first runs the trace through the reference simulator
// and replays the same policy's decisions into a private, never-started
// engine (tiered.VerifyAgainstSim), and fails unless every
// hit/fault/promotion/demotion count matches — the subsystem's equivalence
// guarantee, also enforced in CI. The replay publishes nothing to the
// -admin event trace.
//
// With -tenants, tierd serves N isolated tenants concurrently — the live
// form of the paper's consolidated `mix` study. Each list entry is
// workload:percent; the percent is the tenant's share of DRAM as its
// dedicated quota, and any share not covered (the list may total less
// than 100) becomes the spill pool all tenants may borrow from. Tenants
// get distinct trace seeds and their own goroutines, and the report (text
// or artifact) breaks out per-tenant throughput, latency percentiles and
// quota occupancy.
//
// With -numa, tierd emulates an N-socket machine: DRAM and NVM split into
// per-node pools (even shares), shard groups homed per node, one migration
// pipeline per node, and placement that prefers a page's home node —
// going remote only when the home pool is exhausted. The report adds a
// per-node breakdown (ops for pages homed there, DRAM/NVM occupancy,
// local-vs-remote faults/promotions/demotions) plus the local and remote
// migration break-even figures derived from the remote penalty, and the
// artifact gains one row per node.
//
// With -memstats (on by default), tierd snapshots runtime.MemStats around
// the measured load phase and reports the process-wide allocation rate
// (allocs/op and B/op across every access served) and the GC activity the
// load induced (cycles and total stop-the-world pause). The serve hit path
// is allocation-free by design, so a non-trivial allocs/op here is a
// regression signal; the numbers ride along in the results/v1 artifact
// (allocs_per_op, alloc_bytes_per_op, gc_cycles, gc_pause_total_ns) so CI
// load runs expose allocation creep, not just latency creep. -memstats=false
// drops the collection (two runtime.ReadMemStats stop-the-world points).
//
// With -serve, tierd becomes a RESP (redis-protocol) server over the
// engine: remote clients generate the load instead of in-process
// goroutines, AUTH binds connections to tenants, and SIGINT/SIGTERM
// (both handled identically) triggers a graceful drain whose cleanliness
// is recorded in the artifact; a second SIGINT/SIGTERM while the drain is
// in progress forces an immediate exit with status 130, skipping the
// final checkpoint. With -connect, tierd is the benchmarking client: it
// replays the workload trace over -connections pipelined connections,
// closed-loop or open-loop at a target -rate, and reports batch
// round-trip percentiles plus the server's own counters fetched over
// STATS. See docs/protocol.md for the wire protocol.
//
// With -persist (serve mode), tierd checkpoints the NVM tier's residency
// and hotness into <dir> every -checkpoint-interval and once more during
// the drain: a full base snapshot (checkpoint.ckpt) every
// -checkpoint-full-every cuts and O(dirty) delta cuts (delta-*.ckpt)
// carrying only the changed pages in between. On restart tierd replays
// base + deltas before serving data: the RESP listener comes up
// immediately but answers data commands with -LOADING (and /readyz stays
// not-ready) until the restore finishes, after which the restored-hot
// pages are re-promoted as a rate-limited warm-up through the migration
// daemon — or, with -warmup-dram-topk, the hottest K are placed straight
// into DRAM before serving. The client-side recovery KPI for that
// warm-up is -kpi: the client samples the server's cumulative hit rate
// (accesses served from resident memory rather than faulted in, plus the
// DRAM-only variant) over STATS and reports the time it took to reach
// 90% of its steady-state value (kpi_t90_ms / kpi_dram_t90_ms in the
// artifact). See docs/persistence.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hybridmem/internal/memspec"
	"hybridmem/internal/obs"
	"hybridmem/internal/runner"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tierd: ")

	var (
		workloadName = flag.String("workload", "bodytrack", "Table III workload to replay (single-tenant mode)")
		tenantsSpec  = flag.String("tenants", "", `multi-tenant mode: comma-separated workload:percent list, e.g. "bodytrack:40,canneal:30,ferret:30"; each percent is the tenant's DRAM quota share, the uncovered remainder is the shared spill pool`)
		policyName   = flag.String("policy", string(tiered.Proposed), "migration policy (proposed, proposed-adaptive, clock-dwf)")
		scale        = flag.Float64("scale", 0.05, "trace scale (1.0 = the paper's full trace sizes)")
		seed         = flag.Int64("seed", 1, "trace generation seed (tenant i uses seed+i)")
		goroutines   = flag.Int("goroutines", runtime.GOMAXPROCS(0), "closed-loop load goroutines (split across tenants in multi-tenant mode)")
		duration     = flag.Duration("duration", 2*time.Second, "wall-clock budget (ignored when -ops is set)")
		ops          = flag.Int64("ops", 0, "total access budget (0 = run for -duration)")
		batch        = flag.Int("batch", 1, "serve accesses through the engine batch API in groups of this size (1 = one ServeTenant call per access) — the A/B lever for measuring batch amortization")
		shards       = flag.Int("shards", 0, "page-table shards, rounded up to a power of two (0 = 4x GOMAXPROCS, 1 = single lock)")
		numaSpec     = flag.String("numa", "", `NUMA emulation: "nodes=N[,remote-penalty=X]" splits DRAM and NVM into N per-node pools (even split, shard groups homed per node) and reports per-node ops, occupancy and local-vs-remote migrations`)
		verify       = flag.Bool("verify", false, "check single-goroutine equivalence against internal/sim before the run")
		jsonOut      = flag.Bool("json", false, "emit a hybridmem.results/v1 artifact instead of text")
		outPath      = flag.String("out", "", "write output to a file instead of stdout")
		memStats     = flag.Bool("memstats", true, "report load-phase allocs/op and GC pause totals (runtime.ReadMemStats deltas)")

		serveAddr   = flag.String("serve", "", `RESP server mode: listen on this address (e.g. "127.0.0.1:6380") and serve remote clients until SIGINT/SIGTERM; sizing comes from -workload or -tenants`)
		connectAddr = flag.String("connect", "", "benchmark client mode: replay the -workload trace over RESP against a running tierd -serve at this address")
		connections = flag.Int("connections", 4, "client mode: concurrent connections")
		pipeline    = flag.Int("pipeline", 16, "client mode: pipelined commands per batch")
		clientMode  = flag.String("client-mode", "closed", `client mode pacing: "closed" (next batch when the previous is answered) or "open" (fixed schedule from -rate; lateness counts as latency)`)
		rate        = flag.Float64("rate", 0, "client mode, open loop: target total ops/s across all connections")
		authToken   = flag.String("auth", "", "client mode: AUTH token sent on each connection (a tenant name, e.g. \"default\")")
		maxConns    = flag.Int("max-conns", 0, "serve mode: connection cap; accepting past it evicts the least-recently-active connection (0 = server default)")
		idleTimeout = flag.Duration("idle-timeout", 0, "serve mode: reap connections idle this long (0 = server default, negative disables)")
		requireAuth = flag.Bool("require-auth", false, "serve mode: reject data commands until a successful AUTH")
		persistDir  = flag.String("persist", "", "serve mode: checkpoint the NVM tier's residency into this directory and restore it on restart (data commands answer -LOADING until the restore finishes)")
		ckptEvery   = flag.Duration("checkpoint-interval", time.Second, "serve mode with -persist: background checkpoint period")
		ckptFull    = flag.Int("checkpoint-full-every", 8, "serve mode with -persist: cut a full snapshot every Nth checkpoint and O(dirty) delta cuts in between (1 = every cut full)")
		warmupTopK  = flag.Int("warmup-dram-topk", 0, "serve mode with -persist: restore up to this many of the hottest checkpoint-warm pages directly into DRAM before serving (0 = storm-only warm-up)")
		kpi         = flag.Bool("kpi", false, "client mode: sample the server's hit rate over STATS and report time-to-90%-of-steady-state (the recovery KPI)")

		adminAddr = flag.String("admin", "", `admin plane: HTTP listen address (e.g. "127.0.0.1:6060") exposing /metrics (Prometheus text), /healthz, /readyz, /events (migration trace ring) and /debug/pprof; works in -serve and the in-process load modes`)
		pprofCont = flag.Bool("pprof-contention", false, "admin plane: enable mutex and block profiling (adds sampling overhead; off by default)")
		traceRing = flag.Int("trace-ring", obs.DefaultRingSize, "admin plane: migration trace ring capacity in events (rounded up to a power of two); size it above the run's expected migration count to keep the whole trace")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %v", flag.Args())
	}
	if *goroutines <= 0 {
		log.Fatalf("-goroutines must be positive, got %d", *goroutines)
	}
	if *scale <= 0 {
		log.Fatalf("-scale must be positive, got %g", *scale)
	}
	if *ops < 0 {
		log.Fatalf("-ops must be non-negative, got %d", *ops)
	}
	if *batch < 1 {
		log.Fatalf("-batch must be at least 1, got %d", *batch)
	}
	if !tiered.ValidKind(tiered.Kind(*policyName)) {
		log.Fatalf("unknown -policy %q (have %v)", *policyName, tiered.Kinds())
	}
	numa, err := parseNUMA(*numaSpec)
	if err != nil {
		log.Fatal(err)
	}
	admin := adminFlags{addr: *adminAddr, profiles: *pprofCont, ringSize: *traceRing}
	if admin.profiles && admin.addr == "" {
		log.Fatal("-pprof-contention requires -admin (the profiles are served there)")
	}
	if numa.nodes > 1 && *verify {
		log.Fatal("-numa is incompatible with -verify (sim equivalence is defined on the single-node machine)")
	}

	if *serveAddr != "" || *connectAddr != "" {
		if *serveAddr != "" && *connectAddr != "" {
			log.Fatal("-serve and -connect are mutually exclusive (run them as two processes)")
		}
		if *verify {
			log.Fatal("-serve and -connect are incompatible with -verify")
		}
		nf := netFlags{
			serveAddr:     *serveAddr,
			connectAddr:   *connectAddr,
			connections:   *connections,
			pipeline:      *pipeline,
			openLoop:      *clientMode == "open",
			rate:          *rate,
			auth:          *authToken,
			maxConns:      *maxConns,
			idleTimeout:   *idleTimeout,
			requireAuth:   *requireAuth,
			persistDir:    *persistDir,
			ckptInterval:  *ckptEvery,
			ckptFullEvery: *ckptFull,
			warmupTopK:    *warmupTopK,
			kpi:           *kpi,
			admin:         admin,
		}
		if *clientMode != "open" && *clientMode != "closed" {
			log.Fatalf("-client-mode %q unknown (have open, closed)", *clientMode)
		}
		if *persistDir != "" && *serveAddr == "" {
			log.Fatal("-persist requires -serve (the server owns the checkpoint)")
		}
		if *ckptEvery <= 0 {
			log.Fatal("-checkpoint-interval must be positive")
		}
		if *ckptFull < 1 {
			log.Fatal("-checkpoint-full-every must be at least 1")
		}
		if *warmupTopK < 0 {
			log.Fatal("-warmup-dram-topk must be non-negative")
		}
		if *kpi && *connectAddr == "" {
			log.Fatal("-kpi requires -connect (the KPI is sampled client-side)")
		}
		if *serveAddr != "" {
			runServe(nf, *outPath, *workloadName, *tenantsSpec, *policyName, *scale, *seed, *shards, numa, *jsonOut)
		} else {
			runConnect(nf, *outPath, *workloadName, *scale, *seed, *duration, *ops, *jsonOut)
		}
		return
	}

	if *tenantsSpec != "" {
		if *verify {
			log.Fatal("-tenants is incompatible with -verify (the reference policies are single-tenant)")
		}
		runMultiTenant(*outPath, *tenantsSpec, *policyName, *scale, *seed, *goroutines, *duration, *ops, *batch, *shards, numa, admin, *jsonOut, *memStats)
		return
	}
	runSingleTenant(*outPath, *workloadName, *policyName, *scale, *seed, *goroutines, *duration, *ops, *batch, *shards, numa, admin, *verify, *jsonOut, *memStats)
}

// numaFlags is the parsed -numa emulation spec.
type numaFlags struct {
	nodes   int
	penalty float64
}

// parseNUMA parses "nodes=N[,remote-penalty=X]". Empty means a single
// uniform node (the paper's machine).
func parseNUMA(spec string) (numaFlags, error) {
	n := numaFlags{nodes: 1}
	if spec == "" {
		return n, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return n, fmt.Errorf("-numa entry %q is not key=value", part)
		}
		switch k {
		case "nodes":
			nodes, err := strconv.Atoi(v)
			if err != nil || nodes < 1 {
				return n, fmt.Errorf("-numa nodes=%q: need a positive integer", v)
			}
			n.nodes = nodes
		case "remote-penalty":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 1 {
				return n, fmt.Errorf("-numa remote-penalty=%q: need a factor >= 1", v)
			}
			n.penalty = p
		default:
			return n, fmt.Errorf("-numa key %q unknown (have nodes, remote-penalty)", k)
		}
	}
	return n, nil
}

// topology builds the engine topology for the parsed flags: an even
// per-node split of the zone capacities.
func (n numaFlags) topology(dram, nvm int) tiered.Topology {
	if n.nodes <= 1 && n.penalty == 0 {
		return tiered.Topology{} // the single-node default
	}
	t := tiered.EvenTopology(n.nodes, dram, nvm)
	t.RemotePenalty = n.penalty
	return t
}

// nodeDeltas subtracts a baseline NodeStats snapshot, so reports cover
// only the measured load phase.
func nodeDeltas(after, before []tiered.NodeStats) []tiered.NodeStats {
	out := make([]tiered.NodeStats, len(after))
	for i := range after {
		out[i] = after[i].Sub(before[i])
	}
	return out
}

// writeNodeText renders the per-node report lines (nothing on a single
// node, where the aggregate lines already tell the whole story).
func writeNodeText(w io.Writer, e *tiered.Engine, nodes []tiered.NodeStats) error {
	if e.NumNodes() <= 1 {
		return nil
	}
	topo := e.Topology()
	spec := e.Config().Spec
	if _, err := fmt.Fprintf(w, "numa:       %d nodes, remote penalty %.2fx, break-even %d local / %d remote hits\n",
		e.NumNodes(), topo.RemotePenalty, tiered.BreakEvenHits(spec), topo.BreakEvenHitsRemote(spec)); err != nil {
		return err
	}
	for _, ns := range nodes {
		_, err := fmt.Fprintf(w, "node %d:     %d/%d DRAM, %d/%d NVM frames; %d ops; faults %d local / %d remote; promotions %d/%d; demotions %d/%d\n",
			ns.ID, ns.ResidentDRAM, ns.DRAMPages, ns.ResidentNVM, ns.NVMPages, ns.Accesses,
			ns.FaultsLocal, ns.FaultsRemote,
			ns.PromotionsLocal, ns.PromotionsRemote,
			ns.DemotionsLocal, ns.DemotionsRemote)
		if err != nil {
			return err
		}
	}
	return nil
}

// addNodeResults appends one artifact row per node (multi-node runs only).
func addNodeResults(a *runner.Artifact, e *tiered.Engine, nodes []tiered.NodeStats, seed int64) {
	if e.NumNodes() <= 1 {
		return
	}
	cfg := e.Config()
	for _, ns := range nodes {
		a.Add(runner.Result{
			ID:        fmt.Sprintf("node%d/%s", ns.ID, e.PolicyName()),
			Workload:  "node",
			Policy:    e.PolicyName(),
			Seed:      seed,
			DRAMPages: int(ns.DRAMPages),
			NVMPages:  int(ns.NVMPages),
			Params: map[string]float64{
				"node":           float64(ns.ID),
				"nodes":          float64(e.NumNodes()),
				"remote_penalty": cfg.Topology.RemotePenalty,
			},
			Values: map[string]float64{
				"ops":               float64(ns.Accesses),
				"resident_dram":     float64(ns.ResidentDRAM),
				"resident_nvm":      float64(ns.ResidentNVM),
				"faults_local":      float64(ns.FaultsLocal),
				"faults_remote":     float64(ns.FaultsRemote),
				"promotions_local":  float64(ns.PromotionsLocal),
				"promotions_remote": float64(ns.PromotionsRemote),
				"demotions_local":   float64(ns.DemotionsLocal),
				"demotions_remote":  float64(ns.DemotionsRemote),
			},
		})
	}
}

// memReport is the load phase's process-wide allocation and GC delta,
// measured as runtime.MemStats differences around the measured window.
// The serve hit path allocates nothing, so AllocsPerOp on a healthy run is
// a small fraction (daemon batches, histograms, fault-path entries).
type memReport struct {
	enabled     bool
	allocsPerOp float64
	bytesPerOp  float64
	gcCycles    uint32
	gcPause     time.Duration
}

// memDelta summarizes the load window between two MemStats snapshots.
func memDelta(before, after runtime.MemStats, ops int64) memReport {
	m := memReport{
		enabled:  true,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	if ops > 0 {
		m.allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
		m.bytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	}
	return m
}

// values folds the memory report into an artifact value map.
func (m memReport) values(v map[string]float64) map[string]float64 {
	if !m.enabled {
		return v
	}
	v["allocs_per_op"] = m.allocsPerOp
	v["alloc_bytes_per_op"] = m.bytesPerOp
	v["gc_cycles"] = float64(m.gcCycles)
	v["gc_pause_total_ns"] = float64(m.gcPause.Nanoseconds())
	return v
}

// text renders the memory report's human line (empty when disabled).
func (m memReport) text() string {
	if !m.enabled {
		return ""
	}
	return fmt.Sprintf("memory:     %.3f allocs/op, %.1f B/op, GC %d cycles, %v total pause\n",
		m.allocsPerOp, m.bytesPerOp, m.gcCycles, m.gcPause)
}

// writeOut runs write against stdout or the -out file. The file is only
// created here, after the run has succeeded, so a failed run never
// truncates a previous artifact.
func writeOut(outPath string, write func(io.Writer) error) {
	if outPath == "" {
		if err := write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	f, err := os.Create(outPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// genTenantTrace materializes one workload's warmup and ROI traces.
func genTenantTrace(name string, scale float64, seed int64) (warm, roi []trace.Record, pages int) {
	spec, ok := workload.ByName(name)
	if !ok {
		log.Fatalf("unknown workload %q (have %v)", name, workload.Names())
	}
	gen, err := workload.NewGenerator(spec, scale, seed)
	if err != nil {
		log.Fatal(err)
	}
	warm, err = trace.Materialize(gen.WarmupSource(seed+1), 0)
	if err != nil {
		log.Fatal(err)
	}
	roi, err = trace.Materialize(gen, 0)
	if err != nil {
		log.Fatal(err)
	}
	return warm, roi, gen.Pages()
}

func runSingleTenant(outPath, workloadName, policyName string, scale float64, seed int64,
	goroutines int, duration time.Duration, ops int64, batch, shards int, numa numaFlags,
	admin adminFlags, verify, jsonOut, memStats bool) {
	warm, roi, pages := genTenantTrace(workloadName, scale, seed)
	dram, nvm := memspec.DefaultSizing().Partition(pages)

	ring := admin.ring()
	cfg := tiered.Config{
		Policy:    tiered.Kind(policyName),
		DRAMPages: dram,
		NVMPages:  nvm,
		Shards:    shards,
		Topology:  numa.topology(dram, nvm),
		Events:    ring,
	}

	if verify {
		if _, err := tiered.VerifyAgainstSim(cfg, append(append([]trace.Record{}, warm...), roi...)); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tierd: equivalence vs internal/sim: ok (%s, %d accesses)\n",
			policyName, len(warm)+len(roi))
	}

	engine, err := tiered.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Start(); err != nil {
		log.Fatal(err)
	}
	adm := startAdmin(admin, engine, nil, ring, nil, nil, scale, seed)
	// Warm serially so the measured phase starts from a populated table,
	// then snapshot the counters: the report covers only the load phase.
	for _, r := range warm {
		if _, err := engine.Serve(r.Addr, r.Op); err != nil {
			log.Fatal(err)
		}
	}
	base := engine.Stats()
	nodeBase := engine.NodeStats()

	loadCfg := tiered.LoadConfig{Goroutines: goroutines, Ops: ops, Batch: batch}
	if ops <= 0 {
		loadCfg.Duration = duration
	}
	var msBefore, msAfter runtime.MemStats
	if memStats {
		runtime.ReadMemStats(&msBefore)
	}
	rep, err := tiered.RunLoad(engine, roi, loadCfg)
	if err != nil {
		log.Fatal(err)
	}
	if memStats {
		runtime.ReadMemStats(&msAfter)
	}
	if err := engine.Stop(); err != nil {
		log.Fatal(err)
	}
	stopAdmin(adm)
	st := engine.Stats().Sub(base)
	nodes := nodeDeltas(engine.NodeStats(), nodeBase)
	var mem memReport
	if memStats {
		mem = memDelta(msBefore, msAfter, rep.Ops)
	}

	writeOut(outPath, func(w io.Writer) error {
		if jsonOut {
			return writeArtifact(w, engine, rep, st, nodes, mem, workloadName, scale, seed, goroutines)
		}
		return writeText(w, engine, rep, st, nodes, mem, workloadName, dram, nvm, goroutines)
	})
}

// tenantShare is one parsed -tenants entry.
type tenantShare struct {
	workload string
	percent  int
}

// parseTenants parses a "workload:percent,..." spec. Percents must be
// positive and total at most 100; the uncovered remainder becomes the
// shared spill pool.
func parseTenants(spec string) ([]tenantShare, error) {
	var shares []tenantShare
	sum := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, pctStr, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant entry %q is not workload:percent", part)
		}
		pct, err := strconv.Atoi(strings.TrimSuffix(pctStr, "%"))
		if err != nil {
			return nil, fmt.Errorf("tenant entry %q: bad percent: %v", part, err)
		}
		if pct <= 0 {
			return nil, fmt.Errorf("tenant entry %q: percent must be positive", part)
		}
		sum += pct
		shares = append(shares, tenantShare{workload: name, percent: pct})
	}
	if sum > 100 {
		return nil, fmt.Errorf("tenant quota shares total %d%%, must be at most 100%%", sum)
	}
	return shares, nil
}

// tenantRun is one tenant's full setup and outcome.
type tenantRun struct {
	id         tiered.TenantID
	workload   string
	percent    int
	seed       int64
	goroutines int
	warm, roi  []trace.Record
	report     tiered.LoadReport
	stats      tiered.TenantStats
}

func runMultiTenant(outPath, spec, policyName string, scale float64, seed int64,
	goroutines int, duration time.Duration, ops int64, batch, shards int, numa numaFlags,
	admin adminFlags, jsonOut, memStats bool) {
	shares, err := parseTenants(spec)
	if err != nil {
		log.Fatal(err)
	}

	runs := make([]*tenantRun, len(shares))
	totalPages := 0
	for i, sh := range shares {
		tenantSeed := seed + int64(i)
		warm, roi, pages := genTenantTrace(sh.workload, scale, tenantSeed)
		totalPages += pages
		runs[i] = &tenantRun{
			id:       tiered.TenantID(i),
			workload: sh.workload,
			percent:  sh.percent,
			seed:     tenantSeed,
			warm:     warm,
			roi:      roi,
		}
	}
	dram, nvm := memspec.DefaultSizing().Partition(totalPages)

	tenants := make([]tiered.TenantConfig, len(runs))
	for i, r := range runs {
		tenants[i] = tiered.TenantConfig{
			ID:        r.id,
			Name:      fmt.Sprintf("%d:%s", r.id, r.workload),
			DRAMQuota: dram * r.percent / 100,
		}
		// Split the goroutine budget round-robin, at least one each.
		r.goroutines = goroutines / len(runs)
		if i < goroutines%len(runs) {
			r.goroutines++
		}
		if r.goroutines == 0 {
			r.goroutines = 1
		}
	}

	ring := admin.ring()
	engine, err := tiered.New(tiered.Config{
		Policy:    tiered.Kind(policyName),
		DRAMPages: dram,
		NVMPages:  nvm,
		Shards:    shards,
		Topology:  numa.topology(dram, nvm),
		Tenants:   tenants,
		Events:    ring,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Start(); err != nil {
		log.Fatal(err)
	}
	adm := startAdmin(admin, engine, nil, ring, nil, nil, scale, seed)
	// Warm each tenant serially, then snapshot: the report covers only
	// the concurrent load phase.
	for _, r := range runs {
		for _, rec := range r.warm {
			if _, err := engine.ServeTenant(r.id, rec.Addr, rec.Op); err != nil {
				log.Fatal(err)
			}
		}
	}
	base := engine.Stats()
	nodeBase := engine.NodeStats()
	tenantBase := make([]tiered.TenantStats, len(runs))
	for i, r := range runs {
		tenantBase[i], _ = engine.TenantStats(r.id)
	}

	loads := make([]tiered.TenantLoad, len(runs))
	for i, r := range runs {
		loads[i] = tiered.TenantLoad{Tenant: r.id, Recs: r.roi, Goroutines: r.goroutines}
	}
	loadCfg := tiered.LoadConfig{Ops: ops, Batch: batch}
	if ops <= 0 {
		loadCfg.Duration = duration
	}
	var msBefore, msAfter runtime.MemStats
	if memStats {
		runtime.ReadMemStats(&msBefore)
	}
	rep, err := tiered.RunTenantLoad(engine, loads, loadCfg)
	if err != nil {
		log.Fatal(err)
	}
	if memStats {
		runtime.ReadMemStats(&msAfter)
	}
	if err := engine.Stop(); err != nil {
		log.Fatal(err)
	}
	stopAdmin(adm)
	st := engine.Stats().Sub(base)
	nodes := nodeDeltas(engine.NodeStats(), nodeBase)
	var mem memReport
	if memStats {
		mem = memDelta(msBefore, msAfter, rep.Aggregate.Ops)
	}
	for i, r := range runs {
		cur, _ := engine.TenantStats(r.id)
		r.stats = cur.Sub(tenantBase[i])
		r.report = rep.Tenants[i].Report
	}

	writeOut(outPath, func(w io.Writer) error {
		if jsonOut {
			return writeTenantArtifact(w, engine, runs, rep, st, nodes, mem, scale, seed)
		}
		return writeTenantText(w, engine, runs, rep, st, nodes, mem, dram, nvm)
	})
}

func writeText(w io.Writer, e *tiered.Engine, rep *tiered.LoadReport, st tiered.Stats,
	nodes []tiered.NodeStats, mem memReport, name string, dram, nvm, goroutines int) error {
	shards := e.Config().Shards
	_, err := fmt.Fprintf(w, `tierd: %s under %s, DRAM %d + NVM %d frames, %d shards, %d goroutines
throughput: %12.0f ops/s (%d ops in %v)
latency:    p50 %v, p95 %v, p99 %v, max %v
placement:  %.1f%% DRAM hits, %.1f%% NVM hits, %d faults
migration:  %d promotions, %d demotions (%d fault, %d promo), %d evictions
daemon:     %d scans, %d batches, %d queue drops
%s`,
		name, e.PolicyName(), dram, nvm, shards, goroutines,
		rep.OpsPerSec, rep.Ops, rep.Elapsed.Round(time.Millisecond),
		rep.P50, rep.P95, rep.P99, rep.Max,
		pct(st.HitsDRAM(), st.Accesses), pct(st.HitsNVM(), st.Accesses), st.Faults,
		st.Promotions, st.Demotions, st.DemotionsFault, st.DemotionsPromo, st.Evictions,
		st.Scans, st.Batches, st.QueueDrops, mem.text())
	if err != nil {
		return err
	}
	return writeNodeText(w, e, nodes)
}

func writeTenantText(w io.Writer, e *tiered.Engine, runs []*tenantRun, rep *tiered.MultiLoadReport,
	st tiered.Stats, nodes []tiered.NodeStats, mem memReport, dram, nvm int) error {
	agg := rep.Aggregate
	_, err := fmt.Fprintf(w, `tierd: %d tenants under %s, DRAM %d + NVM %d frames (%d spill), %d shards
aggregate:  %12.0f ops/s (%d ops in %v), p50 %v, p99 %v
migration:  %d promotions, %d demotions, %d evictions; %d scans, %d batches, %d queue drops
%s`,
		len(runs), e.PolicyName(), dram, nvm, e.SpillPool(), e.Config().Shards,
		agg.OpsPerSec, agg.Ops, agg.Elapsed.Round(time.Millisecond), agg.P50, agg.P99,
		st.Promotions, st.Demotions, st.Evictions, st.Scans, st.Batches, st.QueueDrops, mem.text())
	if err != nil {
		return err
	}
	if err := writeNodeText(w, e, nodes); err != nil {
		return err
	}
	for _, r := range runs {
		cur, _ := e.TenantStats(r.id)
		_, err := fmt.Fprintf(w, `tenant %-16s %2d%% quota (%d frames, cap %d), %d goroutines
  throughput: %12.0f ops/s, latency p50 %v p95 %v p99 %v
  placement:  %.1f%% DRAM hits, %d faults, %d promotions, %d demotions
  occupancy:  %d/%d DRAM frames (%.0f%% of cap)
`,
			cur.Name, r.percent, cur.DRAMQuota, cur.DRAMCap, r.goroutines,
			r.report.OpsPerSec, r.report.P50, r.report.P95, r.report.P99,
			pct(r.stats.HitsDRAM, r.stats.Accesses), r.stats.Faults, r.stats.Promotions, r.stats.Demotions,
			cur.ResidentDRAM, cur.DRAMCap, pct(cur.ResidentDRAM, cur.DRAMCap))
		if err != nil {
			return err
		}
	}
	return nil
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func writeArtifact(w io.Writer, e *tiered.Engine, rep *tiered.LoadReport, st tiered.Stats,
	nodes []tiered.NodeStats, mem memReport, name string, scale float64, seed int64,
	goroutines int) error {
	a := runner.NewArtifact("tierd", "serve", scale, seed)
	cfg := e.Config()
	a.Add(runner.Result{
		ID:        fmt.Sprintf("%s/%s/g%d", name, e.PolicyName(), goroutines),
		Workload:  name,
		Policy:    e.PolicyName(),
		Seed:      seed,
		DRAMPages: cfg.DRAMPages,
		NVMPages:  cfg.NVMPages,
		Params: map[string]float64{
			"goroutines": float64(goroutines),
			"shards":     float64(cfg.Shards),
			"nodes":      float64(e.NumNodes()),
		},
		Values: mem.values(loadValues(rep, st, cfg)),
	})
	addNodeResults(a, e, nodes, seed)
	return a.Write(w)
}

// loadValues assembles the artifact value map shared by the single- and
// multi-tenant aggregate rows.
func loadValues(rep *tiered.LoadReport, st tiered.Stats, cfg tiered.Config) map[string]float64 {
	return map[string]float64{
		"ops":                   float64(rep.Ops),
		"ops_per_sec":           rep.OpsPerSec,
		"p50_ns":                float64(rep.P50.Nanoseconds()),
		"p95_ns":                float64(rep.P95.Nanoseconds()),
		"p99_ns":                float64(rep.P99.Nanoseconds()),
		"max_ns":                float64(rep.Max.Nanoseconds()),
		"hits_dram":             float64(st.HitsDRAM()),
		"hits_nvm":              float64(st.HitsNVM()),
		"faults":                float64(st.Faults),
		"promotions":            float64(st.Promotions),
		"demotions":             float64(st.Demotions),
		"evictions":             float64(st.Evictions),
		"scans":                 float64(st.Scans),
		"batches":               float64(st.Batches),
		"queue_drops":           float64(st.QueueDrops),
		"remote_faults":         float64(st.RemoteFaults),
		"remote_promotions":     float64(st.RemotePromotions),
		"remote_demotions":      float64(st.RemoteDemotions),
		"break_even_hit":        float64(tiered.BreakEvenHits(cfg.Spec)),
		"break_even_hit_remote": float64(cfg.Topology.BreakEvenHitsRemote(cfg.Spec)),
	}
}

func writeTenantArtifact(w io.Writer, e *tiered.Engine, runs []*tenantRun, rep *tiered.MultiLoadReport,
	st tiered.Stats, nodes []tiered.NodeStats, mem memReport, scale float64, seed int64) error {
	a := runner.NewArtifact("tierd", "serve-multitenant", scale, seed)
	cfg := e.Config()
	agg := rep.Aggregate
	a.Add(runner.Result{
		ID:        fmt.Sprintf("aggregate/%s/t%d", e.PolicyName(), len(runs)),
		Workload:  "mix",
		Policy:    e.PolicyName(),
		Seed:      seed,
		DRAMPages: cfg.DRAMPages,
		NVMPages:  cfg.NVMPages,
		Params: map[string]float64{
			"tenants": float64(len(runs)),
			"shards":  float64(cfg.Shards),
			"nodes":   float64(e.NumNodes()),
			"spill":   float64(e.SpillPool()),
		},
		Values: mem.values(loadValues(&agg, st, cfg)),
	})
	addNodeResults(a, e, nodes, seed)
	for _, r := range runs {
		cur, _ := e.TenantStats(r.id)
		a.Add(runner.Result{
			ID:        fmt.Sprintf("t%d-%s/%s/g%d", r.id, r.workload, e.PolicyName(), r.goroutines),
			Workload:  r.workload,
			Policy:    e.PolicyName(),
			Seed:      r.seed,
			DRAMPages: int(cur.DRAMQuota),
			NVMPages:  cfg.NVMPages,
			Params: map[string]float64{
				"tenant":     float64(r.id),
				"quota_pct":  float64(r.percent),
				"dram_cap":   float64(cur.DRAMCap),
				"goroutines": float64(r.goroutines),
			},
			Values: map[string]float64{
				"ops":             float64(r.report.Ops),
				"ops_per_sec":     r.report.OpsPerSec,
				"p50_ns":          float64(r.report.P50.Nanoseconds()),
				"p95_ns":          float64(r.report.P95.Nanoseconds()),
				"p99_ns":          float64(r.report.P99.Nanoseconds()),
				"max_ns":          float64(r.report.Max.Nanoseconds()),
				"hits_dram":       float64(r.stats.HitsDRAM),
				"hits_nvm":        float64(r.stats.HitsNVM),
				"faults":          float64(r.stats.Faults),
				"promotions":      float64(r.stats.Promotions),
				"demotions":       float64(r.stats.Demotions),
				"evictions":       float64(r.stats.Evictions),
				"resident_dram":   float64(cur.ResidentDRAM),
				"quota_occupancy": pct(cur.ResidentDRAM, cur.DRAMCap) / 100,
			},
		})
	}
	return a.Write(w)
}
