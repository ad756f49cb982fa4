// Command perfbench is the repository's end-to-end benchmark. It drives
// one named workload through the public API of the layers it was chosen
// for, measures a timed window, checks every output, and prints one JSON
// result line:
//
//	go build -o perfbench . && ./perfbench --workload embed-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead measures an untraced and a traced half-window
// on the same set-up, records spans around the calls into each layer, and
// prints the per-layer metrics plus the tracing overhead. README.md maps
// each layer metric to the end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"dram_hit_rate", "ratio"},
	{"energy_nj_per_op", "nJ"},
	{"heap_live_mb", "MiB"},
}

// perLayer lists the metrics a traced run reports, on every workload. A
// layer the workload does not load reads 0.
var perLayer = []metricDef{
	{"trace.overhead_share", "ratio"},
	{"workload.gen_s", "s"},
	{"tiered.serve_ns.p50", "ns"},
	{"tiered.serve_ns.p99", "ns"},
	{"tiered.faults_per_kop", "1/kop"},
	{"tiered.demotions_per_kop", "1/kop"},
	{"tiered.evictions_per_kop", "1/kop"},
	{"tiered.tenant_dram_hit_rate.min", "ratio"},
	{"tiered.spill_used_share", "ratio"},
	{"tiered.allocs_per_op", "count"},
	{"model.amat_ns", "ns"},
	{"model.nvm_writes_per_kop", "lines/kop"},
	{"daemon.epochs", "count"},
	{"daemon.scan_ns.max", "ns"},
	{"daemon.promotions_per_kop", "1/kop"},
	{"daemon.promote_yield", "ratio"},
	{"daemon.queue_drop_share", "ratio"},
	{"client.flush_us", "us"},
	{"client.wait_us", "us"},
	{"client.drain_us", "us"},
	{"server.batched_share", "ratio"},
	{"server.pipelined_share", "ratio"},
	{"server.protocol_errors", "count"},
	{"persist.cut_ms.p50", "ms"},
	{"persist.cut_ms.max", "ms"},
	{"persist.full_cut_ms.p50", "ms"},
	{"persist.delta_cut_ms.p50", "ms"},
	{"persist.cut_bytes.p50", "bytes"},
	{"persist.cut_records.p50", "count"},
	{"persist.readchain_ms", "ms"},
	{"persist.engine_restore_ms", "ms"},
	{"persist.restore_s", "s"},
	{"persist.failures", "count"},
	{"obs.events_per_kop", "1/kop"},
	{"obs.events_overwritten", "count"},
	{"sim.accesses_per_s.proposed", "1/s"},
	{"sim.accesses_per_s.clock-dwf", "1/s"},
	{"sim.accesses_per_s.dram-only", "1/s"},
	{"sim.accesses_per_s.nvm-only", "1/s"},
	{"model.evaluate_us", "us"},
	{"runner.busy_share", "ratio"},
	{"runner.trace_generations", "count"},
}

// tracedLayers are the layers whose self time and span count a traced run
// reports as self_s.<layer> and spans.<layer>.
var tracedLayers = []string{"workload", "tiered", "client", "server", "persist", "experiments", "runner", "model"}

func init() {
	for _, l := range tracedLayers {
		perLayer = append(perLayer, metricDef{"self_s." + l, "s"}, metricDef{"spans." + l, "count"})
	}
}

// window is what one timed window measured.
type window struct {
	ops    int64 // requests completed: accesses, replies or simulated accesses
	failed int64 // requests that errored or got a wrong answer
	slices []*slice
	cost   paperCost
	// layer holds counter-derived per-layer metrics of this window.
	layer map[string]float64
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// window drives the workload for d, adding correctness failures to ck.
	// tr is nil for an untraced window.
	window(d time.Duration, tr *tracer, ck *checks) (*window, error)
	// finish stops the workload, runs its post-run checks into ck and adds
	// post-run per-layer metrics to layer.
	finish(tr *tracer, ck *checks, layer map[string]float64) error
	// close releases a set-up that will not be measured.
	close()
}

// setupFunc builds, starts and warms one instance, recording the trace
// generation time into genS. Spans of set-up calls go to tr (may be nil).
type setupFunc func(seed int64, dir string, tr *tracer, genS *float64) (instance, error)

var workloads = map[string]setupFunc{
	"embed-hot":     setupEmbedHot,
	"resp-pipeline": setupRESP,
	"tenant-churn":  setupChurn,
	"paper-replay":  setupReplay,
}

// setupRuns is how many times a run sets up, to report the median set-up
// time; only the last set-up is measured.
const setupRuns = 5

// runBudget bounds a whole run, set-up and checks included.
const runBudget = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: embed-hot, resp-pipeline, tenant-churn or paper-replay")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "timed window length in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".", "directory for checkpoints and the span dump")
	flag.Parse()
	// A hung connection or engine must not hold the run past its budget.
	time.AfterFunc(runBudget, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runBudget)
		os.Exit(2)
	})
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced bool, out string) error {
	setup, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if d <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	st := newStamp(name, seed, traced)
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var inst instance
	setupS := make([]float64, setupRuns)
	genS := make([]float64, setupRuns)
	for i := range setupS {
		start := time.Now()
		in, err := setup(seed, out, tr, &genS[i])
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS[i] = time.Since(start).Seconds()
		if i < setupRuns-1 {
			in.close()
			runtime.GC()
			continue
		}
		inst = in
	}
	heapMiB := liveHeapMiB()

	ck := &checks{}
	res := result{Metrics: map[string]metric{}}
	layer := map[string]float64{}
	var w *window
	var err error
	if !traced {
		w, err = inst.window(d, nil, ck)
	} else {
		var plain *window
		if plain, err = inst.window(d/2, nil, ck); err == nil {
			res.Attempted, res.Failed = plain.ops, plain.failed
			w, err = inst.window(d/2, tr, ck)
			if err == nil && plain.ops > 0 {
				layer["trace.overhead_share"] = 1 - rate(w)/rate(plain)
			}
		}
	}
	if err != nil {
		inst.close()
		return err
	}
	heapMiB = max(heapMiB, liveHeapMiB())
	res.Attempted += w.ops
	res.Failed += w.failed
	ck.expect(res.Failed == 0, "%d of %d requests failed", res.Failed, res.Attempted)
	if err := inst.finish(tr, ck, layer); err != nil {
		return err
	}

	if !traced {
		p50, samples := latencyUS(w, 0.50)
		p99, _ := latencyUS(w, 0.99)
		e2e := map[string]float64{
			"setup_s":          median(setupS),
			"ops_per_s":        rate(w),
			"p50_us":           p50,
			"p99_us":           p99,
			"dram_hit_rate":    w.cost.DRAMHitRate,
			"energy_nj_per_op": w.cost.EnergyNJ,
			"heap_live_mb":     heapMiB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		fmt.Printf("latency samples: %d in %d slices; peak RSS %.1f MiB\n", samples, len(w.slices), peakRSSMiB())
	} else {
		for k, v := range w.layer {
			layer[k] = v
		}
		layer["workload.gen_s"] = median(genS)
		layer["model.amat_ns"] = w.cost.AMATNS
		layer["model.nvm_writes_per_kop"] = w.cost.NVMWritesPerKop
		addSpanMetrics(tr, layer)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layer[m.name], m.unit}
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := tr.write(path, st); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Println("spans:", path)
	}
	for _, f := range ck.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res.Correct = len(ck.failures) == 0
	if !res.Correct && res.Failed == 0 {
		res.Failed = 1
	}
	stampLine, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("stamp: %s\n", stampLine)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// addSpanMetrics derives the span-based per-layer metrics: latency
// quantiles of the sampled calls and every layer's self time and count.
func addSpanMetrics(tr *tracer, layer map[string]float64) {
	sum := tr.summarize()
	q := func(name string, quant, scale float64) float64 {
		if s := sum[name]; s != nil {
			return s.dur.Quantile(quant) / scale
		}
		return 0
	}
	layer["tiered.serve_ns.p50"] = q("tiered.ServeTenant", 0.50, 1)
	layer["tiered.serve_ns.p99"] = q("tiered.ServeTenant", 0.99, 1)
	layer["client.flush_us"] = q("client.Flush", 0.50, 1e3)
	layer["client.wait_us"] = q("client.ReadReply.first", 0.50, 1e3)
	layer["client.drain_us"] = q("client.ReadReply.rest", 0.50, 1e3)
	var cuts Hist
	for _, kind := range []string{"full", "delta"} {
		if s := sum["persist.CheckpointNow."+kind]; s != nil {
			cuts.Add(&s.dur)
		}
	}
	layer["persist.cut_ms.p50"] = cuts.Quantile(0.50) / 1e6
	layer["persist.cut_ms.max"] = cuts.Quantile(1) / 1e6
	layer["persist.full_cut_ms.p50"] = q("persist.CheckpointNow.full", 0.50, 1e6)
	layer["persist.delta_cut_ms.p50"] = q("persist.CheckpointNow.delta", 0.50, 1e6)
	layer["persist.readchain_ms"] = q("persist.ReadChain", 0.50, 1e6)
	layer["persist.engine_restore_ms"] = q("tiered.Restore", 0.50, 1e6)
	layer["model.evaluate_us"] = q("model.Evaluate", 0.50, 1e3)
	for n, st := range sum {
		l := layerOf(n)
		layer["self_s."+l] += float64(st.selfNS) / 1e9
		layer["spans."+l] += float64(st.count)
	}
}

// rate returns a window's requests per second: the median over its slices.
func rate(w *window) float64 {
	rates := make([]float64, len(w.slices))
	for i, s := range w.slices {
		rates[i] = s.rate
	}
	return median(rates)
}

// latencyUS returns the median over a window's slices of each slice's
// q-quantile latency, in µs, and the number of latency samples.
func latencyUS(w *window, q float64) (float64, uint64) {
	qs := make([]float64, len(w.slices))
	var n uint64
	for i, s := range w.slices {
		qs[i] = s.lat.Quantile(q) / 1e3
		n += s.lat.Count()
	}
	return median(qs), n
}

// median returns the median of xs (not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// perKop scales a count to events per thousand requests.
func perKop(n, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return 1000 * float64(n) / float64(ops)
}

// share returns num/den, or 0 when den is 0.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
