package runner

import (
	"fmt"
	"sort"
	"time"

	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/policy"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
)

// Job is one schedulable simulation unit: a policy instance replaying one
// cached trace under one memory spec. The runner materializes the trace
// (shared, at most once), builds the policy, services the warmup pass with
// statistics discarded, simulates the ROI and evaluates the paper's models.
type Job struct {
	// ID names the job in results, errors and artifacts
	// (e.g. "ferret/proposed" or "raytrace/thr16-24/proposed").
	ID string
	// Seed is the RNG seed governing the job's trace, recorded into the
	// result for artifact provenance.
	Seed int64
	// Trace is the shared trace handle; jobs with equal configuration
	// should share one handle so generation happens once.
	Trace *Traces
	// Build constructs the policy. It runs after the trace is
	// materialized, so it may call Trace.Materialize to size zones from
	// the scaled footprint at no extra cost.
	Build func() (policy.Policy, error)
	// Spec is the memory-technology parameter set for timing and energy.
	Spec memspec.Spec
	// Opts forwards simulator options (invariant checking).
	Opts sim.Options
	// Weight is the policy's relative cost per simulated access, used
	// only to order dispatch; zero means 1.
	Weight int
}

// JobResult captures one job's outcome: the simulation counters, the model
// evaluation, the policy instance (for post-run introspection such as the
// adaptive controller's settled thresholds), wall-clock timing and any
// error. Timing is diagnostic only and deliberately excluded from JSON
// artifacts, which must be byte-stable across runs.
type JobResult struct {
	ID      string
	Seed    int64
	Policy  policy.Policy
	Result  *sim.Result
	Report  *model.Report
	Elapsed time.Duration
	Err     error
}

// RunJobs executes jobs across the pool and returns their results in job
// order. Every job runs even when siblings fail; per-job errors land in
// JobResult.Err, and the returned error is the lowest-index failure (nil
// when all jobs succeed). Slot i always belongs to jobs[i], so downstream
// assembly is deterministic at any pool width.
//
// Jobs start costliest first, so a long job does not start last and
// leave the other workers idle at the end. A job's cost is its warmup
// plus ROI record count times its Weight; ties keep submission order.
// Each distinct trace is materialized on the pool before dispatch, since
// the costs need the trace lengths.
func (p *Pool) RunJobs(jobs []Job) ([]JobResult, error) {
	var traces []*Traces
	seen := make(map[*Traces]bool)
	for i := range jobs {
		if t := jobs[i].Trace; !seen[t] {
			seen[t] = true
			traces = append(traces, t)
		}
	}
	// A failed materialization is reported by each of its jobs, so this
	// pass drops the error.
	_ = p.Do(len(traces), func(i int) error {
		_, _, _, err := traces[i].Materialize()
		return err
	})
	order := make([]int, len(jobs))
	cost := make([]int64, len(jobs))
	for i := range jobs {
		order[i] = i
		cost[i] = jobs[i].cost()
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })

	// Errors are collected by slot, not by dispatch position, so the
	// returned error names the lowest-index failing job.
	results := make([]JobResult, len(jobs))
	errs := make([]error, len(jobs))
	_ = p.Do(len(jobs), func(k int) error {
		i := order[k]
		results[i] = runJob(&jobs[i])
		errs[i] = results[i].Err
		return nil
	})
	return results, firstError(errs)
}

// cost estimates the job's run time in weighted simulated accesses. It
// reads an already materialized trace.
func (j *Job) cost() int64 {
	warm, roi, _, _ := j.Trace.Materialize()
	w := int64(j.Weight)
	if w == 0 {
		w = 1
	}
	return int64(len(warm)+len(roi)) * w
}

func runJob(j *Job) JobResult {
	start := time.Now()
	res := JobResult{ID: j.ID, Seed: j.Seed}
	fail := func(err error) JobResult {
		res.Err = fmt.Errorf("%s: %w", j.ID, err)
		res.Elapsed = time.Since(start)
		return res
	}
	warm, roi, _, err := j.Trace.Materialize()
	if err != nil {
		return fail(err)
	}
	pol, err := j.Build()
	if err != nil {
		return fail(err)
	}
	// Warmup pass: fills memory, statistics discarded.
	if _, err := sim.Run(trace.NewSliceSource(warm), pol, j.Spec, j.Opts); err != nil {
		return fail(fmt.Errorf("warmup: %w", err))
	}
	simRes, err := sim.Run(trace.NewSliceSource(roi), pol, j.Spec, j.Opts)
	if err != nil {
		return fail(err)
	}
	rep, err := model.Evaluate(simRes, j.Spec)
	if err != nil {
		return fail(fmt.Errorf("evaluate: %w", err))
	}
	res.Policy = pol
	res.Result = simRes
	res.Report = rep
	res.Elapsed = time.Since(start)
	return res
}
