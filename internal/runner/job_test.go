package runner

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hybridmem/internal/memspec"
	"hybridmem/internal/policy"
	"hybridmem/internal/sim"
)

func testJobs(t *testing.T, n int, tr *Traces) []Job {
	t.Helper()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID:    fmt.Sprintf("fake/job%d", i),
			Seed:  int64(i),
			Trace: tr,
			Spec:  memspec.Default(),
			Build: func() (policy.Policy, error) {
				_, _, pages, err := tr.Materialize()
				if err != nil {
					return nil, err
				}
				return policy.NewDRAMOnly(pages)
			},
		}
	}
	return jobs
}

func TestRunJobsPositionalResults(t *testing.T) {
	tr := newFakeTraces(8, 200, nil)
	for _, workers := range []int{1, 8} {
		rs, err := New(workers).RunJobs(testJobs(t, 6, tr))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range rs {
			if r.ID != fmt.Sprintf("fake/job%d", i) {
				t.Errorf("workers=%d: slot %d holds %q", workers, i, r.ID)
			}
			if r.Err != nil {
				t.Errorf("%s: %v", r.ID, r.Err)
			}
			if r.Report == nil || r.Result == nil || r.Policy == nil {
				t.Fatalf("%s: incomplete result", r.ID)
			}
			if r.Report.Accesses != 200 {
				t.Errorf("%s: %d accesses, want 200", r.ID, r.Report.Accesses)
			}
			if r.Elapsed <= 0 {
				t.Errorf("%s: elapsed %v not captured", r.ID, r.Elapsed)
			}
		}
	}
}

func TestRunJobsErrorCapture(t *testing.T) {
	tr := newFakeTraces(8, 100, nil)
	sentinel := errors.New("bad policy")
	jobs := testJobs(t, 4, tr)
	jobs[2].Build = func() (policy.Policy, error) { return nil, sentinel }
	rs, err := New(4).RunJobs(jobs)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if !strings.Contains(err.Error(), "fake/job2") {
		t.Errorf("error %q does not name the failing job", err)
	}
	if rs[2].Err == nil || rs[2].Report != nil {
		t.Error("failing slot should carry the error and no report")
	}
	// Siblings complete despite the failure.
	for _, i := range []int{0, 1, 3} {
		if rs[i].Err != nil || rs[i].Report == nil {
			t.Errorf("job %d should have succeeded: %v", i, rs[i].Err)
		}
	}
}

func TestRunJobsTraceErrorPropagates(t *testing.T) {
	sentinel := errors.New("trace failed")
	tr := NewTraces(1, func() (TraceGen, error) { return nil, sentinel })
	rs, err := New(2).RunJobs(testJobs(t, 3, tr))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	for _, r := range rs {
		if !errors.Is(r.Err, sentinel) {
			t.Errorf("%s: err = %v", r.ID, r.Err)
		}
	}
}

// TestRunJobsDeterministicAcrossWidths is the runner-level half of the
// acceptance criterion: identical jobs produce byte-identical artifacts at
// any pool width.
func TestRunJobsDeterministicAcrossWidths(t *testing.T) {
	encode := func(workers int) []byte {
		tr := newFakeTraces(16, 500, nil)
		rs, err := New(workers).RunJobs(testJobs(t, 8, tr))
		if err != nil {
			t.Fatal(err)
		}
		a := NewArtifact("test", "grid", 1, 1)
		for _, r := range rs {
			a.Add(Result{ID: r.ID, Seed: r.Seed, Metrics: MetricsFrom(r.Report)})
		}
		b, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := encode(1)
	for _, workers := range []int{2, 8, 32} {
		if par := encode(workers); !bytes.Equal(serial, par) {
			t.Errorf("workers=%d: artifact bytes differ from serial run", workers)
		}
	}
}

func TestRunJobsUsesSimOptions(t *testing.T) {
	// CheckEvery exercises the simulator's invariant-checking path end to
	// end through the runner.
	tr := newFakeTraces(8, 100, nil)
	jobs := testJobs(t, 1, tr)
	jobs[0].Opts = sim.Options{CheckEvery: 10}
	rs, err := New(1).RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
}

// TestRunJobsCostliestFirst checks the dispatch order: jobs start in
// descending (warmup + ROI records) x weight, a zero weight counts as 1,
// ties keep submission order, and every result stays in its job's slot.
// On one worker the start order is exact. On w workers a job is handed
// out only after every costlier job, and each of the other w-1 workers
// holds at most one of those not yet started, so no job starts more than
// w-1 places ahead of its rank (it may start arbitrarily later).
func TestRunJobsCostliestFirst(t *testing.T) {
	short := newFakeTraces(8, 100, nil) // 108 records
	long := newFakeTraces(8, 400, nil)  // 408 records
	type spec struct {
		tr     *Traces
		weight int
	}
	six := []spec{
		{short, 0}, // 108
		{short, 2}, // 216
		{long, 1},  // 408
		{short, 1}, // 108, ties with job 0
		{long, 0},  // 408, ties with job 2
		{short, 3}, // 324
	}
	// Three copies: more than a dozen jobs, so an unstable sort would
	// not pass by falling back to insertion sort.
	specs := append(append(append([]spec{}, six...), six...), six...)
	want := []int{
		2, 4, 8, 10, 14, 16, // 408
		5, 11, 17, // 324
		1, 7, 13, // 216
		0, 3, 6, 9, 12, 15, // 108
	}
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		var started []int
		jobs := make([]Job, len(specs))
		for i, sp := range specs {
			tr := sp.tr
			jobs[i] = Job{
				ID:     fmt.Sprintf("fake/job%d", i),
				Trace:  tr,
				Spec:   memspec.Default(),
				Weight: sp.weight,
				Build: func() (policy.Policy, error) {
					mu.Lock()
					started = append(started, i)
					mu.Unlock()
					_, _, pages, err := tr.Materialize()
					if err != nil {
						return nil, err
					}
					return policy.NewDRAMOnly(pages)
				},
			}
		}
		rs, err := New(workers).RunJobs(jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range rs {
			if r.ID != jobs[i].ID {
				t.Errorf("workers=%d: slot %d holds %q", workers, i, r.ID)
			}
			wantAcc := int64(len(jobs[i].Trace.roi))
			if r.Report == nil || r.Report.Accesses != wantAcc {
				t.Errorf("workers=%d: %s: report %+v, want %d accesses", workers, r.ID, r.Report, wantAcc)
			}
		}
		if len(started) != len(want) {
			t.Fatalf("workers=%d: %d jobs started, want %d", workers, len(started), len(want))
		}
		rank := make(map[int]int)
		for r, i := range want {
			rank[i] = r
		}
		for pos, i := range started {
			if pos < rank[i]-(workers-1) {
				t.Fatalf("workers=%d: start order %v, want %v, no job more than %d places early", workers, started, want, workers-1)
			}
		}
	}
}
