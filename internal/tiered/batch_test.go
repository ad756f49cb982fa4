package tiered

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"hybridmem/internal/mm"
	"hybridmem/internal/obs"
	"hybridmem/internal/trace"
)

// TestServeTenantBatchEquivalence is the batch API's count-exact property
// test: two identical engines replay the same randomized mixed GET/SET
// stream — one through ServeTenantBatch, one through per-access
// ServeTenant calls — and must agree on every ServeResult, every
// engine/tenant/node counter, and every occupancy invariant, on single-
// and multi-node topologies. Hits and faults both occur (the footprint
// exceeds the quotas), so the fault fallthrough is covered too.
func TestServeTenantBatchEquivalence(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			mk := func() *Engine {
				cfg := Config{
					Policy:    Proposed,
					DRAMPages: 64,
					NVMPages:  512,
					Shards:    8,
					Core:      smallCore(),
					Tenants: []TenantConfig{
						{ID: 0, Name: "a", DRAMQuota: 24},
						{ID: 1, Name: "b", DRAMQuota: 24},
					},
					ScanInterval: time.Hour, // no background epochs: lockstep stays deterministic
				}
				if nodes > 1 {
					cfg.Topology = EvenTopology(nodes, cfg.DRAMPages, cfg.NVMPages)
				}
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
				return e
			}
			eb, er := mk(), mk()
			defer eb.Stop()
			defer er.Stop()

			rng := rand.New(rand.NewSource(7))
			addrs := make([]uint64, 0, 64)
			ops := make([]trace.Op, 0, 64)
			out := make([]ServeResult, 64)
			for round := 0; round < 200; round++ {
				tn := TenantID(rng.Intn(2))
				n := 1 + rng.Intn(64)
				addrs, ops = addrs[:0], ops[:0]
				for i := 0; i < n; i++ {
					p := uint64(rng.Intn(300))
					if rng.Intn(2) == 0 {
						p = uint64(rng.Intn(32)) // hot subset: plenty of hits
					}
					op := trace.OpRead
					if rng.Intn(3) == 0 {
						op = trace.OpWrite
					}
					addrs = append(addrs, p*4096)
					ops = append(ops, op)
				}
				done, err := eb.ServeTenantBatch(tn, addrs, ops, out[:n])
				if err != nil {
					t.Fatalf("round %d: batch: %v", round, err)
				}
				if done != n {
					t.Fatalf("round %d: batch served %d of %d", round, done, n)
				}
				for i := 0; i < n; i++ {
					want, err := er.ServeTenant(tn, addrs[i], ops[i])
					if err != nil {
						t.Fatalf("round %d: reference access %d: %v", round, i, err)
					}
					if out[i] != want {
						t.Fatalf("round %d access %d: batch %+v, sequential %+v", round, i, out[i], want)
					}
				}
				if err := eb.CheckInvariants(); err != nil {
					t.Fatalf("round %d: batch engine: %v", round, err)
				}
				if err := er.CheckInvariants(); err != nil {
					t.Fatalf("round %d: reference engine: %v", round, err)
				}
			}

			if got, want := eb.Stats(), er.Stats(); got != want {
				t.Errorf("Stats diverge:\nbatch      %+v\nsequential %+v", got, want)
			}
			for _, id := range eb.TenantIDs() {
				got, _ := eb.TenantStats(id)
				want, _ := er.TenantStats(id)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("TenantStats(%d) diverge:\nbatch      %+v\nsequential %+v", id, got, want)
				}
			}
			if got, want := eb.NodeStats(), er.NodeStats(); !reflect.DeepEqual(got, want) {
				t.Errorf("NodeStats diverge:\nbatch      %+v\nsequential %+v", got, want)
			}
		})
	}
}

// TestServeTenantBatchRejections pins the batch API's whole-batch error
// contract: mismatched slice lengths, engine lifecycle, unknown tenants,
// synchronous mode and out-of-range addresses all reject the batch before
// any access is tallied.
func TestServeTenantBatchRejections(t *testing.T) {
	addrs := []uint64{0, 4096}
	ops := []trace.Op{trace.OpRead, trace.OpWrite}
	out := make([]ServeResult, 2)

	e, err := New(Config{DRAMPages: 16, NVMPages: 16, Shards: 4, ScanInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ServeTenantBatch(DefaultTenant, addrs, ops, out); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("before Start: err = %v, want ErrNotStarted", err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ServeTenantBatch(DefaultTenant, addrs, ops[:1], out); !errors.Is(err, ErrBatchLengths) {
		t.Fatalf("short ops: err = %v, want ErrBatchLengths", err)
	}
	if _, err := e.ServeTenantBatch(DefaultTenant, addrs, ops, out[:1]); !errors.Is(err, ErrBatchLengths) {
		t.Fatalf("short out: err = %v, want ErrBatchLengths", err)
	}
	if _, err := e.ServeTenantBatch(42, addrs, ops, out); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
	if n, err := e.ServeTenantBatch(DefaultTenant, nil, nil, nil); n != 0 || err != nil {
		t.Fatalf("empty batch: (%d, %v), want (0, nil)", n, err)
	}

	// One bad address rejects the whole batch with no partial accounting.
	before := e.Stats()
	bad := []uint64{0, math.MaxUint64, 4096}
	n, err := e.ServeTenantBatch(DefaultTenant,
		bad, []trace.Op{trace.OpRead, trace.OpRead, trace.OpRead}, make([]ServeResult, 3))
	if n != 0 || !errors.Is(err, ErrPageRange) {
		t.Fatalf("out-of-range batch: (%d, %v), want (0, ErrPageRange)", n, err)
	}
	if after := e.Stats(); after != before {
		t.Errorf("rejected batch changed counters:\nbefore %+v\nafter  %+v", before, after)
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ServeTenantBatch(DefaultTenant, addrs, ops, out); !errors.Is(err, ErrStopped) {
		t.Fatalf("after Stop: err = %v, want ErrStopped", err)
	}
}

// TestServePageRangeErrorNoAlloc is the regression gate for the hoisted
// out-of-range sentinel: rejecting a flood of un-mappable addresses —
// hashed string keys cover the full 64-bit space — must not allocate, on
// the serve, batch and drop paths alike.
func TestServePageRangeErrorNoAlloc(t *testing.T) {
	e, err := New(Config{DRAMPages: 16, NVMPages: 16, Shards: 4, ScanInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	const bad = uint64(math.MaxUint64)
	if _, err := e.Serve(bad, trace.OpRead); !errors.Is(err, ErrPageRange) {
		t.Fatalf("Serve(out-of-range) = %v, want ErrPageRange", err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.Serve(bad, trace.OpRead)
	}); n != 0 {
		t.Errorf("Serve out-of-range rejection allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.Drop(DefaultTenant, bad)
	}); n != 0 {
		t.Errorf("Drop out-of-range rejection allocates %.1f/op, want 0", n)
	}
	addrs := []uint64{bad}
	ops := []trace.Op{trace.OpRead}
	out := make([]ServeResult, 1)
	e.ServeTenantBatch(DefaultTenant, addrs, ops, out) // warm the scratch pool
	if n := testing.AllocsPerRun(1000, func() {
		e.ServeTenantBatch(DefaultTenant, addrs, ops, out)
	}); n != 0 {
		t.Errorf("batch out-of-range rejection allocates %.1f/op, want 0", n)
	}
}

// batchAllocEngine builds a started engine with a warm DRAM working set
// and one planted NVM page, so a batch mixes DRAM/NVM hits across reads
// and writes.
func batchAllocEngine(t *testing.T, ring *obs.EventRing) *Engine {
	t.Helper()
	e, err := New(Config{
		DRAMPages: 64, NVMPages: 64, Shards: 8,
		ScanInterval: time.Hour,
		Events:       ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 16; p++ {
		if _, err := e.Serve(p*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}
	e.tbl.Insert(DefaultTenant, 99, mm.LocNVM)
	e.nodes[0].nvmUsed.Add(1)
	return e
}

// batchAllocArgs builds a 64-access hit-only batch over the working set
// batchAllocEngine warms: both tiers, both op kinds.
func batchAllocArgs() ([]uint64, []trace.Op, []ServeResult) {
	const n = 64
	addrs := make([]uint64, n)
	ops := make([]trace.Op, n)
	for i := range addrs {
		addrs[i] = uint64(i%16) * 4096
		ops[i] = trace.OpRead
		if i%3 == 0 {
			ops[i] = trace.OpWrite
		}
		if i%7 == 0 {
			addrs[i] = 99 * 4096 // the planted NVM page
		}
	}
	return addrs, ops, make([]ServeResult, n)
}

// TestServeBatchZeroAllocs gates the batch hot path: once the pooled
// scratch has warmed, a steady-state all-hit batch allocates nothing.
func TestServeBatchZeroAllocs(t *testing.T) {
	e := batchAllocEngine(t, nil)
	defer e.Stop()
	addrs, ops, out := batchAllocArgs()
	if _, err := e.ServeTenantBatch(DefaultTenant, addrs, ops, out); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := e.ServeTenantBatch(DefaultTenant, addrs, ops, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("batch serve allocates %.1f/batch, want 0", n)
	}
}

// TestServeBatchZeroAllocWithRing re-runs the batch zero-alloc gate with a
// trace ring attached, mirroring TestServeZeroAllocWithRing: observability
// must not put allocations — or publishes, hits are not migration events —
// on the batch path.
func TestServeBatchZeroAllocWithRing(t *testing.T) {
	ring := obs.NewEventRing(256)
	e := batchAllocEngine(t, ring)
	defer e.Stop()
	addrs, ops, out := batchAllocArgs()
	if _, err := e.ServeTenantBatch(DefaultTenant, addrs, ops, out); err != nil {
		t.Fatal(err)
	}
	before := ring.Published()
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := e.ServeTenantBatch(DefaultTenant, addrs, ops, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("batch serve with ring attached allocates %.1f/batch, want 0", n)
	}
	if got := ring.Published(); got != before {
		t.Errorf("batched hits published %d events, want 0", got-before)
	}
}

// TestServeBatchDaemonQuotaStress is the -race gate for the batch path:
// concurrent batched multi-tenant traffic, the ticker daemon's lock-free
// scans, forced ScanOnce storms and tenant-quota demotions all run against
// the same table (the batched mirror of TestServeDaemonQuotaStress).
// Quiesced, the access total and every occupancy invariant must hold
// exactly — the per-stripe delta flush loses nothing under contention.
func TestServeBatchDaemonQuotaStress(t *testing.T) {
	e, err := New(Config{
		Policy:    Proposed,
		DRAMPages: 48,
		NVMPages:  512,
		Shards:    8,
		Core:      smallCore(),
		Tenants: []TenantConfig{
			{ID: 0, Name: "hog", DRAMQuota: 16},
			{ID: 1, Name: "neighbor", DRAMQuota: 16},
			// 16 frames stay unquota'd: the shared spill pool.
		},
		ScanInterval: 100 * time.Microsecond,
		Workers:      2,
		BatchSize:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 6
		batches    = 750
		batchLen   = 16
	)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			tn := TenantID(seed % 2)
			footprint := 256
			if tn == 1 {
				footprint = 64
			}
			addrs := make([]uint64, batchLen)
			ops := make([]trace.Op, batchLen)
			out := make([]ServeResult, batchLen)
			for b := 0; b < batches; b++ {
				for j := range addrs {
					op := trace.OpRead
					if rng.Intn(3) == 0 {
						op = trace.OpWrite
					}
					p := uint64(rng.Intn(footprint))
					if rng.Intn(2) == 0 {
						p = uint64(rng.Intn(footprint / 8))
					}
					addrs[j], ops[j] = p*4096, op
				}
				if n, err := e.ServeTenantBatch(tn, addrs, ops, out); err != nil || n != batchLen {
					t.Errorf("batch %d: (%d, %v)", b, n, err)
					return
				}
				if b%32 == 0 {
					_ = e.ScanOnce()
				}
			}
		}(int64(w))
	}
	// Concurrent readers of every aggregate the engine publishes.
	stopObs := make(chan struct{})
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		for {
			select {
			case <-stopObs:
				return
			default:
				_ = e.Stats()
				_, _ = e.TenantStats(0)
				_, _ = e.TenantStats(1)
			}
		}
	}()
	wg.Wait()
	close(stopObs)
	obsWG.Wait()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if want := int64(goroutines * batches * batchLen); st.Accesses != want {
		t.Fatalf("accesses = %d, want %d", st.Accesses, want)
	}
	if st.Hits()+st.Faults != st.Accesses {
		t.Fatalf("hits %d + faults %d != accesses %d", st.Hits(), st.Faults, st.Accesses)
	}
	for _, id := range e.TenantIDs() {
		ts, _ := e.TenantStats(id)
		if ts.ResidentDRAM > ts.DRAMCap {
			t.Fatalf("tenant %d holds %d DRAM frames, cap %d", id, ts.ResidentDRAM, ts.DRAMCap)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
