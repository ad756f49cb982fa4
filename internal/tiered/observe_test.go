package tiered

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybridmem/internal/obs"
	"hybridmem/internal/trace"
)

// TestStatsMonotonicUnderLoad pins the documented lazy-sum consistency
// model: while concurrent serve traffic and daemon scans run, every
// counter field of Stats and TenantStats must be monotone non-decreasing
// across successive snapshots, even though a single snapshot is not a
// consistent cut across fields.
func TestStatsMonotonicUnderLoad(t *testing.T) {
	e, err := New(Config{
		Policy:    Proposed,
		DRAMPages: 32, NVMPages: 256, Shards: 8, Core: smallCore(),
		Tenants: []TenantConfig{
			{ID: 0, Name: "a", DRAMQuota: 16},
			{ID: 1, Name: "b", DRAMQuota: 16},
		},
		ScanInterval: 200 * time.Microsecond,
		Workers:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			tn := TenantID(seed % 2)
			for i := 0; i < 8000; i++ {
				op := trace.OpRead
				if rng.Intn(3) == 0 {
					op = trace.OpWrite
				}
				if _, err := e.ServeTenant(tn, uint64(rng.Intn(192))*4096, op); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}

	statFields := func(s Stats) []int64 {
		return []int64{
			s.Accesses, s.ReadsDRAM, s.WritesDRAM, s.ReadsNVM, s.WritesNVM,
			s.Faults, s.FaultsToDRAM, s.FaultsToNVM,
			s.Promotions, s.Demotions, s.DemotionsFault, s.DemotionsPromo,
			s.DemotionsClean, s.Evictions, s.Scans, s.Batches, s.QueueDrops,
		}
	}
	tenantFields := func(s TenantStats) []int64 {
		return []int64{
			s.Accesses, s.HitsDRAM, s.HitsNVM, s.Faults,
			s.Promotions, s.Demotions, s.Evictions,
		}
	}

	prev := statFields(e.Stats())
	prevT, _ := e.TenantStats(0)
	prevTF := tenantFields(prevT)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
		}
		cur := statFields(e.Stats())
		for i := range cur {
			if cur[i] < prev[i] {
				t.Fatalf("Stats field %d went backwards: %d -> %d", i, prev[i], cur[i])
			}
		}
		prev = cur
		ts, _ := e.TenantStats(0)
		curTF := tenantFields(ts)
		for i := range curTF {
			if curTF[i] < prevTF[i] {
				t.Fatalf("TenantStats field %d went backwards: %d -> %d", i, prevTF[i], curTF[i])
			}
		}
		prevTF = curTF
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	// Quiesced, the cross-field identity holds exactly.
	st := e.Stats()
	if st.Hits()+st.Faults != st.Accesses {
		t.Fatalf("quiesced: hits %d + faults %d != accesses %d", st.Hits(), st.Faults, st.Accesses)
	}
}

// TestServeZeroAllocWithRing re-runs the hit-path zero-alloc gate with a
// trace ring attached: instrumentation must not put allocations (or
// publishes — hits are not migration events) on the hit path.
func TestServeZeroAllocWithRing(t *testing.T) {
	ring := obs.NewEventRing(256)
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
	defer e.Stop()
	for p := uint64(0); p < 16; p++ {
		if _, err := e.Serve(p*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}
	before := ring.Published()
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := e.Serve(3*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Serve hit with ring attached allocates %.1f/op, want 0", n)
	}
	if got := ring.Published(); got != before {
		t.Errorf("hits published %d events, want 0", got-before)
	}
}

// TestVerifyPublishesNoEvents pins that the equivalence replay stays out
// of a live migration trace: a ring passed in Config.Events must see none
// of the replay's moves (which include clean demotions the live engine
// never makes), even though the replay migrates.
func TestVerifyPublishesNoEvents(t *testing.T) {
	recs, dram, nvm := genTrace(t, "bodytrack", 0.02, 3)
	ring := obs.NewEventRing(1024)
	st, err := VerifyAgainstSim(Config{DRAMPages: dram, NVMPages: nvm, Events: ring}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Demotions+st.Evictions == 0 {
		t.Fatalf("replay made no migrations (%+v): the check is vacuous", st)
	}
	if got := ring.Published(); got != 0 {
		t.Fatalf("verification published %d events, want 0", got)
	}
}

// TestMigrationEventsPublished drives promotions and demotions with a ring
// attached and asserts both event kinds land in the trace with tenant and
// node attribution intact.
func TestMigrationEventsPublished(t *testing.T) {
	ring := obs.NewEventRing(1024)
	e, err := New(Config{
		Policy:    Proposed,
		DRAMPages: 8, NVMPages: 128, Shards: 4, Core: smallCore(),
		Tenants: []TenantConfig{
			{ID: 0, Name: "hot", DRAMQuota: 4},
			{ID: 1, Name: "cold", DRAMQuota: 4},
		},
		ScanInterval: time.Hour, // manual scans only
		Events:       ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// A working set far beyond the DRAM quota forces fault demotions;
	// repeated hot touches plus ScanOnce force promotions.
	for round := 0; round < 6; round++ {
		for p := uint64(0); p < 64; p++ {
			if _, err := e.ServeTenant(0, p*4096, trace.OpWrite); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			for p := uint64(0); p < 4; p++ {
				if _, err := e.ServeTenant(0, p*4096, trace.OpRead); err != nil {
					t.Fatal(err)
				}
			}
		}
		_ = e.ScanOnce()
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}

	events := ring.Snapshot(0)
	if len(events) == 0 {
		t.Fatal("no events published")
	}
	var promos, demos int
	for _, ev := range events {
		switch {
		case ev.Reason == obs.ReasonPromotion:
			promos++
			if ev.From != obs.TierNVM || ev.To != obs.TierDRAM {
				t.Fatalf("promotion event %v has tiers %v->%v", ev, ev.From, ev.To)
			}
		case ev.Reason == obs.ReasonDemotionFault || ev.Reason == obs.ReasonDemotionPromotion ||
			ev.Reason == obs.ReasonDemotionSpill || ev.Reason == obs.ReasonDemotionClean:
			demos++
			if ev.From != obs.TierDRAM || ev.To != obs.TierNVM {
				t.Fatalf("demotion event %v has tiers %v->%v", ev, ev.From, ev.To)
			}
		}
		if ev.Tenant != 0 && ev.Tenant != 1 {
			t.Fatalf("event carries unknown tenant %d", ev.Tenant)
		}
		if int(ev.Node) >= e.NumNodes() {
			t.Fatalf("event carries unknown node %d", ev.Node)
		}
		if ev.TS == 0 {
			t.Fatal("event missing timestamp")
		}
	}
	if promos == 0 || demos == 0 {
		t.Fatalf("events hold %d promotions, %d demotions; want both > 0", promos, demos)
	}
	st := e.Stats()
	if pub := int64(ring.Published()); pub == 0 || pub > st.Promotions+st.Demotions+st.Evictions {
		t.Fatalf("published %d events vs %d migrations", pub, st.Promotions+st.Demotions+st.Evictions)
	}
}

// TestDaemonStatsIntrospection checks the daemon snapshot after real
// epochs: epoch count and timing move, candidates are tallied, and the
// per-node pipeline fields are internally consistent.
func TestDaemonStatsIntrospection(t *testing.T) {
	e, err := New(Config{
		Policy:    Proposed,
		DRAMPages: 16, NVMPages: 128, Shards: 4, Core: smallCore(),
		ScanInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	// Build an NVM-resident hot set, then scan: candidates must be found.
	for p := uint64(0); p < 64; p++ {
		if _, err := e.Serve(p*4096, trace.OpWrite); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		for p := uint64(40); p < 48; p++ {
			if _, err := e.Serve(p*4096, trace.OpWrite); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = e.ScanOnce()
	_ = e.ScanOnce()

	ds := e.DaemonStats()
	if ds.Epochs < 2 {
		t.Fatalf("epochs = %d, want >= 2", ds.Epochs)
	}
	if ds.LastScanNS <= 0 || ds.MaxScanNS < ds.LastScanNS {
		t.Fatalf("scan timing last=%dns max=%dns", ds.LastScanNS, ds.MaxScanNS)
	}
	if ds.Candidates == 0 {
		t.Fatal("no candidates tallied across epochs")
	}
	if len(ds.Nodes) != e.NumNodes() {
		t.Fatalf("daemon snapshot covers %d nodes, engine has %d", len(ds.Nodes), e.NumNodes())
	}
	for _, n := range ds.Nodes {
		if int64(n.QueueDepth) > n.QueueHighWater {
			t.Fatalf("node %d: depth %d above high water %d", n.ID, n.QueueDepth, n.QueueHighWater)
		}
	}
	st := e.Stats()
	if ds.Epochs != st.Scans || ds.Batches != st.Batches || ds.BatchesDropped != st.QueueDrops {
		t.Fatalf("daemon snapshot disagrees with Stats: %+v vs %+v", ds, st)
	}
}

// TestRegisterMetricsCatalog registers the engine catalog on a multi-node,
// multi-tenant engine, drives traffic, and checks the scrape is valid
// Prometheus text carrying per-tenant and per-node series with live values.
func TestRegisterMetricsCatalog(t *testing.T) {
	ring := obs.NewEventRing(obs.DefaultRingSize)
	e, err := New(Config{
		Policy:    Proposed,
		DRAMPages: 16, NVMPages: 64, Shards: 4, Core: smallCore(),
		Topology: EvenTopology(2, 16, 64),
		Tenants: []TenantConfig{
			{ID: 0, Name: "bodytrack", DRAMQuota: 8},
			{ID: 1, Name: "canneal", DRAMQuota: 8},
		},
		ScanInterval: time.Hour,
		Events:       ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)

	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for p := uint64(0); p < 48; p++ {
		if _, err := e.ServeTenant(0, p*4096, trace.OpWrite); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ServeTenant(1, p*4096, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}
	_ = e.ScanOnce()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("scrape invalid: %v\n%s", err, buf.String())
	}

	samples := reg.Snapshot()
	if s, ok := obs.Find(samples, "tierd_engine_accesses_total"); !ok || s.Value != 96 {
		t.Fatalf("engine accesses sample = %+v, %v; want 96", s, ok)
	}
	for _, tenant := range []string{"bodytrack", "canneal"} {
		s, ok := obs.Find(samples, "tierd_tenant_accesses_total", obs.L("tenant", tenant))
		if !ok || s.Value != 48 {
			t.Fatalf("tenant %s accesses = %+v, %v; want 48", tenant, s, ok)
		}
	}
	for _, node := range []string{"0", "1"} {
		if _, ok := obs.Find(samples, "tierd_node_resident_pages",
			obs.L("node", node), obs.L("tier", "dram")); !ok {
			t.Fatalf("no resident-pages series for node %s", node)
		}
		if _, ok := obs.Find(samples, "tierd_node_accesses_total", obs.L("node", node)); !ok {
			t.Fatalf("no accesses series for node %s", node)
		}
	}
	// Residency gauges must agree with NodeStats.
	for i, ns := range e.NodeStats() {
		s, ok := obs.Find(samples, "tierd_node_capacity_pages",
			obs.L("node", []string{"0", "1"}[i]), obs.L("tier", "nvm"))
		if !ok || s.Value != ns.NVMPages {
			t.Fatalf("node %d NVM capacity sample %+v vs NodeStats %d", i, s, ns.NVMPages)
		}
	}
	if s, ok := obs.Find(samples, "tierd_events_published_total"); !ok || s.Value == 0 {
		t.Fatalf("events-published sample = %+v, %v; want > 0", s, ok)
	}
}
