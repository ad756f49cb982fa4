package tiered

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridmem/internal/memspec"
	"hybridmem/internal/mm"
	"hybridmem/internal/trace"
)

// pagesHomedOn collects count page numbers whose home node is the given
// node under the engine's table topology.
func pagesHomedOn(t *testing.T, e *Engine, node, count int) []uint64 {
	t.Helper()
	var out []uint64
	for p := uint64(0); len(out) < count; p++ {
		if p > 1<<20 {
			t.Fatalf("could not find %d pages homed on node %d", count, node)
		}
		if e.tbl.HomeNode(DefaultTenant, p) == node {
			out = append(out, p)
		}
	}
	return out
}

func TestEvenTopologySplit(t *testing.T) {
	topo := EvenTopology(3, 10, 8)
	wantDRAM, wantNVM := []int{4, 3, 3}, []int{3, 3, 2}
	var dramSum, nvmSum int
	for i, n := range topo.Nodes {
		if n.DRAMPages != wantDRAM[i] || n.NVMPages != wantNVM[i] {
			t.Fatalf("node %d pools = %d/%d, want %d/%d", i, n.DRAMPages, n.NVMPages, wantDRAM[i], wantNVM[i])
		}
		dramSum += n.DRAMPages
		nvmSum += n.NVMPages
	}
	if dramSum != 10 || nvmSum != 8 {
		t.Fatalf("pools total %d/%d, want 10/8", dramSum, nvmSum)
	}
}

func TestApportionQuotas(t *testing.T) {
	nodes := []NodeConfig{{DRAMPages: 4}, {DRAMPages: 12}}
	rows := apportionQuotas([]int64{9, 0}, nodes, 16)
	shares := rows[0]
	if shares[0]+shares[1] != 9 {
		t.Fatalf("shares %v do not sum to the quota", shares)
	}
	// 9*4/16 = 2 and 9*12/16 = 6, remainder 1 to node 0 (headroom left).
	if shares[0] != 3 || shares[1] != 6 {
		t.Fatalf("shares = %v, want [3 6]", shares)
	}
	if rows[1][0] != 0 || rows[1][1] != 0 {
		t.Fatalf("zero quota apportioned to %v", rows[1])
	}
	one := apportionQuotas([]int64{7}, []NodeConfig{{DRAMPages: 16}}, 16)
	if len(one[0]) != 1 || one[0][0] != 7 {
		t.Fatalf("single-node apportionment = %v, want [7]", one[0])
	}
}

// TestApportionQuotasNeverOversubscribesANode pins the joint-apportionment
// guarantee: remainders are steered by remaining node headroom, so the
// tenants' shares on any node never exceed that node's pool (naive
// earliest-node remainder placement would put 26+26 > 51 on node 0 here,
// leaving a within-quota tenant unable to ever reach its quota).
func TestApportionQuotasNeverOversubscribesANode(t *testing.T) {
	cases := []struct {
		quotas []int64
		nodes  []NodeConfig
	}{
		{[]int64{50, 50}, []NodeConfig{{DRAMPages: 51}, {DRAMPages: 49}}},
		{[]int64{1, 1, 1}, []NodeConfig{{DRAMPages: 2}, {DRAMPages: 2}}},
		{[]int64{7, 5, 3}, []NodeConfig{{DRAMPages: 5}, {DRAMPages: 5}, {DRAMPages: 6}}},
		// Three small-quota tenants' remainders must not eat the node-0
		// headroom tenant 3's floor share (1 on node 0) still needs: with
		// interleaved placement node 0 would back 4 shares on a 3-frame
		// pool.
		{[]int64{1, 1, 1, 5}, []NodeConfig{{DRAMPages: 3}, {DRAMPages: 5}}},
	}
	for _, tc := range cases {
		var total int64
		for _, n := range tc.nodes {
			total += int64(n.DRAMPages)
		}
		rows := apportionQuotas(tc.quotas, tc.nodes, total)
		perNode := make([]int64, len(tc.nodes))
		for t2, shares := range rows {
			var sum int64
			for n, s := range shares {
				sum += s
				perNode[n] += s
			}
			if sum != tc.quotas[t2] {
				t.Fatalf("quotas %v nodes %v: tenant %d shares %v sum to %d, want %d",
					tc.quotas, tc.nodes, t2, shares, sum, tc.quotas[t2])
			}
		}
		for n := range perNode {
			if perNode[n] > int64(tc.nodes[n].DRAMPages) {
				t.Fatalf("quotas %v nodes %v: node %d backs %d shares, pool is %d (rows %v)",
					tc.quotas, tc.nodes, n, perNode[n], tc.nodes[n].DRAMPages, rows)
			}
		}
	}
}

// TestTopologyValidation pins the per-node configuration errors: a bad
// pool names the offending node index, and pools that do not tile the
// configured totals are rejected.
func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{DRAMPages: 8, NVMPages: 8, Topology: Topology{
			Nodes: []NodeConfig{{DRAMPages: 8, NVMPages: 8}, {DRAMPages: 0, NVMPages: 4}},
		}}, "node 1: DRAM pool"},
		{Config{DRAMPages: 8, NVMPages: 8, Topology: Topology{
			Nodes: []NodeConfig{{DRAMPages: 4, NVMPages: 0}, {DRAMPages: 4, NVMPages: 8}},
		}}, "node 0: NVM pool"},
		{Config{DRAMPages: 8, NVMPages: 8, Topology: Topology{
			Nodes: []NodeConfig{{DRAMPages: 4, NVMPages: 4}, {DRAMPages: 2, NVMPages: 4}},
		}}, "node pools total"},
		{Config{DRAMPages: 8, NVMPages: 8, Topology: Topology{
			Nodes:         []NodeConfig{{DRAMPages: 8, NVMPages: 8}},
			RemotePenalty: 0.5,
		}}, "remote penalty"},
	}
	for i, tc := range cases {
		_, err := New(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("config %d: error %v, want substring %q", i, err, tc.want)
		}
	}
	// Sim equivalence is defined on the single-node machine only.
	_, err := VerifyAgainstSim(Config{DRAMPages: 8, NVMPages: 8, Topology: EvenTopology(2, 8, 8)},
		[]trace.Record{{Addr: 0, Op: trace.OpRead}})
	if err == nil || !strings.Contains(err.Error(), "single-node topology") {
		t.Errorf("two-node verification: error %v, want substring %q", err, "single-node topology")
	}
	// A well-formed two-node topology is accepted, and the engine reports
	// its geometry.
	e, err := New(Config{DRAMPages: 8, NVMPages: 8, Topology: EvenTopology(2, 8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumNodes() != 2 || e.tbl.NumNodes() != 2 {
		t.Fatalf("engine reports %d/%d nodes, want 2/2", e.NumNodes(), e.tbl.NumNodes())
	}
	ns := e.NodeStats()
	if len(ns) != 2 || ns[0].DRAMPages != 4 || ns[1].NVMPages != 4 {
		t.Fatalf("NodeStats = %+v", ns)
	}
}

// TestTableTopologyMap pins the shard-group-to-home-node mapping: the node
// ranges tile the shard space contiguously and agree with HomeNodeShard.
func TestTableTopologyMap(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 5} {
		tbl, err := NewTableNUMA(8, nodes)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for n := 0; n < nodes; n++ {
			lo, hi := tbl.NodeShards(n)
			if hi <= lo {
				t.Fatalf("nodes=%d: node %d owns empty shard range [%d,%d)", nodes, n, lo, hi)
			}
			for s := lo; s < hi; s++ {
				if got := tbl.HomeNodeShard(s); got != n {
					t.Fatalf("nodes=%d: shard %d homed on %d, range says %d", nodes, s, got, n)
				}
				covered++
			}
		}
		if covered != tbl.NumShards() {
			t.Fatalf("nodes=%d: ranges cover %d of %d shards", nodes, covered, tbl.NumShards())
		}
	}
	// Fewer shards than nodes: the table rounds the shard count up.
	tbl, err := NewTableNUMA(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumShards() < 4 {
		t.Fatalf("4-node table has %d shards", tbl.NumShards())
	}
}

// TestPromotionPrefersHomeNode is the deterministic locality contract:
// with room on the home node every promotion is local, and remote
// promotions appear only once the home pool is exhausted.
func TestPromotionPrefersHomeNode(t *testing.T) {
	build := func(node0DRAM, node1DRAM int) *Engine {
		t.Helper()
		e, err := New(Config{
			Policy: Proposed, DRAMPages: node0DRAM + node1DRAM, NVMPages: 64,
			Core:   smallCore(),
			Shards: 8,
			Topology: Topology{Nodes: []NodeConfig{
				{DRAMPages: node0DRAM, NVMPages: 32},
				{DRAMPages: node1DRAM, NVMPages: 32},
			}},
			ScanInterval: time.Hour, // manual scans only
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Plant hot NVM pages homed (and framed) on node 0, then scan.
	heatAndScan := func(e *Engine, pages []uint64) {
		t.Helper()
		for _, p := range pages {
			if !e.tbl.InsertNode(DefaultTenant, p, mm.LocNVM, 0) {
				t.Fatalf("page %d already resident", p)
			}
			e.nodes[0].nvmUsed.Add(1)
			for i := 0; i < 5; i++ {
				e.tbl.Touch(DefaultTenant, p, trace.OpWrite)
			}
		}
		if err := e.ScanOnce(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("ample-home", func(t *testing.T) {
		e := build(8, 8)
		defer e.Stop()
		heatAndScan(e, pagesHomedOn(t, e, 0, 4))
		ns := e.NodeStats()
		if ns[0].PromotionsLocal != 4 || ns[0].PromotionsRemote != 0 {
			t.Fatalf("node 0 promotions local/remote = %d/%d, want 4/0",
				ns[0].PromotionsLocal, ns[0].PromotionsRemote)
		}
		if st := e.Stats(); st.RemotePromotions != 0 || st.Promotions != 4 {
			t.Fatalf("stats %+v", st)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("exhausted-home", func(t *testing.T) {
		e := build(2, 16)
		defer e.Stop()
		heatAndScan(e, pagesHomedOn(t, e, 0, 6))
		ns := e.NodeStats()
		if ns[0].PromotionsLocal != 2 {
			t.Fatalf("node 0 local promotions = %d, want 2 (its whole pool)", ns[0].PromotionsLocal)
		}
		if ns[0].PromotionsRemote != 4 {
			t.Fatalf("node 0 remote promotions = %d, want 4 (home exhausted)", ns[0].PromotionsRemote)
		}
		if ns[0].ResidentDRAM != 2 || ns[1].ResidentDRAM != 4 {
			t.Fatalf("DRAM occupancy %d/%d, want 2/4", ns[0].ResidentDRAM, ns[1].ResidentDRAM)
		}
		if st := e.Stats(); st.RemotePromotions != 4 {
			t.Fatalf("stats remote promotions = %d, want 4", st.RemotePromotions)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTwoNodeServeScanStress is the NUMA -race gate: a two-node engine
// under concurrent serve traffic, scan storms and the ticker daemon, with
// node 0's DRAM pool deliberately tiny so cross-node placements happen
// continuously. Quiesced, the per-node pools must never exceed their
// capacity, every local/remote counter must reconcile with the totals,
// and the full per-node invariant suite must hold.
func TestTwoNodeServeScanStress(t *testing.T) {
	e, err := New(Config{
		Policy: Proposed, DRAMPages: 40, NVMPages: 256,
		Core:   smallCore(),
		Shards: 8,
		Topology: Topology{Nodes: []NodeConfig{
			{DRAMPages: 8, NVMPages: 128},
			{DRAMPages: 32, NVMPages: 128},
		}},
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
		opsEach    = 12000
		footprint  = 512 // ~1.7x memory: faults and evictions stay hot
	)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				op := trace.OpRead
				if rng.Intn(3) == 0 {
					op = trace.OpWrite
				}
				p := uint64(rng.Intn(footprint))
				if rng.Intn(2) == 0 {
					p = uint64(rng.Intn(footprint / 8))
				}
				if _, err := e.Serve(p*4096, op); err != nil {
					t.Error(err)
					return
				}
				if i%512 == 0 {
					_ = e.ScanOnce()
				}
			}
		}(int64(w) + 1)
	}
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
				_ = e.NodeStats()
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
	if st.Accesses != goroutines*opsEach {
		t.Fatalf("accesses = %d, want %d", st.Accesses, goroutines*opsEach)
	}
	nodes := e.NodeStats()
	var accesses, faults, promos, demos, remotePromos int64
	for _, ns := range nodes {
		if ns.ResidentDRAM > ns.DRAMPages || ns.ResidentNVM > ns.NVMPages {
			t.Fatalf("node %d occupancy %d/%d exceeds pools %d/%d",
				ns.ID, ns.ResidentDRAM, ns.ResidentNVM, ns.DRAMPages, ns.NVMPages)
		}
		// The table is the ground truth for where each frame sits.
		if d := int64(e.tbl.NodeResidents(ns.ID, mm.LocDRAM)); d != ns.ResidentDRAM {
			t.Fatalf("node %d table holds %d DRAM frames, pool says %d", ns.ID, d, ns.ResidentDRAM)
		}
		if n := int64(e.tbl.NodeResidents(ns.ID, mm.LocNVM)); n != ns.ResidentNVM {
			t.Fatalf("node %d table holds %d NVM frames, pool says %d", ns.ID, n, ns.ResidentNVM)
		}
		accesses += ns.Accesses
		faults += ns.FaultsLocal + ns.FaultsRemote
		promos += ns.PromotionsLocal + ns.PromotionsRemote
		demos += ns.DemotionsLocal + ns.DemotionsRemote
		remotePromos += ns.PromotionsRemote
	}
	if accesses != st.Accesses {
		t.Fatalf("per-node accesses total %d, engine served %d", accesses, st.Accesses)
	}
	if faults != st.Faults || promos != st.Promotions || demos != st.Demotions {
		t.Fatalf("per-node counters %d/%d/%d do not reconcile with totals %d/%d/%d",
			faults, promos, demos, st.Faults, st.Promotions, st.Demotions)
	}
	if remotePromos != st.RemotePromotions {
		t.Fatalf("remote promotions %d vs stats %d", remotePromos, st.RemotePromotions)
	}
	// Node 0's 8-frame pool under a ~45-frame hot set: the home pool is
	// exhausted essentially always, so both local and remote migrations
	// must have happened for the run to have exercised the topology.
	if st.Promotions == 0 || st.RemotePromotions == 0 {
		t.Fatalf("stress run too tame: %d promotions, %d remote", st.Promotions, st.RemotePromotions)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeAccessAttribution: on a multi-node engine every served access is
// attributed to its page's home node.
func TestNodeAccessAttribution(t *testing.T) {
	e, err := New(Config{
		DRAMPages: 16, NVMPages: 16, Shards: 4,
		Topology:     EvenTopology(2, 16, 16),
		ScanInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	n0 := pagesHomedOn(t, e, 0, 3)
	n1 := pagesHomedOn(t, e, 1, 2)
	for _, p := range n0 {
		for i := 0; i < 4; i++ {
			if _, err := e.Serve(p*4096, trace.OpRead); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range n1 {
		if _, err := e.Serve(p*4096, trace.OpWrite); err != nil {
			t.Fatal(err)
		}
	}
	ns := e.NodeStats()
	if ns[0].Accesses != 12 || ns[1].Accesses != 2 {
		t.Fatalf("node accesses = %d/%d, want 12/2", ns[0].Accesses, ns[1].Accesses)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTopologyCostModel pins the memspec-derived migration economics: a
// remote promotion costs more than a local one, so its break-even hit
// count is strictly higher, and both scale with the penalty.
func TestTopologyCostModel(t *testing.T) {
	spec := memspec.Default()
	topo := EvenTopology(2, 8, 8)
	topo = topo.withDefaults(8, 8)
	local := topo.PromotionCostNS(spec, false)
	remote := topo.PromotionCostNS(spec, true)
	if remote <= local {
		t.Fatalf("remote promotion cost %g not above local %g", remote, local)
	}
	if be, beR := BreakEvenHits(spec), topo.BreakEvenHitsRemote(spec); beR <= be {
		t.Fatalf("remote break-even %d not above local %d", beR, be)
	}
	steep := Topology{Nodes: topo.Nodes, RemotePenalty: 3}
	if steep.BreakEvenHitsRemote(spec) <= topo.BreakEvenHitsRemote(spec) {
		t.Fatal("break-even did not grow with the penalty")
	}
}
