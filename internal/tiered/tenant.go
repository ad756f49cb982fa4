package tiered

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TenantID names one tenant of a multi-tenant engine. Tenants are
// namespaces over the page keyspace: the same page number under two
// tenants is two distinct pages, so consolidated workloads cannot trample
// each other's windowed counters or CLOCK reference bits. The ID is folded
// into the high bits of every table key.
type TenantID uint16

// DefaultTenant is the tenant a single-tenant engine serves. Serve (as
// opposed to ServeTenant) always addresses it, and with only the default
// tenant configured the engine behaves exactly like the pre-tenant,
// single-namespace engine.
const DefaultTenant TenantID = 0

const (
	// pageBits is the page-number width of a table key; the 16 bits above
	// hold the TenantID. Page numbers must fit: with 4 KiB pages that is a
	// 1 EiB per-tenant address space.
	pageBits = 48
	// maxTablePage is the largest page number a key can carry.
	maxTablePage = uint64(1)<<pageBits - 1
)

// tableKey folds a tenant and a page number into one namespaced key.
// Tenant 0 maps page to itself, so single-tenant keys are bit-identical to
// the pre-tenant table's.
func tableKey(t TenantID, page uint64) uint64 {
	return uint64(t)<<pageBits | page
}

// splitKey recovers the tenant and page number from a table key.
func splitKey(k uint64) (TenantID, uint64) {
	return TenantID(k >> pageBits), k & maxTablePage
}

// TenantConfig describes one tenant of an engine.
type TenantConfig struct {
	// ID is the tenant's namespace; IDs must be unique within an engine.
	ID TenantID
	// Name labels the tenant in reports. Empty defaults to "tenant-<ID>".
	Name string
	// DRAMQuota is the tenant's dedicated DRAM frame budget. DRAM frames
	// covered by no quota form the shared spill pool: a tenant's DRAM
	// residency may grow to DRAMQuota + spill, never beyond. Frames above
	// the quota are borrowed from the pool one token at a time, so the
	// tenants' collective borrowing never exceeds the pool either — a
	// tenant that stays within its quota always gets a frame without
	// waiting on (or demoting) anyone else.
	//
	// On a multi-node topology the quota is apportioned across nodes in
	// proportion to each node's share of DRAM: the tenant's dedicated
	// frames on node n are DRAMQuota * nodeDRAM(n)/totalDRAM (remainders
	// to earlier nodes), and a frame above the node share borrows a spill
	// token — the spill pool is borrowable cross-node. On a single node
	// this reduces exactly to the flat quota.
	DRAMQuota int
	// Priority weights the tenant's share of the daemon's promotion
	// budget: the scan interleaves candidates Priority-per-round instead
	// of one-per-round, so a priority-2 tenant gets twice the migration
	// bandwidth of a priority-1 neighbor when both have more candidates
	// than the budget. 0 defaults to 1 (the equal-share round-robin);
	// negative is rejected.
	Priority int
}

// TenantStats is a snapshot of one tenant's counters: the per-tenant view
// of the engine-wide Stats. The Resident and quota fields are levels, the
// rest are cumulative event counts.
type TenantStats struct {
	ID   TenantID
	Name string

	Accesses           int64
	HitsDRAM, HitsNVM  int64
	Faults             int64
	Promotions         int64
	Demotions          int64
	Evictions          int64
	ResidentDRAM       int64
	DRAMQuota, DRAMCap int64
	// Priority is the tenant's promotion-interleave weight.
	Priority int
	// NodeQuota and NodeResidentDRAM are the per-node apportionment of
	// DRAMQuota and the tenant's current DRAM residency on each node, in
	// node order (a single-node engine reports one-element slices equal to
	// DRAMQuota and ResidentDRAM).
	NodeQuota        []int64
	NodeResidentDRAM []int64
}

// Hits returns the tenant's non-faulting accesses.
func (s TenantStats) Hits() int64 { return s.HitsDRAM + s.HitsNVM }

// Sub returns the event-count deltas since prev. Levels (residency and the
// quota geometry) are carried over unchanged.
func (s TenantStats) Sub(prev TenantStats) TenantStats {
	d := s
	d.Accesses -= prev.Accesses
	d.HitsDRAM -= prev.HitsDRAM
	d.HitsNVM -= prev.HitsNVM
	d.Faults -= prev.Faults
	d.Promotions -= prev.Promotions
	d.Demotions -= prev.Demotions
	d.Evictions -= prev.Evictions
	return d
}

// tenantCell is one stripe of a tenant's per-access counters. Serves
// within the same stripe share the line; stripes are padded apart so cores
// serving different pages never contend on tenant accounting.
type tenantCell struct {
	accesses atomic.Int64
	hitsDRAM atomic.Int64
	hitsNVM  atomic.Int64
	_        [104]byte
}

// tenantCounters is one tenant's rare-path atomic tally block. Each field
// sits alone on a cache line (padCounter) so a burst of faults on one
// tenant does not invalidate its neighbors' lines; the per-access counters
// live in the striped cells instead.
type tenantCounters struct {
	faults     padCounter
	promotions padCounter
	demotions  padCounter
	evictions  padCounter
}

// tenantState is the engine's per-tenant bookkeeping: the DRAM quota
// geometry and occupancy, the tenant's own policy instance (so adaptive
// threshold tuning is independent per tenant), and the counters the scan
// epochs and reports read.
type tenantState struct {
	id TenantID
	// idx is the tenant's position in the engine's ID-sorted tenant list —
	// the index the per-node scan scratch is addressed by.
	idx   int
	name  string
	quota int64
	// cap is quota + spill: the hard bound on the tenant's DRAM residency.
	cap int64
	// priority is the tenant's promotion-interleave weight (>= 1).
	priority int
	// pol is the tenant's migration-decision plug.
	pol OnlinePolicy

	// nodeQuota apportions the tenant's DRAM quota across nodes in
	// proportion to each node's DRAM share; it sums to quota. Immutable
	// after New.
	nodeQuota []int64

	// resMu serializes the tenant's DRAM reservations and releases so the
	// quota-vs-borrowed classification of each frame is exact (frames
	// above a node share hold spill tokens). Only the fault and migration
	// paths take it; hits never reserve.
	resMu    sync.Mutex
	_        [48]byte
	dramUsed atomic.Int64
	_        [56]byte
	// nodeUsed is the tenant's DRAM residency per node (summing to
	// dramUsed). Mutated only under resMu; atomic so reports and the
	// victim-targeting paths read it lock-free.
	nodeUsed []atomic.Int64
	// cells stripes the tenant's per-access counters; the engine indexes
	// them by the same key-derived stripe as its own serve cells and
	// serveTotals sums them lazily for reports.
	cells []tenantCell
	c     tenantCounters
	// lastEpoch is the previous scan epoch's cumulative counters, guarded
	// by the engine's scanMu.
	lastEpoch EpochStats
}

// overageNode returns a node where the tenant currently holds more DRAM
// frames than its apportioned share (and therefore holds spill tokens),
// or -1. Read lock-free: the demotion paths only use it for victim
// targeting and retry on staleness.
func (ts *tenantState) overageNode() int {
	for n := range ts.nodeUsed {
		if ts.nodeUsed[n].Load() > ts.nodeQuota[n] {
			return n
		}
	}
	return -1
}

// serveTotals sums the tenant's striped per-access counters.
func (ts *tenantState) serveTotals() (accesses, hitsDRAM, hitsNVM int64) {
	for i := range ts.cells {
		c := &ts.cells[i]
		accesses += c.accesses.Load()
		hitsDRAM += c.hitsDRAM.Load()
		hitsNVM += c.hitsNVM.Load()
	}
	return accesses, hitsDRAM, hitsNVM
}

// validateTenants checks a tenant set against the DRAM capacity and
// returns the shared spill pool size.
func validateTenants(tenants []TenantConfig, dramPages int) (spill int64, err error) {
	if len(tenants) == 0 {
		return 0, fmt.Errorf("tiered: engine needs at least one tenant")
	}
	seen := make(map[TenantID]bool, len(tenants))
	sum := 0
	for _, tc := range tenants {
		if seen[tc.ID] {
			return 0, fmt.Errorf("tiered: duplicate tenant ID %d", tc.ID)
		}
		seen[tc.ID] = true
		if tc.DRAMQuota < 0 {
			return 0, fmt.Errorf("tiered: tenant %d has negative DRAM quota %d", tc.ID, tc.DRAMQuota)
		}
		if tc.Priority < 0 {
			return 0, fmt.Errorf("tiered: tenant %d has negative priority %d", tc.ID, tc.Priority)
		}
		sum += tc.DRAMQuota
	}
	if sum > dramPages {
		return 0, fmt.Errorf("tiered: tenant DRAM quotas total %d frames, capacity is %d", sum, dramPages)
	}
	spill = int64(dramPages - sum)
	for _, tc := range tenants {
		if int64(tc.DRAMQuota)+spill < 1 {
			return 0, fmt.Errorf("tiered: tenant %d can never hold a DRAM frame (quota %d, spill %d)",
				tc.ID, tc.DRAMQuota, spill)
		}
	}
	return spill, nil
}

// apportionQuotas splits every tenant's DRAM quota across nodes. Each
// tenant's shares are proportional to the nodes' DRAM sizes and sum to
// its quota, and — the guarantee that keeps a quota a guarantee — the
// tenants' shares on any one node never exceed that node's pool:
// fractional remainders are placed only where headroom is left, not
// blindly on the earliest nodes, so a node can always physically honor
// every share it backs. (The floor shares alone can never oversubscribe
// a node, because the quotas sum to at most the DRAM total; only the
// remainders need steering.) With one node each quota lands whole,
// reproducing the flat accounting exactly. Rows align with quotas.
func apportionQuotas(quotas []int64, nodes []NodeConfig, dramTotal int64) [][]int64 {
	headroom := make([]int64, len(nodes))
	for n, nc := range nodes {
		headroom[n] = int64(nc.DRAMPages)
	}
	out := make([][]int64, len(quotas))
	rem := make([]int64, len(quotas))
	// First pass: every tenant's proportional floor shares. Floors alone
	// can never oversubscribe a node — summed over tenants they stay
	// within the node's proportional slice — so headroom stays >= 0, and
	// only then are any remainders placed. (Interleaving remainder
	// placement with floor subtraction would let an early remainder
	// consume headroom a later tenant's floor still needs.)
	for t, quota := range quotas {
		shares := make([]int64, len(nodes))
		var given int64
		for n, nc := range nodes {
			shares[n] = quota * int64(nc.DRAMPages) / dramTotal
			given += shares[n]
			headroom[n] -= shares[n]
		}
		out[t] = shares
		rem[t] = quota - given
	}
	// Second pass: the fractional remainders go wherever headroom is
	// left. Total headroom covers total remainders (the quotas sum to at
	// most the DRAM total), so every remainder finds a node.
	for t := range out {
		for n := 0; rem[t] > 0; n = (n + 1) % len(nodes) {
			if headroom[n] > 0 {
				out[t][n]++
				headroom[n]--
				rem[t]--
			}
		}
	}
	return out
}
