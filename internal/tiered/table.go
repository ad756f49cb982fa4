// Package tiered is the online, concurrent tiered-memory engine: it serves
// line-sized accesses from many goroutines simultaneously while the paper's
// migration policy runs continuously in the background.
//
// The package decouples the access fast path from migration decisions, the
// way MigrantStore (Sohail et al.) argues an online hybrid memory must: a
// hit is entirely lock-free — an atomic snapshot load, an open-addressing
// probe and two atomic counter updates, with no shared mutex word written —
// and all page movement happens either on the (rare, disk-bound) fault path
// or in a background daemon that drains a batched promotion queue fed by
// per-shard hotness scans. The single-threaded reference simulator remains
// the semantic oracle: VerifyAgainstSim replays a trace through the
// simulator's policy code, applies each of its moves to an unstarted
// Engine's table, pools and counters, and asserts count-exact equivalence
// with the simulator's own run.
//
// The keyspace is multi-tenant: every page belongs to a TenantID whose
// namespace is folded into the table key, each tenant has a DRAM quota
// (plus a shared spill pool) and its own policy state, and the daemon
// apportions its promotion budget across tenants by priority-weighted
// round-robin so one hot tenant cannot monopolize the migration queue.
//
// Memory is organized as a topology of NUMA domains: shard groups map to
// home nodes, each node owns CAS-exact DRAM/NVM frame pools, placement
// prefers the home node (going remote only when the home node cannot
// hand the tenant a frame — pool full, or node share spent with the
// spill pool dry; counted per node), and the daemon runs one
// scan/promotion pipeline per node. A single-tenant, single-node engine
// is bit-compatible
// with the original flat engine, which keeps the sim-equivalence gate
// count-exact.
package tiered

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"hybridmem/internal/mm"
	"hybridmem/internal/trace"
)

// maxShards bounds the shard count to something a laptop can allocate.
const maxShards = 1 << 16

// minSlots is the smallest bucket array a shard starts with.
const minSlots = 16

// entry is one resident page's online metadata. Entries are shared by
// pointer between successive bucket arrays of a shard, so a state change
// (move, removal) is visible even to a reader probing a snapshot taken
// before the array was rebuilt. The struct is padded to a full cache line:
// two hot pages' counters never share one.
type entry struct {
	// key is the namespaced tenant+page key, immutable after the entry is
	// published into a slot.
	key    uint64
	reads  atomic.Uint64
	writes atomic.Uint64
	ref    atomic.Uint32
	// state holds the page's mm.Location. LocDisk (the zero value, never a
	// resident location) marks the entry removed: stale-snapshot readers
	// that still reach the entry treat it as a miss.
	state atomic.Uint32
	// node is the NUMA node whose pool holds the page's current frame
	// (written under the shard mutex together with state; read lock-free).
	// It can differ from the page's home node when the home pool was full
	// at placement time.
	node atomic.Uint32
	_    [28]byte
}

// tombstone marks a vacated slot. Probes skip it and keep going (the key
// they want may live further down the chain); inserts may reuse the slot.
// It is recognized by pointer identity — its key field (zero) must never be
// compared, because 0 is a valid table key (tenant 0, page 0).
var tombstone = new(entry)

// buckets is one published open-addressing array. The slot pointers are the
// only mutable parts: readers load them atomically and probe linearly;
// writers (serialized by the shard mutex) fill empty slots, tombstone
// removed ones, and publish a whole new array when the load factor demands.
type buckets struct {
	slots []atomic.Pointer[entry]
	mask  uint64
}

func newBuckets(n int) *buckets {
	return &buckets{slots: make([]atomic.Pointer[entry], n), mask: uint64(n - 1)}
}

// find probes for key, returning the entry and its slot when resident. When
// absent, insertAt is the first reusable slot (a tombstone on the probe
// path, else the terminating empty slot); -1 means the array has no room on
// this chain and must be rebuilt. Callers that mutate must hold the shard
// mutex; the loads are atomic so concurrent lock-free readers are safe.
func (b *buckets) find(key, h uint64) (e *entry, slot, insertAt int) {
	free := -1
	for i := uint64(0); i <= b.mask; i++ {
		idx := int((h + i) & b.mask)
		p := b.slots[idx].Load()
		if p == nil {
			if free < 0 {
				free = idx
			}
			return nil, -1, free
		}
		if p == tombstone {
			if free < 0 {
				free = idx
			}
			continue
		}
		if p.key == key {
			return p, idx, -1
		}
	}
	return nil, -1, free
}

// shard is one write-serialization domain of the table. Readers never take
// the mutex: they load the published bucket array and probe it. The struct
// is padded so adjacent shards' mutexes and pointers sit on separate cache
// lines.
type shard struct {
	mu sync.Mutex
	b  atomic.Pointer[buckets]
	// live and dead count resident entries and tombstones in the current
	// array (writer-guarded); their sum drives the rebuild threshold.
	live int
	dead int
	// gen counts residency mutations (insert/move/remove), bumped as the
	// last step of each successful one. The incremental checkpointer reads
	// it before scanning: an unchanged gen means the shard's residency is
	// exactly what the last cut persisted, so the scan can be skipped.
	// Counter-only traffic (the serve path) never touches it.
	gen atomic.Uint64
	_   [80]byte
}

// grow rebuilds the shard's bucket array sized for the live population,
// copying live entry pointers (counters travel with the entry, so no access
// history is lost) and dropping tombstones, then publishes it. Returns the
// new array. Caller holds the shard mutex.
func (s *shard) grow() *buckets {
	n := minSlots
	for n < (s.live+1)*2 {
		n <<= 1
	}
	nb := newBuckets(n)
	old := s.b.Load()
	for i := range old.slots {
		e := old.slots[i].Load()
		if e == nil || e == tombstone {
			continue
		}
		h := mix(e.key)
		for j := uint64(0); ; j++ {
			idx := int((h + j) & nb.mask)
			if nb.slots[idx].Load() == nil {
				nb.slots[idx].Store(e)
				break
			}
		}
	}
	s.dead = 0
	s.b.Store(nb)
	return nb
}

// Table is a sharded concurrent page table with a lock-free read path: the
// online replacement for the single-threaded mm residence map. Namespaced
// pages hash onto power-of-two shards; each shard publishes an immutable-
// shape open-addressing array via an atomic pointer (the RCU-style snapshot
// pattern), so Touch and Peek never block — they probe the snapshot with
// atomic loads and bump the entry's counters in place. Writers (insert,
// move, remove, rebuild) serialize on a per-shard mutex that readers never
// touch.
type Table struct {
	shards []shard
	shift  uint
	// nodes is the NUMA node count the shard space is tiled over:
	// contiguous shard groups map to home nodes (shard s belongs to node
	// s*nodes/len(shards)), so the splitmix64 shard selector doubles as
	// the topology map and one node's pages spread over its own shard
	// range exactly as the flat table spread them over all shards.
	nodes int
	// cursor is the CLOCK hand for victim selection, in shard granularity,
	// padded onto its own line so demotion-path contention on it never
	// dirties the shard metadata.
	cursor atomic.Uint64
	_      [56]byte
}

// mix is the splitmix64 finalizer: the table's hash. Its high bits pick the
// shard and its low bits the probe start, so sequential page numbers spread
// across shards and within each bucket array (and one tenant's pages spread
// the same way as every other's).
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return k
}

// NewTable returns a single-node table with shardCount shards, rounded up
// to the next power of two. shardCount 1 is the single-shard baseline the
// benchmarks compare against.
func NewTable(shardCount int) (*Table, error) {
	return NewTableNUMA(shardCount, 1)
}

// NewTableNUMA returns a table whose shard space is tiled over the given
// number of NUMA home nodes. The shard count is rounded up to a power of
// two and raised to at least the node count, so every node owns at least
// one shard.
func NewTableNUMA(shardCount, nodes int) (*Table, error) {
	if shardCount < 1 || shardCount > maxShards {
		return nil, fmt.Errorf("tiered: shard count %d outside [1,%d]", shardCount, maxShards)
	}
	if nodes < 1 || nodes > maxNodes {
		return nil, fmt.Errorf("tiered: node count %d outside [1,%d]", nodes, maxNodes)
	}
	if shardCount < nodes {
		shardCount = nodes
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	t := &Table{
		shards: make([]shard, n),
		shift:  uint(64 - bits.Len(uint(n-1))),
		nodes:  nodes,
	}
	for i := range t.shards {
		t.shards[i].b.Store(newBuckets(minSlots))
	}
	return t, nil
}

// NumShards returns the (power-of-two) shard count.
func (t *Table) NumShards() int { return len(t.shards) }

// ShardGen returns shard i's residency-mutation generation. Read it
// before ScanShard: if a later read returns the same value, the scan saw
// every residency change (mutations publish before bumping, so a bump
// racing the scan only makes the next comparison conservatively rescan).
func (t *Table) ShardGen(i int) uint64 { return t.shards[i].gen.Load() }

// NumNodes returns the NUMA node count the shard space is tiled over.
func (t *Table) NumNodes() int { return t.nodes }

// HomeNodeShard returns the home node owning shard s: contiguous shard
// groups, node n owning shards [ceil(n*S/N), ceil((n+1)*S/N)).
func (t *Table) HomeNodeShard(s int) int { return s * t.nodes / len(t.shards) }

// NodeShards returns the half-open shard range [lo, hi) homed on node n.
func (t *Table) NodeShards(n int) (lo, hi int) {
	s := len(t.shards)
	return (n*s + t.nodes - 1) / t.nodes, ((n+1)*s + t.nodes - 1) / t.nodes
}

// HomeNodeKey returns the home node of a table key: the node owning the
// shard the key hashes to.
func (t *Table) HomeNodeKey(key uint64) int {
	return t.HomeNodeHash(mix(key))
}

// HomeNodeHash is HomeNodeKey for a pre-computed key hash: the serve path
// hashes each key once and reuses it for the probe and the home lookup.
func (t *Table) HomeNodeHash(h uint64) int {
	return t.HomeNodeShard(int(h >> t.shift))
}

// HomeNode returns the home node of a tenant's page.
func (t *Table) HomeNode(tenant TenantID, page uint64) int {
	return t.HomeNodeKey(tableKey(tenant, page))
}

// shardFor returns the owning shard and the key's hash.
func (t *Table) shardFor(key uint64) (*shard, uint64) {
	h := mix(key)
	return &t.shards[h>>t.shift], h
}

// lookup probes the owning shard's published snapshot for key, lock-free.
// It returns the entry whether live or freshly removed; callers check the
// state. A nil return means the key is absent from the snapshot — possibly
// a stale miss during a concurrent insert, which callers resolve on the
// fault path under the writer mutex.
func (t *Table) lookup(key uint64) *entry {
	return t.lookupHash(key, mix(key))
}

// lookupHash is lookup with the key's hash supplied by the caller.
func (t *Table) lookupHash(key, h uint64) *entry {
	s := &t.shards[h>>t.shift]
	slots := s.b.Load().slots
	// Indexing with &(len-1) lets the compiler prove the access in bounds:
	// no bounds check in the probe loop.
	mask := uint64(len(slots) - 1)
	for i := uint64(0); i <= mask; i++ {
		e := slots[(h+i)&mask].Load()
		if e == nil {
			return nil
		}
		if e.key == key && e != tombstone {
			return e
		}
	}
	return nil
}

// Touch services a hit: it looks the tenant's page up and, when resident,
// records one access of the given kind in the page's windowed counters and
// sets its CLOCK reference bit. The whole operation is lock-free — no
// mutex word is written, only the page's own cache line — and this is the
// engine's hot path. The counters are observed by ScanShard.
func (t *Table) Touch(tenant TenantID, page uint64, op trace.Op) (mm.Location, bool) {
	return t.TouchKey(tableKey(tenant, page), op)
}

// TouchKey is Touch for a pre-computed table key: the engine folds the
// tenant in once and reuses the key for counter striping.
func (t *Table) TouchKey(key uint64, op trace.Op) (mm.Location, bool) {
	return t.TouchHash(key, mix(key), op)
}

// TouchHash is TouchKey with the key's hash supplied by the caller: the
// engine hashes each access once and reuses it for the probe and the
// home-node lookup, so the hot path never mixes twice.
func (t *Table) TouchHash(key, h uint64, op trace.Op) (mm.Location, bool) {
	e := t.lookupHash(key, h)
	if e == nil {
		return 0, false
	}
	loc := mm.Location(e.state.Load())
	if !loc.IsMemory() {
		return 0, false
	}
	if op == trace.OpWrite {
		e.writes.Add(1)
	} else {
		e.reads.Add(1)
	}
	// Check-then-set: re-arming an already-set bit would bounce the cache
	// line exclusive on every hit.
	if e.ref.Load() == 0 {
		e.ref.Store(1)
	}
	return loc, true
}

// Peek returns a tenant's page location without recording an access.
// Lock-free, like Touch.
func (t *Table) Peek(tenant TenantID, page uint64) (mm.Location, bool) {
	e := t.lookup(tableKey(tenant, page))
	if e == nil {
		return 0, false
	}
	loc := mm.Location(e.state.Load())
	return loc, loc.IsMemory()
}

// Insert adds a non-resident page at loc on its home node, with fresh
// counters and the reference bit set. It reports false (and changes
// nothing) if the page is already resident — two goroutines faulting on
// the same page race here and exactly one wins.
func (t *Table) Insert(tenant TenantID, page uint64, loc mm.Location) bool {
	return t.InsertNode(tenant, page, loc, t.HomeNode(tenant, page))
}

// InsertNode is Insert with the frame's node chosen by the caller: the
// engine reserves a frame from a specific node's pool (home preferred,
// remote when the home pool is full) and records which pool holds it.
func (t *Table) InsertNode(tenant TenantID, page uint64, loc mm.Location, node int) bool {
	key := tableKey(tenant, page)
	s, h := t.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.b.Load()
	e, _, at := b.find(key, h)
	if e != nil {
		return false
	}
	// Rebuild before the array gets past 3/4 full (tombstones included), so
	// probes stay short and always terminate at an empty slot.
	if at < 0 || (s.live+s.dead+1)*4 > len(b.slots)*3 {
		b = s.grow()
		_, _, at = b.find(key, h)
	}
	ne := &entry{key: key}
	ne.ref.Store(1)
	ne.state.Store(uint32(loc))
	ne.node.Store(uint32(node))
	if b.slots[at].Load() == tombstone {
		s.dead--
	}
	// Publishing the pointer is the release: a reader that loads the slot
	// sees the fully initialized entry.
	b.slots[at].Store(ne)
	s.live++
	s.gen.Add(1)
	return true
}

// MoveIf relocates a resident page from one zone to the other on the same
// node, but only if it is still where the caller believes: migration
// decisions are made from scans that may be stale by the time they apply.
// The move resets the page's counters (it must re-earn hotness in its new
// zone, mirroring the fresh-counter MRU insertion of the reference policy)
// and re-arms the reference bit. Reports whether the move happened.
func (t *Table) MoveIf(tenant TenantID, page uint64, from, to mm.Location) bool {
	_, ok := t.MoveIfNode(tenant, page, from, to, -1)
	return ok
}

// MoveIfNode is MoveIf with the destination frame's node chosen by the
// caller (-1 keeps the page on its current node). It returns the node the
// page's old frame was on — read under the shard mutex, so the caller can
// release exactly that pool — and whether the move happened.
func (t *Table) MoveIfNode(tenant TenantID, page uint64, from, to mm.Location, toNode int) (fromNode int, ok bool) {
	key := tableKey(tenant, page)
	s, h := t.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, _, _ := s.b.Load().find(key, h)
	if e == nil || mm.Location(e.state.Load()) != from {
		return 0, false
	}
	fromNode = int(e.node.Load())
	e.reads.Store(0)
	e.writes.Store(0)
	e.ref.Store(1)
	if toNode >= 0 {
		e.node.Store(uint32(toNode))
	}
	e.state.Store(uint32(to))
	s.gen.Add(1)
	return fromNode, true
}

// RemoveIf evicts a resident page, but only if it is still in the zone the
// caller observed. Reports whether the removal happened.
func (t *Table) RemoveIf(tenant TenantID, page uint64, from mm.Location) bool {
	_, ok := t.RemoveIfNode(tenant, page, from)
	return ok
}

// RemoveIfNode is RemoveIf, additionally returning the node whose pool
// held the evicted frame (read under the shard mutex, authoritative even
// if the page migrated between the caller's observation and now). The
// entry is marked dead before its slot is tombstoned, so a reader probing
// an older snapshot of the shard (which still references the entry) also
// observes the removal.
func (t *Table) RemoveIfNode(tenant TenantID, page uint64, from mm.Location) (node int, ok bool) {
	key := tableKey(tenant, page)
	s, h := t.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.b.Load()
	e, slot, _ := b.find(key, h)
	if e == nil || mm.Location(e.state.Load()) != from {
		return 0, false
	}
	node = int(e.node.Load())
	e.state.Store(uint32(mm.LocDisk))
	b.slots[slot].Store(tombstone)
	s.live--
	s.dead++
	s.gen.Add(1)
	return node, true
}

// Len returns the total number of resident pages across all tenants. Taken
// lock-free over the published snapshots: exact when quiesced, a consistent
// approximation under concurrent churn.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		b := t.shards[i].b.Load()
		for j := range b.slots {
			if e := b.slots[j].Load(); e != nil && e != tombstone &&
				mm.Location(e.state.Load()).IsMemory() {
				n++
			}
		}
	}
	return n
}

// Residents counts the pages resident in one zone across all tenants.
func (t *Table) Residents(loc mm.Location) int {
	n := 0
	for i := range t.shards {
		b := t.shards[i].b.Load()
		for j := range b.slots {
			if e := b.slots[j].Load(); e != nil && e != tombstone &&
				mm.Location(e.state.Load()) == loc {
				n++
			}
		}
	}
	return n
}

// TenantResidents counts one tenant's pages resident in one zone — the
// table-side ground truth the engine's per-tenant occupancy counters are
// checked against.
func (t *Table) TenantResidents(tenant TenantID, loc mm.Location) int {
	n := 0
	for i := range t.shards {
		b := t.shards[i].b.Load()
		for j := range b.slots {
			e := b.slots[j].Load()
			if e == nil || e == tombstone || mm.Location(e.state.Load()) != loc {
				continue
			}
			if kt, _ := splitKey(e.key); kt == tenant {
				n++
			}
		}
	}
	return n
}

// NodeResidents counts the pages whose frame sits in one node's pool of
// the given zone — the table-side ground truth the engine's per-node
// occupancy pools are checked against.
func (t *Table) NodeResidents(node int, loc mm.Location) int {
	n := 0
	for i := range t.shards {
		b := t.shards[i].b.Load()
		for j := range b.slots {
			e := b.slots[j].Load()
			if e == nil || e == tombstone || mm.Location(e.state.Load()) != loc {
				continue
			}
			if int(e.node.Load()) == node {
				n++
			}
		}
	}
	return n
}

// SeedCounters overwrites a resident page's windowed counters. It exists
// for checkpoint restore: a page re-inserted at startup carries the
// hotness the checkpoint recorded, so the first scan epochs after a
// restart see pre-crash heat instead of a blank window. Lock-free (the
// counters are the entry's own atomics); a no-op when the page is not
// resident.
func (t *Table) SeedCounters(tenant TenantID, page uint64, reads, writes uint64) {
	e := t.lookup(tableKey(tenant, page))
	if e == nil || !mm.Location(e.state.Load()).IsMemory() {
		return
	}
	e.reads.Store(reads)
	e.writes.Store(writes)
}

// ScanShard visits every page of shard i, reporting each page's tenant,
// page number, location, frame node and windowed counters. With reset, the
// counters are atomically swapped to zero as they are read: successive
// scans then see per-epoch windowed counts, the online approximation of
// the paper's LRU windows, and every concurrent Touch lands in exactly one
// window. The scan walks the published snapshot without taking any lock,
// so it never stalls the serve or migration paths; a page moved or removed
// mid-scan may be reported with a mix of old and new state, which is fine
// for an advisory hotness sweep (the daemon re-verifies locations at apply
// time).
func (t *Table) ScanShard(i int, reset bool, fn func(tenant TenantID, page uint64, loc mm.Location, node int, reads, writes uint64)) {
	b := t.shards[i].b.Load()
	for j := range b.slots {
		e := b.slots[j].Load()
		if e == nil || e == tombstone {
			continue
		}
		loc := mm.Location(e.state.Load())
		if !loc.IsMemory() {
			continue
		}
		var r, w uint64
		if reset {
			r, w = e.reads.Swap(0), e.writes.Swap(0)
		} else {
			r, w = e.reads.Load(), e.writes.Load()
		}
		tenant, page := splitKey(e.key)
		fn(tenant, page, loc, int(e.node.Load()), r, w)
	}
}

// ClockVictim picks an eviction/demotion victim from the given zone with a
// second-chance sweep over every node's frames.
func (t *Table) ClockVictim(loc mm.Location, tenant TenantID, tenantOnly bool) (TenantID, uint64, bool) {
	kt, page, _, ok := t.ClockVictimNode(loc, -1, tenant, tenantOnly)
	return kt, page, ok
}

// ClockVictimNode picks an eviction/demotion victim from the given zone
// with a second-chance sweep: referenced pages get their bit cleared and
// are passed over; the first page found with a clear bit is the victim.
// With node >= 0, only pages whose frame sits in that node's pool are
// considered — the per-node capacity-enforcement case, where freeing a
// specific pool is the point. With tenantOnly, only the given tenant's
// pages are considered (and only their reference bits touched) — the
// quota-enforcement case, where an over-budget tenant must demote one of
// its own pages. The hand advances in shard granularity and each shard is
// swept in slot order over its published snapshot, lock-free. A final lap
// accepts any qualifying resident page, so the call only fails when the
// zone (or the requested slice of it) is empty. The returned frameNode is
// the node observed holding the victim's frame — a placement hint for the
// caller (the frame may migrate before the caller acts; the MoveIf/
// RemoveIf node returns stay authoritative).
func (t *Table) ClockVictimNode(loc mm.Location, node int, tenant TenantID, tenantOnly bool) (_ TenantID, page uint64, frameNode int, ok bool) {
	n := uint64(len(t.shards))
	for lap := 0; lap < 3; lap++ {
		ignoreRef := lap == 2
		for k := uint64(0); k < n; k++ {
			b := t.shards[(t.cursor.Add(1)-1)%n].b.Load()
			for j := range b.slots {
				e := b.slots[j].Load()
				if e == nil || e == tombstone || mm.Location(e.state.Load()) != loc {
					continue
				}
				if node >= 0 && int(e.node.Load()) != node {
					continue
				}
				kt, page := splitKey(e.key)
				if tenantOnly && kt != tenant {
					continue
				}
				if !ignoreRef && e.ref.Load() != 0 {
					e.ref.Store(0)
					continue
				}
				return kt, page, int(e.node.Load()), true
			}
		}
	}
	return 0, 0, 0, false
}
