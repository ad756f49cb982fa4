package tiered

import (
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hybridmem/internal/mm"
	"hybridmem/internal/trace"
)

// otherLoc flips a memory zone.
func otherLoc(l mm.Location) mm.Location {
	if l == mm.LocDRAM {
		return mm.LocNVM
	}
	return mm.LocDRAM
}

func TestTableShardCountRoundsUp(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {100, 128},
	}
	for _, c := range cases {
		tbl, err := NewTable(c.in)
		if err != nil {
			t.Fatalf("NewTable(%d): %v", c.in, err)
		}
		if got := tbl.NumShards(); got != c.want {
			t.Errorf("NewTable(%d).NumShards() = %d, want %d", c.in, got, c.want)
		}
	}
	if _, err := NewTable(0); err == nil {
		t.Error("NewTable(0) should fail")
	}
	if _, err := NewTable(maxShards + 1); err == nil {
		t.Error("NewTable(maxShards+1) should fail")
	}
}

func TestTableKeyRoundTrip(t *testing.T) {
	cases := []struct {
		tenant TenantID
		page   uint64
	}{
		{DefaultTenant, 0}, {DefaultTenant, 42}, {1, 42}, {65535, maxTablePage},
	}
	for _, c := range cases {
		gotT, gotP := splitKey(tableKey(c.tenant, c.page))
		if gotT != c.tenant || gotP != c.page {
			t.Errorf("splitKey(tableKey(%d, %d)) = %d, %d", c.tenant, c.page, gotT, gotP)
		}
	}
	// Tenant 0 keys are bit-identical to raw page numbers: the
	// single-tenant table is the pre-tenant table.
	if tableKey(DefaultTenant, 12345) != 12345 {
		t.Errorf("default-tenant key %d != page 12345", tableKey(DefaultTenant, 12345))
	}
}

// pageCounters reads a page's windowed counters via a non-resetting scan.
func pageCounters(tbl *Table, tenant TenantID, page uint64) (reads, writes uint64) {
	for i := 0; i < tbl.NumShards(); i++ {
		tbl.ScanShard(i, false, func(kt TenantID, p uint64, _ mm.Location, _ int, r, w uint64) {
			if kt == tenant && p == page {
				reads, writes = r, w
			}
		})
	}
	return reads, writes
}

func TestTableBasics(t *testing.T) {
	for _, shards := range []int{1, 8} {
		tbl, err := NewTable(shards)
		if err != nil {
			t.Fatal(err)
		}

		if _, ok := tbl.Touch(DefaultTenant, 42, trace.OpRead); ok {
			t.Fatal("Touch on empty table reported a hit")
		}
		if !tbl.Insert(DefaultTenant, 42, mm.LocNVM) {
			t.Fatal("Insert of new page failed")
		}
		if tbl.Insert(DefaultTenant, 42, mm.LocDRAM) {
			t.Fatal("double Insert succeeded")
		}
		if loc, ok := tbl.Peek(DefaultTenant, 42); !ok || loc != mm.LocNVM {
			t.Fatalf("Peek(42) = %v, %v; want NVM, true", loc, ok)
		}

		// Counters accumulate per access kind.
		for i := 1; i <= 3; i++ {
			loc, ok := tbl.Touch(DefaultTenant, 42, trace.OpRead)
			if !ok || loc != mm.LocNVM {
				t.Fatalf("read %d: got loc=%v ok=%v", i, loc, ok)
			}
		}
		tbl.Touch(DefaultTenant, 42, trace.OpWrite)
		if r, w := pageCounters(tbl, DefaultTenant, 42); r != 3 || w != 1 {
			t.Fatalf("counters r=%d w=%d, want 3/1", r, w)
		}

		// A move flips the location and resets the counters.
		if tbl.MoveIf(DefaultTenant, 42, mm.LocDRAM, mm.LocNVM) {
			t.Fatal("MoveIf with wrong from-zone succeeded")
		}
		if !tbl.MoveIf(DefaultTenant, 42, mm.LocNVM, mm.LocDRAM) {
			t.Fatal("MoveIf failed")
		}
		if loc, ok := tbl.Touch(DefaultTenant, 42, trace.OpRead); !ok || loc != mm.LocDRAM {
			t.Fatalf("after move: loc=%v ok=%v", loc, ok)
		}
		if r, w := pageCounters(tbl, DefaultTenant, 42); r != 1 || w != 0 {
			t.Fatalf("counters not reset by move: r=%d w=%d", r, w)
		}

		if tbl.RemoveIf(DefaultTenant, 42, mm.LocNVM) {
			t.Fatal("RemoveIf with wrong from-zone succeeded")
		}
		if !tbl.RemoveIf(DefaultTenant, 42, mm.LocDRAM) {
			t.Fatal("RemoveIf failed")
		}
		if tbl.Len() != 0 {
			t.Fatalf("Len = %d after removal, want 0", tbl.Len())
		}
	}
}

// TestTableTenantNamespaces proves the same page number under two tenants
// is two independent entries: separate locations, counters and lifetimes.
func TestTableTenantNamespaces(t *testing.T) {
	tbl, err := NewTable(4)
	if err != nil {
		t.Fatal(err)
	}
	const page = 42
	if !tbl.Insert(1, page, mm.LocDRAM) || !tbl.Insert(2, page, mm.LocNVM) {
		t.Fatal("cross-tenant Insert of the same page number collided")
	}
	if loc, ok := tbl.Peek(1, page); !ok || loc != mm.LocDRAM {
		t.Fatalf("tenant 1 Peek = %v, %v", loc, ok)
	}
	if loc, ok := tbl.Peek(2, page); !ok || loc != mm.LocNVM {
		t.Fatalf("tenant 2 Peek = %v, %v", loc, ok)
	}
	if _, ok := tbl.Peek(3, page); ok {
		t.Fatal("tenant 3 sees another tenant's page")
	}

	// Touching tenant 1's page leaves tenant 2's counters untouched.
	tbl.Touch(1, page, trace.OpWrite)
	if r, w := pageCounters(tbl, 2, page); r != 0 || w != 0 {
		t.Fatalf("tenant 2 counters %d/%d after tenant 1 touch", r, w)
	}

	// Removing tenant 1's page leaves tenant 2's resident.
	if !tbl.RemoveIf(1, page, mm.LocDRAM) {
		t.Fatal("RemoveIf failed")
	}
	if _, ok := tbl.Peek(2, page); !ok {
		t.Fatal("tenant 2 page vanished with tenant 1's removal")
	}
	if got := tbl.TenantResidents(2, mm.LocNVM); got != 1 {
		t.Fatalf("TenantResidents(2, NVM) = %d, want 1", got)
	}
	if got := tbl.TenantResidents(1, mm.LocDRAM); got != 0 {
		t.Fatalf("TenantResidents(1, DRAM) = %d, want 0", got)
	}
}

func TestTableResidents(t *testing.T) {
	tbl, err := NewTable(4)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 10; p++ {
		loc := mm.LocDRAM
		if p >= 4 {
			loc = mm.LocNVM
		}
		tbl.Insert(DefaultTenant, p, loc)
	}
	if d, n := tbl.Residents(mm.LocDRAM), tbl.Residents(mm.LocNVM); d != 4 || n != 6 {
		t.Fatalf("Residents = %d/%d, want 4/6", d, n)
	}
	if tbl.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tbl.Len())
	}
}

func TestTableScanShardWindows(t *testing.T) {
	tbl, err := NewTable(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert(DefaultTenant, 7, mm.LocNVM)
	tbl.Touch(DefaultTenant, 7, trace.OpWrite)
	tbl.Touch(DefaultTenant, 7, trace.OpWrite)
	tbl.Touch(DefaultTenant, 7, trace.OpRead)

	var scanned int
	tbl.ScanShard(0, true, func(tenant TenantID, page uint64, loc mm.Location, _ int, reads, writes uint64) {
		scanned++
		if tenant != DefaultTenant || page != 7 || loc != mm.LocNVM || reads != 1 || writes != 2 {
			t.Errorf("scan saw tenant=%d page=%d loc=%v r=%d w=%d", tenant, page, loc, reads, writes)
		}
	})
	if scanned != 1 {
		t.Fatalf("scan visited %d pages, want 1", scanned)
	}
	// The reset closed the window: a second scan sees zero counters.
	tbl.ScanShard(0, false, func(_ TenantID, _ uint64, _ mm.Location, _ int, reads, writes uint64) {
		if reads != 0 || writes != 0 {
			t.Errorf("window not reset: r=%d w=%d", reads, writes)
		}
	})
}

// TestScanShardResetConcurrentExact touches pages from several goroutines
// while a scanner closes counter windows with ScanShard(reset). Every
// touch must land in exactly one window: the windows reported, plus a
// final non-resetting read, sum per page to the touches issued.
func TestScanShardResetConcurrentExact(t *testing.T) {
	tbl, err := NewTable(4)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 2048
	for p := uint64(0); p < pages; p++ {
		tbl.Insert(DefaultTenant, p, mm.LocNVM)
	}
	var issued, seen [2][pages]atomic.Uint64 // [0] reads, [1] writes
	scan := func(reset bool) {
		for i := 0; i < tbl.NumShards(); i++ {
			tbl.ScanShard(i, reset, func(_ TenantID, p uint64, _ mm.Location, _ int, r, w uint64) {
				seen[0][p].Add(r)
				seen[1][p].Add(w)
			})
		}
	}
	var touchers sync.WaitGroup
	var done atomic.Bool
	for g := 0; g < 4; g++ {
		touchers.Add(1)
		go func(seed int64) {
			defer touchers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				// Half the touches hit a small hot set, so scans meet
				// both zero and busy counters.
				p := uint64(rng.Intn(pages))
				if rng.Intn(2) == 0 {
					p %= 16
				}
				op, k := trace.OpRead, 0
				if rng.Intn(3) == 0 {
					op, k = trace.OpWrite, 1
				}
				if _, ok := tbl.Touch(DefaultTenant, p, op); !ok {
					t.Errorf("Touch(%d) missed a resident page", p)
					return
				}
				issued[k][p].Add(1)
			}
		}(int64(g))
	}
	scans := make(chan int)
	go func() {
		n := 0
		for !done.Load() {
			scan(true)
			n++
		}
		scans <- n
	}()
	touchers.Wait()
	done.Store(true)
	n := <-scans
	scan(false)
	for k, kind := range []string{"reads", "writes"} {
		for p := 0; p < pages; p++ {
			if got, want := seen[k][p].Load(), issued[k][p].Load(); got != want {
				t.Fatalf("page %d: %d %s reported over %d scans, %d issued", p, got, kind, n, want)
			}
		}
	}
}

func TestClockVictimPrefersUnreferenced(t *testing.T) {
	tbl, err := NewTable(4)
	if err != nil {
		t.Fatal(err)
	}
	pages := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, p := range pages {
		tbl.Insert(DefaultTenant, p, mm.LocDRAM)
	}
	// First sweep clears every reference bit (all pages were just
	// inserted) and returns some page.
	if _, _, ok := tbl.ClockVictim(mm.LocDRAM, DefaultTenant, false); !ok {
		t.Fatal("ClockVictim found nothing in a populated zone")
	}
	// Re-reference everything except page 8: it is now the only page
	// whose bit is clear, so it must be the next victim.
	for _, p := range pages[:7] {
		tbl.Touch(DefaultTenant, p, trace.OpRead)
	}
	vt, v, ok := tbl.ClockVictim(mm.LocDRAM, DefaultTenant, false)
	if !ok || v != 8 || vt != DefaultTenant {
		t.Fatalf("ClockVictim = %d/%d, %v; want tenant 0 page 8, true", vt, v, ok)
	}

	if _, _, ok := tbl.ClockVictim(mm.LocNVM, DefaultTenant, false); ok {
		t.Fatal("ClockVictim found a page in an empty zone")
	}
}

// TestClockVictimTenantOnly shows the quota-enforcement sweep: restricted
// to one tenant, the victim always belongs to it, and other tenants'
// reference bits are not consumed by the search.
func TestClockVictimTenantOnly(t *testing.T) {
	tbl, err := NewTable(4)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 8; p++ {
		tbl.Insert(1, p, mm.LocDRAM)
		tbl.Insert(2, p, mm.LocDRAM)
	}
	for i := 0; i < 32; i++ {
		vt, v, ok := tbl.ClockVictim(mm.LocDRAM, 2, true)
		if !ok {
			t.Fatalf("sweep %d found no victim in tenant 2's populated zone", i)
		}
		if vt != 2 {
			t.Fatalf("tenant-only sweep returned tenant %d page %d", vt, v)
		}
	}
	// Tenant 1's pages were never victim candidates, so their reference
	// bits are still set from insertion: a one-lap global victim search
	// would pass over all of them. Check directly via a restricted sweep.
	if vt, _, ok := tbl.ClockVictim(mm.LocDRAM, 1, true); !ok || vt != 1 {
		t.Fatalf("tenant 1 sweep = tenant %d, ok %v", vt, ok)
	}

	if _, _, ok := tbl.ClockVictim(mm.LocDRAM, 3, true); ok {
		t.Fatal("found a victim for a tenant with no pages")
	}
}

// TestTableConcurrent hammers every operation from many goroutines across
// two tenants; run under -race it validates the locking discipline.
func TestTableConcurrent(t *testing.T) {
	tbl, err := NewTable(8)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 256
	tenants := []TenantID{0, 1}
	for _, tn := range tenants {
		for p := uint64(0); p < pages; p++ {
			tbl.Insert(tn, p, mm.LocNVM)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				p := uint64(rng.Intn(pages))
				tn := tenants[rng.Intn(len(tenants))]
				switch rng.Intn(6) {
				case 0:
					tbl.MoveIf(tn, p, mm.LocNVM, mm.LocDRAM)
				case 1:
					tbl.MoveIf(tn, p, mm.LocDRAM, mm.LocNVM)
				case 2:
					tbl.ClockVictim(mm.LocNVM, tn, false)
				case 3:
					tbl.ClockVictim(mm.LocDRAM, tn, true)
				case 4:
					tbl.ScanShard(int(p)%tbl.NumShards(), false, func(TenantID, uint64, mm.Location, int, uint64, uint64) {})
				default:
					tbl.Touch(tn, p, trace.OpWrite)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// No page was inserted or removed, only moved: the population is intact.
	if got := tbl.Len(); got != 2*pages {
		t.Fatalf("Len = %d after concurrent churn, want %d", got, 2*pages)
	}
	if d, n := tbl.Residents(mm.LocDRAM), tbl.Residents(mm.LocNVM); d+n != 2*pages {
		t.Fatalf("Residents %d+%d != %d", d, n, 2*pages)
	}
	for _, tn := range tenants {
		if d, n := tbl.TenantResidents(tn, mm.LocDRAM), tbl.TenantResidents(tn, mm.LocNVM); d+n != pages {
			t.Fatalf("tenant %d residents %d+%d != %d", tn, d, n, pages)
		}
	}
}

// ---------------------------------------------------------------------------
// Reference implementation: the pre-lock-free table (RWMutex + map shards),
// kept test-only as the oracle the lock-free table is property-checked and
// benchmarked against. Select it in benchmarks with
// -bench 'BenchmarkServeParallel/impl=locked'.

type lockedEntry struct {
	reads  atomic.Uint64
	writes atomic.Uint64
	ref    atomic.Uint32
	loc    mm.Location
}

type lockedShard struct {
	mu    sync.RWMutex
	pages map[uint64]*lockedEntry
}

// lockedTable is the old sharded table: the hit path takes the owning
// shard's read lock and looks the key up in a Go map.
type lockedTable struct {
	shards []lockedShard
	shift  uint
}

func newLockedTable(shardCount int) *lockedTable {
	n := 1
	for n < shardCount {
		n <<= 1
	}
	t := &lockedTable{shards: make([]lockedShard, n), shift: uint(64 - bits.Len(uint(n-1)))}
	for i := range t.shards {
		t.shards[i].pages = make(map[uint64]*lockedEntry)
	}
	return t
}

func (t *lockedTable) shardOf(key uint64) *lockedShard {
	return &t.shards[(key*0x9E3779B97F4A7C15)>>t.shift]
}

func (t *lockedTable) Touch(tenant TenantID, page uint64, op trace.Op) (mm.Location, bool) {
	key := tableKey(tenant, page)
	s := t.shardOf(key)
	s.mu.RLock()
	e, ok := s.pages[key]
	if !ok {
		s.mu.RUnlock()
		return 0, false
	}
	if op == trace.OpWrite {
		e.writes.Add(1)
	} else {
		e.reads.Add(1)
	}
	e.ref.Store(1)
	loc := e.loc
	s.mu.RUnlock()
	return loc, true
}

func (t *lockedTable) Peek(tenant TenantID, page uint64) (mm.Location, bool) {
	key := tableKey(tenant, page)
	s := t.shardOf(key)
	s.mu.RLock()
	e, ok := s.pages[key]
	var loc mm.Location
	if ok {
		loc = e.loc
	}
	s.mu.RUnlock()
	return loc, ok
}

func (t *lockedTable) Insert(tenant TenantID, page uint64, loc mm.Location) bool {
	key := tableKey(tenant, page)
	s := t.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.pages[key]; exists {
		return false
	}
	e := &lockedEntry{loc: loc}
	e.ref.Store(1)
	s.pages[key] = e
	return true
}

func (t *lockedTable) MoveIf(tenant TenantID, page uint64, from, to mm.Location) bool {
	key := tableKey(tenant, page)
	s := t.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pages[key]
	if !ok || e.loc != from {
		return false
	}
	e.loc = to
	e.reads.Store(0)
	e.writes.Store(0)
	e.ref.Store(1)
	return true
}

func (t *lockedTable) RemoveIf(tenant TenantID, page uint64, from mm.Location) bool {
	key := tableKey(tenant, page)
	s := t.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.pages[key]
	if !ok || e.loc != from {
		return false
	}
	delete(s.pages, key)
	return true
}

func (t *lockedTable) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.pages)
		s.mu.RUnlock()
	}
	return n
}

func (t *lockedTable) Residents(loc mm.Location) int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for _, e := range s.pages {
			if e.loc == loc {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// counters returns a key's windowed counters, for cross-checking.
func (t *lockedTable) counters(tenant TenantID, page uint64) (r, w uint64, ok bool) {
	key := tableKey(tenant, page)
	s := t.shardOf(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, found := s.pages[key]
	if !found {
		return 0, 0, false
	}
	return e.reads.Load(), e.writes.Load(), true
}

// TestTablePropertyVsLockedModel drives the lock-free table and the
// mutex-map reference through the same randomized op sequence and demands
// identical observable behavior at every step: op return values, per-page
// locations and windowed counters, population and zone occupancy. Victim
// selection (whose order legitimately differs between a map sweep and a
// slot sweep) is checked for validity against the model instead. Small key
// ranges force heavy insert/remove churn, so slot reuse and bucket-array
// rebuilds are exercised constantly.
func TestTablePropertyVsLockedModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		tbl, err := NewTable(4)
		if err != nil {
			t.Fatal(err)
		}
		model := newLockedTable(4)
		tenants := []TenantID{0, 1, 7}
		const pages = 96 // small: collisions, tombstone reuse and rebuilds galore
		locs := []mm.Location{mm.LocDRAM, mm.LocNVM}

		for step := 0; step < 30000; step++ {
			tn := tenants[rng.Intn(len(tenants))]
			p := uint64(rng.Intn(pages))
			switch rng.Intn(10) {
			case 0, 1, 2:
				loc := locs[rng.Intn(2)]
				got, want := tbl.Insert(tn, p, loc), model.Insert(tn, p, loc)
				if got != want {
					t.Fatalf("seed %d step %d: Insert(%d,%d,%v) = %v, model %v", seed, step, tn, p, loc, got, want)
				}
			case 3:
				from := locs[rng.Intn(2)]
				got, want := tbl.RemoveIf(tn, p, from), model.RemoveIf(tn, p, from)
				if got != want {
					t.Fatalf("seed %d step %d: RemoveIf(%d,%d,%v) = %v, model %v", seed, step, tn, p, from, got, want)
				}
			case 4, 5:
				from := locs[rng.Intn(2)]
				got, want := tbl.MoveIf(tn, p, from, otherLoc(from)), model.MoveIf(tn, p, from, otherLoc(from))
				if got != want {
					t.Fatalf("seed %d step %d: MoveIf(%d,%d,%v) = %v, model %v", seed, step, tn, p, from, got, want)
				}
			case 6:
				vt, vp, ok := tbl.ClockVictim(locs[rng.Intn(2)], tn, rng.Intn(2) == 0)
				if ok {
					// The victim must exist in the model at the swept zone's
					// location per the table's own view.
					loc, resident := tbl.Peek(vt, vp)
					mloc, mresident := model.Peek(vt, vp)
					if !resident || !mresident || loc != mloc {
						t.Fatalf("seed %d step %d: victim %d/%d invalid (table %v/%v, model %v/%v)",
							seed, step, vt, vp, loc, resident, mloc, mresident)
					}
					// Consume the model's ref state too so both CLOCK states
					// stay comparable-ish; validity is all we assert.
				}
			default:
				op := trace.OpRead
				if rng.Intn(3) == 0 {
					op = trace.OpWrite
				}
				gotLoc, gotOK := tbl.Touch(tn, p, op)
				wantLoc, wantOK := model.Touch(tn, p, op)
				if gotOK != wantOK || (gotOK && gotLoc != wantLoc) {
					t.Fatalf("seed %d step %d: Touch(%d,%d) = %v/%v, model %v/%v",
						seed, step, tn, p, gotLoc, gotOK, wantLoc, wantOK)
				}
			}
			if step%997 == 0 {
				if got, want := tbl.Len(), model.Len(); got != want {
					t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, got, want)
				}
				for _, loc := range locs {
					if got, want := tbl.Residents(loc), model.Residents(loc); got != want {
						t.Fatalf("seed %d step %d: Residents(%v) = %d, model %d", seed, step, loc, got, want)
					}
				}
			}
		}

		// Final sweep: every key's location and windowed counters agree.
		for _, tn := range tenants {
			for p := uint64(0); p < pages; p++ {
				gotLoc, gotOK := tbl.Peek(tn, p)
				wantLoc, wantOK := model.Peek(tn, p)
				if gotOK != wantOK || (gotOK && gotLoc != wantLoc) {
					t.Fatalf("seed %d: final Peek(%d,%d) = %v/%v, model %v/%v",
						seed, tn, p, gotLoc, gotOK, wantLoc, wantOK)
				}
				if gotOK {
					r, w := pageCounters(tbl, tn, p)
					mr, mw, _ := model.counters(tn, p)
					if r != mr || w != mw {
						t.Fatalf("seed %d: final counters(%d,%d) = %d/%d, model %d/%d",
							seed, tn, p, r, w, mr, mw)
					}
				}
			}
		}
	}
}
