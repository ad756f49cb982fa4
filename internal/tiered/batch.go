package tiered

import (
	"errors"
	"fmt"

	"hybridmem/internal/mm"
	"hybridmem/internal/trace"
)

// ErrBatchLengths is returned when the addrs, ops and out slices of a
// batch do not have the same length.
var ErrBatchLengths = errors.New("tiered: batch slices must have equal lengths")

// batchScratch accumulates one ServeTenantBatch call's counter deltas so
// the striped atomics are written once per touched stripe, not once per
// access. hits[stripe] is the whole accumulator: a (location, op) split —
// index 0 = DRAM read, 1 = DRAM write, 2 = NVM read, 3 = NVM write — from
// which everything the flush publishes derives: the stripe's and the
// tenant's access counts are its sum, the tenant's DRAM/NVM hit counts
// its pairwise sums. Misses tally straight to the engine counters on the
// rare fault path and never enter the scratch. The stripe arrays are
// fixed at maxStripes (the hard cap on serve-cell counts); only the
// multi-node attribution slice ever grows, so a pooled scratch makes
// steady-state batches allocation-free.
type batchScratch struct {
	hits [maxStripes][4]int64

	// nodeAcc is the per-node access attribution of this batch's hits on
	// a multi-node engine, indexed node*stripes+stripe.
	nodeAcc []int64

	// touched lists the stripes with pending deltas (marked de-dups), so
	// the flush and the reset touch only stripes the batch actually used —
	// a size-1 batch flushes one stripe, not maxStripes.
	touched []uint32
	marked  [maxStripes]bool
}

// grow sizes the scratch for an engine with nodes striped node-counter
// groups of stripes cells each; the stripe-indexed arrays are fixed-size
// and never grow.
func (s *batchScratch) grow(nodes, stripes int) {
	if need := nodes * stripes; need > len(s.nodeAcc) && nodes > 1 {
		s.nodeAcc = make([]int64, need)
	}
	if s.touched == nil {
		s.touched = make([]uint32, 0, maxStripes)
	}
}

// ServeTenantBatch services a batch of line-sized accesses within a
// tenant's namespace, equivalent to calling ServeTenant(tenant, addrs[i],
// ops[i]) for each i in order, with the per-access bookkeeping amortized
// across the batch: the engine state and tenant resolve once, pass 1
// validates every address up front, pass 2 hashes each key once (shared
// by the table probe and the home-node lookup) and probes the lock-free
// table snapshots, accumulating the striped access/hit counters as plain
// per-stripe deltas flushed with one atomic Add per touched stripe —
// instead of 2–4 shared Adds per access. Faults fall out to the ordinary
// one-at-a-time fault path, so quota enforcement, NUMA placement and
// event publication are identical to the unbatched path.
//
// out[i] receives the i-th access's result; all three slices must have
// equal length. The returned count is how many leading accesses were
// served (and are reflected in out and every counter). A batch with any
// out-of-range address is rejected whole — (0, ErrPageRange) — before
// any access is tallied; lifecycle and unknown-tenant errors also reject
// the whole batch. A fault-path error stops the batch
// at the failing access after flushing the deltas of the accesses already
// served, so the counters stay exact.
//
// Safe for concurrent use like ServeTenant. The hits of one batch become
// visible to Stats/TenantStats/NodeStats at the batch's flush (faults
// remain immediately visible), which is within the documented lazy-sum
// consistency model: every field stays individually exact and monotone,
// and cross-field identities hold on a quiesced engine.
func (e *Engine) ServeTenantBatch(tenant TenantID, addrs []uint64, ops []trace.Op, out []ServeResult) (int, error) {
	if len(ops) != len(addrs) || len(out) != len(addrs) {
		return 0, ErrBatchLengths
	}
	switch e.state.Load() {
	case stateStarted:
	case stateNew:
		return 0, ErrNotStarted
	default:
		return 0, ErrStopped
	}
	ts := e.def
	if tenant != DefaultTenant {
		ts = e.tenants[tenant]
	}
	if ts == nil {
		return 0, fmt.Errorf("%w: %d", ErrUnknownTenant, tenant)
	}
	if len(addrs) == 0 {
		return 0, nil
	}

	// Pass 1: validate the whole batch before any side effect, so a
	// rejected batch leaves no partial accounting.
	for _, addr := range addrs {
		if e.pageOf(addr) > maxTablePage {
			return 0, ErrPageRange
		}
	}

	stripes := int(e.stripeMask) + 1
	s, _ := e.scratchPool.Get().(*batchScratch)
	if s == nil {
		s = &batchScratch{}
	}
	s.grow(len(e.nodes), stripes)

	// Pass 2: derive each key (hashed exactly once, shared by the probe
	// and the home-node lookup, as on the unbatched path) and probe the
	// table snapshots in order. Hits only bump a plain per-stripe delta;
	// misses — rare in steady state — tally their access directly and take
	// the ordinary fault path, exactly as unbatched.
	var err error
	served := len(addrs)
	for i, addr := range addrs {
		page := e.pageOf(addr)
		key := tableKey(ts.id, page)
		cell := key & e.stripeMask
		h := mix(key)
		home := 0
		if e.multiNode {
			home = e.tbl.HomeNodeHash(h)
		}
		op := ops[i]
		if loc, ok := e.tbl.TouchHash(key, h, op); ok {
			if !s.marked[cell] {
				s.marked[cell] = true
				s.touched = append(s.touched, uint32(cell))
			}
			idx := 0
			if loc != mm.LocDRAM {
				idx = 2
			}
			if op != trace.OpRead {
				idx++
			}
			s.hits[cell][idx]++
			if e.multiNode {
				s.nodeAcc[home*stripes+int(cell)]++
			}
			out[i] = ServeResult{ServedFrom: loc}
			continue
		}
		e.serveCells[cell].accesses.Add(1)
		ts.cells[cell].accesses.Add(1)
		if e.multiNode {
			e.nodes[home].accesses[cell].Add(1)
		}
		var res ServeResult
		res, err = e.serveFault(ts, cell, key, h, page, home, op)
		if err != nil {
			served = i
			break
		}
		out[i] = res
	}

	// Flush: one atomic Add per touched stripe per nonzero counter, then
	// reset only what was touched so the scratch returns to the pool clean.
	for _, c := range s.touched {
		hv := &s.hits[c]
		rd, wd, rn, wn := hv[0], hv[1], hv[2], hv[3]
		hv[0], hv[1], hv[2], hv[3] = 0, 0, 0, 0
		sum := rd + wd + rn + wn
		sc := &e.serveCells[c]
		sc.accesses.Add(sum)
		if rd != 0 {
			sc.readsDRAM.Add(rd)
		}
		if wd != 0 {
			sc.writesDRAM.Add(wd)
		}
		if rn != 0 {
			sc.readsNVM.Add(rn)
		}
		if wn != 0 {
			sc.writesNVM.Add(wn)
		}
		tc := &ts.cells[c]
		tc.accesses.Add(sum)
		if d := rd + wd; d != 0 {
			tc.hitsDRAM.Add(d)
		}
		if d := rn + wn; d != 0 {
			tc.hitsNVM.Add(d)
		}
		if e.multiNode {
			for n := range e.nodes {
				idx := n*stripes + int(c)
				if d := s.nodeAcc[idx]; d != 0 {
					e.nodes[n].accesses[c].Add(d)
					s.nodeAcc[idx] = 0
				}
			}
		}
		s.marked[c] = false
	}
	s.touched = s.touched[:0]
	e.scratchPool.Put(s)
	return served, err
}
