package tiered

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hybridmem/internal/mm"
)

// Start brings the engine online and launches the migration daemon: one
// scanner that sweeps the shards for hot NVM pages every ScanInterval,
// driving one scan/promotion pipeline per NUMA node — each node has its
// own candidate buffers and promotion queue, drained by that node's own
// Workers goroutines, so migrations for one node's pages are applied by
// workers pinned to that node's pipeline.
func (e *Engine) Start() error {
	if !e.state.CompareAndSwap(stateNew, stateStarted) {
		return fmt.Errorf("tiered: engine already started")
	}
	e.stopCh = make(chan struct{})
	for _, ns := range e.nodes {
		ns.batchCh = make(chan *promoBatch, e.cfg.QueueLen)
		e.workerWG.Add(e.cfg.Workers)
		for i := 0; i < e.cfg.Workers; i++ {
			go e.workerLoop(ns)
		}
	}
	e.scanWG.Add(1)
	go e.scanLoop()
	if len(e.warmup) > 0 {
		e.warmWG.Add(1)
		go e.warmupLoop()
	}
	return nil
}

// Stop shuts the engine down gracefully: new Serve calls are rejected, the
// scanner exits, and the workers drain every batch already enqueued before
// returning. Stop is idempotent, and every Stop call — including one that
// loses the race to a concurrent Stop — only returns after the daemon has
// fully quiesced. Stopping an engine that never started is an error.
func (e *Engine) Stop() error {
	if e.state.CompareAndSwap(stateStarted, stateStopped) {
		close(e.stopCh)
		e.scanWG.Wait()
		e.warmWG.Wait()
		// Both producers (scanner and warm-up feeder) have exited; now the
		// queues can close, and the workers drain what's left.
		for _, ns := range e.nodes {
			close(ns.batchCh)
		}
		e.workerWG.Wait()
		// Barrier against a concurrent ScanOnce: any scan that won scanMu
		// before this point finishes its inline work here; any that
		// acquires it later sees the stopped state and does nothing.
		// Either way no migration mutates the table after Stop returns.
		e.scanMu.Lock()
		e.scanMu.Unlock() //nolint:staticcheck // empty section is the barrier
		close(e.drained)
		return nil
	}
	if e.state.Load() == stateStopped {
		<-e.drained
		return nil
	}
	return fmt.Errorf("tiered: engine never started")
}

// scanLoop is the daemon's scanner goroutine. It does not close the batch
// channels on exit — Stop does, after every producer (this scanner and the
// restore warm-up feeder) has quiesced.
func (e *Engine) scanLoop() {
	defer e.scanWG.Done()
	ticker := time.NewTicker(e.cfg.ScanInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-ticker.C:
			e.scanEpoch(false)
		}
	}
}

// promoBatch is one promotion batch in flight from the scanner to a
// node's workers: the ranked candidates (key + the windowed score the
// scan saw, which rides into the event ring) and the enqueue timestamp,
// from which the draining worker computes the node's promotion lag.
type promoBatch struct {
	at time.Time
	c  []candidate
}

// workerLoop drains one node's promotion batches until the channel closes,
// returning each drained buffer to the batch pool. A page's in-flight mark
// clears only after its promotion has been applied (or found stale), so
// the scanner cannot re-enqueue it mid-flight.
func (e *Engine) workerLoop(ns *nodeState) {
	defer e.workerWG.Done()
	for b := range ns.batchCh {
		lag := time.Since(b.at).Nanoseconds()
		ns.lagLast.Store(lag)
		for {
			cur := ns.lagMax.Load()
			if lag <= cur || ns.lagMax.CompareAndSwap(cur, lag) {
				break
			}
		}
		for _, cand := range b.c {
			e.applyPromotion(cand.key, cand.score)
			e.unmarkInflight(cand.key)
		}
		e.putBatch(b)
	}
}

// newBatch takes a promotion buffer from the pool (or allocates the pool's
// first few).
func (e *Engine) newBatch() *promoBatch {
	if b, ok := e.batchPool.Get().(*promoBatch); ok {
		return b
	}
	return &promoBatch{c: make([]candidate, 0, e.cfg.BatchSize)}
}

// putBatch resets a buffer and returns it to the pool.
func (e *Engine) putBatch(b *promoBatch) {
	b.c = b.c[:0]
	e.batchPool.Put(b)
}

// ScanOnce runs one hotness scan immediately and applies the resulting
// promotions inline before returning, giving tests and embedders a
// deterministic migration point.
func (e *Engine) ScanOnce() error {
	if e.state.Load() != stateStarted {
		return ErrNotStarted
	}
	e.scanEpoch(true)
	return nil
}

// markInflight records a page as enqueued for promotion. It reports false
// — and the caller must skip the page — when a previous epoch's entry is
// still in flight: the dedupe that keeps a page scanned hot in
// consecutive epochs from occupying two queue slots.
func (e *Engine) markInflight(key uint64) bool {
	e.inflightMu.Lock()
	defer e.inflightMu.Unlock()
	if _, dup := e.inflight[key]; dup {
		return false
	}
	e.inflight[key] = struct{}{}
	return true
}

// unmarkInflight clears a page's in-flight mark once its promotion has
// been applied, found stale, or dropped with its batch.
func (e *Engine) unmarkInflight(key uint64) {
	e.inflightMu.Lock()
	delete(e.inflight, key)
	e.inflightMu.Unlock()
}

// candidate is one scan-identified hot page: its namespaced key and the
// windowed counter magnitude the batch ordering ranks by.
type candidate struct {
	key   uint64
	score uint64
}

// orderCandidates sorts a tenant's candidates by descending counter
// magnitude (key ascending on ties, for determinism): every candidate
// already cleared the policy's threshold test, so the magnitude measures
// how far past break-even the page is, and the daemon's bounded budget
// goes to the most profitable migrations first.
func orderCandidates(c []candidate) {
	slices.SortFunc(c, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.key, b.key))
	})
}

// interleaveInto merges per-tenant candidate queues into dst by weighted
// round-robin: each round takes up to weights[i] candidates from queue i
// in order, repeating until all queues drain, so batches cut from the
// result give tenant i weights[i] promotion-budget slots for every one
// slot of a weight-1 neighbor while both have candidates left. A nil
// weights slice means one each — the equal-share round-robin, under which
// no hot tenant can monopolize the queue while another starves. The queue
// headers are consumed; the underlying arrays are untouched.
func interleaveInto(dst []candidate, queues [][]candidate, weights []int) []candidate {
	total := 0
	for _, q := range queues {
		total += len(q)
	}
	for len(dst) < total {
		for i := range queues {
			w := 1
			if weights != nil {
				w = weights[i]
			}
			if w > len(queues[i]) {
				w = len(queues[i])
			}
			if w > 0 {
				dst = append(dst, queues[i][:w]...)
				queues[i] = queues[i][w:]
			}
		}
	}
	return dst
}

// interleave is equal-share interleaveInto from scratch, for tests and
// one-shot use.
func interleave(queues [][]candidate) []candidate {
	return interleaveInto(nil, queues, nil)
}

// scanEpoch runs one scan/promotion round for every node in turn — each
// node's pipeline sweeps only the shards homed on that node and feeds only
// that node's promotion queue — then gives each tenant's policy its epoch
// hook with that tenant's deltas. Serialized by scanMu so a ticker epoch
// and a ScanOnce never interleave their window resets (and so the
// per-tenant policies' plain threshold state is never touched from two
// goroutines). The sweeps hold no table lock (they walk the published
// shard snapshots) and recycle all buffers — per-node per-tenant candidate
// lists, interleave orders and promotion batches — so a steady-state epoch
// allocates nothing and never blocks the serve path.
func (e *Engine) scanEpoch(inline bool) {
	e.scanMu.Lock()
	defer e.scanMu.Unlock()
	// Re-check under the lock: a ScanOnce that passed the lifecycle check
	// just before Stop must not mutate anything after Stop's barrier.
	if e.state.Load() != stateStarted {
		return
	}
	start := time.Now()
	var cands int64
	for _, ns := range e.nodes {
		cands += e.scanNode(ns, inline)
	}
	for _, ts := range e.tenantList {
		accesses, hitsDRAM, _ := ts.serveTotals()
		cur := EpochStats{
			Accesses:   accesses,
			HitsDRAM:   hitsDRAM,
			Promotions: ts.c.promotions.Load(),
		}
		ts.pol.Epoch(EpochStats{
			Accesses:   cur.Accesses - ts.lastEpoch.Accesses,
			HitsDRAM:   cur.HitsDRAM - ts.lastEpoch.HitsDRAM,
			Promotions: cur.Promotions - ts.lastEpoch.Promotions,
		})
		ts.lastEpoch = cur
	}
	e.c.scans.Add(1)
	e.c.candidates.Add(cands)
	e.candLast.Store(cands)
	// Single writer (scanMu held), so last/max need no CAS.
	dur := time.Since(start).Nanoseconds()
	e.scanDurLast.Store(dur)
	if dur > e.scanDurMax.Load() {
		e.scanDurMax.Store(dur)
	}
}

// scanNode runs one node's slice of the epoch: it sweeps the node's shard
// range for NVM pages whose windowed counters their tenant's policy judges
// hot, orders each tenant's candidates by counter magnitude, interleaves
// the tenants by priority weight, and cuts the result into batches for the
// node's promotion queue (or applies them inline). Pages already in flight
// from a previous epoch are skipped; the counter windows of the node's
// pages reset as a side effect of the sweep. Caller holds scanMu. Returns
// the number of candidates the sweep found (before in-flight dedupe).
func (e *Engine) scanNode(ns *nodeState, inline bool) int64 {
	// Collect only inside the sweep; promotions apply after it, so a
	// migration's table write never races the sweep's own shard visit.
	for i := range ns.scanBufs {
		ns.scanBufs[i] = ns.scanBufs[i][:0]
	}
	lo, hi := e.tbl.NodeShards(ns.id)
	for i := lo; i < hi; i++ {
		e.tbl.ScanShard(i, true, func(tenant TenantID, page uint64, loc mm.Location, _ int, reads, writes uint64) {
			if loc != mm.LocNVM {
				return
			}
			ts := e.tenants[tenant]
			if ts == nil || !ts.pol.Hot(reads, writes) {
				return
			}
			ns.scanBufs[ts.idx] = append(ns.scanBufs[ts.idx],
				candidate{key: tableKey(tenant, page), score: reads + writes})
		})
	}
	ns.scanQueues = ns.scanQueues[:0]
	ns.scanWeights = ns.scanWeights[:0]
	for _, ts := range e.tenantList {
		if buf := ns.scanBufs[ts.idx]; len(buf) > 0 {
			orderCandidates(buf)
			ns.scanQueues = append(ns.scanQueues, buf)
			ns.scanWeights = append(ns.scanWeights, ts.priority)
		}
	}
	ns.scanOrder = interleaveInto(ns.scanOrder[:0], ns.scanQueues, ns.scanWeights)

	// flush hands the batch off (queue mode) or applies it inline, and
	// returns the buffer to fill next — a fresh one when the queue took
	// ownership, the same one (reset) otherwise.
	flush := func(b *promoBatch) *promoBatch {
		if len(b.c) == 0 {
			return b
		}
		if inline {
			for _, cand := range b.c {
				e.applyPromotion(cand.key, cand.score)
				e.unmarkInflight(cand.key)
			}
			e.c.batches.Add(1)
			b.c = b.c[:0]
			return b
		}
		b.at = time.Now()
		select {
		case ns.batchCh <- b:
			e.c.batches.Add(1)
			// High-water of the queue depth, observed at enqueue. Only
			// the scanner writes it, so load+store suffices.
			if d := int64(len(ns.batchCh)); d > ns.queueHW.Load() {
				ns.queueHW.Store(d)
			}
			return e.newBatch()
		default:
			// Queue full: drop the batch and clear its marks. Promotion is
			// advisory — a page that stays hot re-qualifies next epoch —
			// so shedding load here keeps the scanner from ever blocking
			// on the workers.
			for _, cand := range b.c {
				e.unmarkInflight(cand.key)
			}
			e.c.queueDrops.Add(1)
			ns.drops.Add(1)
			b.c = b.c[:0]
			return b
		}
	}

	b := e.newBatch()
	for _, cand := range ns.scanOrder {
		if !e.markInflight(cand.key) {
			// A previous epoch's promotion of this page is still queued:
			// the epochs coalesce into one migration.
			e.c.coalesced.Add(1)
			continue
		}
		b.c = append(b.c, cand)
		if len(b.c) == e.cfg.BatchSize {
			b = flush(b)
		}
	}
	b = flush(b)
	e.putBatch(b)
	return int64(len(ns.scanOrder))
}
