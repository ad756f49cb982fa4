package workload

import (
	"fmt"
	"math/rand"

	"hybridmem/internal/trace"
)

// tenantShift places each tenant's pages in a disjoint address region,
// above any address a single generator emits.
const tenantShift = 44

// Mix interleaves several workloads into one multiprogrammed stream: the
// consolidation scenario of the paper's server setting (Section V-A uses a
// quad-core "to ensure there is always enough requests issued to the memory
// to simulate a production server"). Each tenant keeps its own address
// space; accesses are drawn proportionally to the tenants' remaining
// request budgets, so the mix preserves every tenant's total counts exactly.
type Mix struct {
	gens    []*Generator
	rng     *rand.Rand
	remain  []int64
	total   int64
	emitted int64
}

// NewMix builds a multiprogrammed stream over the given specs, all at the
// same scale. Streams are deterministic in (specs, scale, seed).
func NewMix(specs []Spec, scale float64, seed int64) (*Mix, error) {
	if len(specs) < 2 {
		return nil, fmt.Errorf("workload: a mix needs >= 2 tenants, got %d", len(specs))
	}
	if len(specs) > 1<<8 {
		return nil, fmt.Errorf("workload: too many tenants (%d)", len(specs))
	}
	m := &Mix{rng: rand.New(rand.NewSource(seed))}
	for i, s := range specs {
		g, err := NewGenerator(s, scale, seed+int64(i)+1)
		if err != nil {
			return nil, fmt.Errorf("workload: tenant %s: %w", s.Name, err)
		}
		m.gens = append(m.gens, g)
		m.remain = append(m.remain, g.TotalAccesses())
		m.total += g.TotalAccesses()
	}
	return m, nil
}

// Pages returns the combined footprint (tenants do not share pages).
func (m *Mix) Pages() int {
	total := 0
	for _, g := range m.gens {
		total += g.Pages()
	}
	return total
}

// TotalAccesses returns the combined request count.
func (m *Mix) TotalAccesses() int64 { return m.total }

// rebase moves a tenant's record into its private address region.
func rebase(r trace.Record, tenant int) trace.Record {
	r.Addr |= uint64(tenant+1) << tenantShift
	return r
}

// Next implements trace.Source.
func (m *Mix) Next() (trace.Record, bool) {
	if m.emitted >= m.total {
		return trace.Record{}, false
	}
	// Draw a tenant proportionally to its remaining budget (exact totals,
	// like the generators' read/write draw).
	pick := m.rng.Int63n(m.total - m.emitted)
	for i, rem := range m.remain {
		if pick < rem {
			r, ok := m.gens[i].Next()
			if !ok {
				// Defensive: budgets and generator lengths agree by
				// construction.
				return trace.Record{}, false
			}
			m.remain[i]--
			m.emitted++
			return rebase(r, i), true
		}
		pick -= rem
	}
	return trace.Record{}, false
}

// WarmupSource returns the combined initialization phase: each tenant's
// warmup in turn, rebased into its region.
func (m *Mix) WarmupSource(seed int64) trace.Source {
	srcs := make([]trace.Source, len(m.gens))
	for i, g := range m.gens {
		tenant := i
		inner := g.WarmupSource(seed + int64(i))
		srcs[i] = trace.FuncSource(func() (trace.Record, bool) {
			r, ok := inner.Next()
			if !ok {
				return trace.Record{}, false
			}
			return rebase(r, tenant), true
		})
	}
	return sizedSource{int64(m.Pages()), trace.Concat(srcs...)}
}
