package obs

import (
	"fmt"
	"io"
	"sync/atomic"

	"hybridmem/internal/runner"
)

// Tier identifies which memory tier a page occupied. TierNone marks
// "not resident" (the destination of an eviction or drop).
type Tier uint8

const (
	TierNone Tier = iota
	TierDRAM
	TierNVM
)

func (t Tier) String() string {
	switch t {
	case TierDRAM:
		return "dram"
	case TierNVM:
		return "nvm"
	}
	return "none"
}

// Reason says why a migration event happened.
type Reason uint8

const (
	// ReasonPromotion: the daemon (or sync mirror) moved a hot page
	// NVM -> DRAM.
	ReasonPromotion Reason = iota
	// ReasonDemotionFault: a DRAM frame was reclaimed to satisfy a
	// faulting page's DRAM reservation.
	ReasonDemotionFault
	// ReasonDemotionPromotion: a DRAM frame was reclaimed to make room
	// for a promotion.
	ReasonDemotionPromotion
	// ReasonDemotionSpill: a borrower's page was demoted to reclaim
	// spill-pool capacity for a tenant under its own quota.
	ReasonDemotionSpill
	// ReasonDemotionClean: a clean DRAM page retired without a
	// write-back. Only the reference policies make this move, and the
	// engine's sim-equivalence replay publishes no events, so no live
	// trace carries it; the value is kept so later reasons keep theirs.
	ReasonDemotionClean
	// ReasonEviction: an NVM frame was reclaimed; the page left memory.
	ReasonEviction
	// ReasonDrop: the page was removed explicitly (RESP DEL / Drop).
	ReasonDrop
	// ReasonRestore: the page was re-inserted into NVM at startup from a
	// persistence checkpoint (crash or drain recovery).
	ReasonRestore
)

func (r Reason) String() string {
	switch r {
	case ReasonPromotion:
		return "promotion"
	case ReasonDemotionFault:
		return "demotion-fault"
	case ReasonDemotionPromotion:
		return "demotion-promotion"
	case ReasonDemotionSpill:
		return "demotion-spill"
	case ReasonDemotionClean:
		return "demotion-clean"
	case ReasonEviction:
		return "eviction"
	case ReasonDrop:
		return "drop"
	case ReasonRestore:
		return "restore"
	}
	return "unknown"
}

// Event is one migration decision. Score carries the policy's windowed
// access counter for the page at decision time (promotions only; zero
// otherwise).
type Event struct {
	Seq    uint64 // publish sequence number, assigned by the ring
	TS     int64  // unix nanoseconds at publish
	Epoch  int64  // daemon scan epoch at publish
	Page   uint64
	Score  uint64
	Tenant uint16
	Node   uint8
	From   Tier
	To     Tier
	Reason Reason
}

// eventSlot packs an Event into six atomic words so concurrent
// publishers and snapshot readers never race on plain memory (the race
// detector sees only atomic ops). seq doubles as the publication stamp:
// 0 = being written, pos+1 = slot holds the event published at
// position pos. A reader that sees any other value skips the slot.
type eventSlot struct {
	seq atomic.Uint64
	w   [5]atomic.Uint64
	_   [cacheLine - 48]byte
}

// EventRing is a lock-free, bounded, multi-producer ring of migration
// events. Publish never allocates and never blocks; when the ring is
// full the oldest events are overwritten. Snapshot returns the most
// recent events, skipping any slot caught mid-write.
type EventRing struct {
	head  atomic.Uint64
	_     [cacheLine - 8]byte
	mask  uint64
	slots []eventSlot
}

// DefaultRingSize is the event capacity used by cmd/tierd.
const DefaultRingSize = 4096

// NewEventRing returns a ring holding the last capacity events
// (rounded up to a power of two, minimum 64).
func NewEventRing(capacity int) *EventRing {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &EventRing{mask: uint64(n - 1), slots: make([]eventSlot, n)}
}

// Cap returns the ring capacity.
func (r *EventRing) Cap() int { return len(r.slots) }

// Published returns the total number of events ever published.
func (r *EventRing) Published() uint64 { return r.head.Load() }

// Overwritten returns how many events have been lost to wraparound.
func (r *EventRing) Overwritten() uint64 {
	h := r.head.Load()
	if c := uint64(len(r.slots)); h > c {
		return h - c
	}
	return 0
}

func packMeta(ev Event) uint64 {
	return uint64(ev.Tenant)<<32 | uint64(ev.Node)<<24 |
		uint64(ev.From)<<16 | uint64(ev.To)<<8 | uint64(ev.Reason)
}

func unpackMeta(w uint64, ev *Event) {
	ev.Tenant = uint16(w >> 32)
	ev.Node = uint8(w >> 24)
	ev.From = Tier(w >> 16)
	ev.To = Tier(w >> 8)
	ev.Reason = Reason(w)
}

// Publish records ev (Seq is assigned here). Safe for any number of
// concurrent publishers; zero allocations.
func (r *EventRing) Publish(ev Event) {
	pos := r.head.Add(1) - 1
	s := &r.slots[pos&r.mask]
	s.seq.Store(0) // mark mid-write; readers skip
	s.w[0].Store(uint64(ev.TS))
	s.w[1].Store(uint64(ev.Epoch))
	s.w[2].Store(ev.Page)
	s.w[3].Store(ev.Score)
	s.w[4].Store(packMeta(ev))
	s.seq.Store(pos + 1)
}

// read returns the event published at position pos, or false if the
// slot has been overwritten or is mid-write.
func (r *EventRing) read(pos uint64) (Event, bool) {
	s := &r.slots[pos&r.mask]
	if s.seq.Load() != pos+1 {
		return Event{}, false
	}
	var ev Event
	ev.TS = int64(s.w[0].Load())
	ev.Epoch = int64(s.w[1].Load())
	ev.Page = s.w[2].Load()
	ev.Score = s.w[3].Load()
	unpackMeta(s.w[4].Load(), &ev)
	if s.seq.Load() != pos+1 { // torn by a concurrent overwrite
		return Event{}, false
	}
	ev.Seq = pos
	return ev, true
}

// Snapshot returns up to the last max events, oldest first (max <= 0
// means all retained). Slots being overwritten during the scan are
// skipped, so under heavy concurrent publish the result may have gaps;
// Seq values are strictly increasing.
func (r *EventRing) Snapshot(max int) []Event {
	head := r.head.Load()
	n := uint64(len(r.slots))
	if head < n {
		n = head
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Event, 0, n)
	for pos := head - n; pos < head; pos++ {
		if ev, ok := r.read(pos); ok {
			out = append(out, ev)
		}
	}
	return out
}

// WriteEventsArtifact renders events as a hybridmem.results/v1 artifact
// (kind "events"), one result per event: Policy carries the reason,
// Params the tier transition, Values the numeric attribution. This is
// the trace format the future sim-calibration gate will consume.
func WriteEventsArtifact(w io.Writer, events []Event, tool string, scale float64, seed int64) error {
	art := runner.NewArtifact(tool, "events", scale, seed)
	for _, ev := range events {
		res := runner.Result{
			ID:       fmt.Sprintf("event%08d/%s", ev.Seq, ev.Reason),
			Workload: "trace",
			Policy:   ev.Reason.String(),
			Seed:     seed,
			Params: map[string]float64{
				"from": float64(ev.From),
				"to":   float64(ev.To),
			},
			Values: map[string]float64{
				"seq":    float64(ev.Seq),
				"ts_ns":  float64(ev.TS),
				"epoch":  float64(ev.Epoch),
				"tenant": float64(ev.Tenant),
				"node":   float64(ev.Node),
				"page":   float64(ev.Page),
				"score":  float64(ev.Score),
			},
		}
		art.Add(res)
	}
	return art.Write(w)
}
