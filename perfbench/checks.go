package main

import (
	"bytes"
	"fmt"

	"hybridmem/internal/server"
	"hybridmem/internal/sim"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
)

// checks collects correctness failures; any failure makes the run
// incorrect and its exit code non-zero.
type checks struct{ failures []string }

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) add(err error) {
	if err != nil {
		c.failures = append(c.failures, err.Error())
	}
}

// checkServeCounts checks an engine's counter delta over a quiesced
// window: every issued access was counted, and each one either hit or
// faulted.
func checkServeCounts(d tiered.Stats, issued int64) error {
	if d.Accesses != issued {
		return fmt.Errorf("engine counted %d accesses, %d were issued", d.Accesses, issued)
	}
	if d.Hits()+d.Faults != d.Accesses {
		return fmt.Errorf("hits %d + faults %d != accesses %d", d.Hits(), d.Faults, d.Accesses)
	}
	return nil
}

// checkInvariants runs an engine invariant check, naming when it ran.
func checkInvariants(when string, inv func() error) error {
	if err := inv(); err != nil {
		return fmt.Errorf("invariants %s: %w", when, err)
	}
	return nil
}

// Reply type markers a GET and a SET must get.
const (
	replyGet = '$'
	replySet = '+'
)

// checkReplyTypes checks one pipelined batch: exactly one reply per
// command, in order, a bulk string for each GET and a status for each SET.
func checkReplyTypes(ops []trace.Op, types []byte) error {
	if len(types) != len(ops) {
		return fmt.Errorf("%d replies for %d commands", len(types), len(ops))
	}
	for i, op := range ops {
		want := byte(replySet)
		if op == trace.OpRead {
			want = replyGet
		}
		if types[i] != want {
			return fmt.Errorf("command %d (%v) got reply type %q, want %q", i, op, types[i], want)
		}
	}
	return nil
}

// The exact replies the server owes a GET (the serving tier) and a SET.
var (
	rawDRAM = []byte("$4\r\nDRAM\r\n")
	rawNVM  = []byte("$3\r\nNVM\r\n")
	rawOK   = []byte("+OK\r\n")
)

// checkRawReplies checks a batch's reply bytes exactly: `$4 DRAM` or
// `$3 NVM` for every GET, `+OK` for every SET, in order, nothing more.
func checkRawReplies(ops []trace.Op, raw []byte) error {
	for i, op := range ops {
		switch {
		case op == trace.OpRead && bytes.HasPrefix(raw, rawDRAM):
			raw = raw[len(rawDRAM):]
		case op == trace.OpRead && bytes.HasPrefix(raw, rawNVM):
			raw = raw[len(rawNVM):]
		case op == trace.OpWrite && bytes.HasPrefix(raw, rawOK):
			raw = raw[len(rawOK):]
		default:
			return fmt.Errorf("command %d (%v): unexpected reply %q", i, op, truncate(raw, 16))
		}
	}
	if len(raw) != 0 {
		return fmt.Errorf("%d bytes after the last reply: %q", len(raw), truncate(raw, 16))
	}
	return nil
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// checkServerCounts checks the server's counter delta against what the
// clients sent.
func checkServerCounts(d server.Stats, sent int64) error {
	if d.Commands != sent {
		return fmt.Errorf("server dispatched %d commands, %d were sent", d.Commands, sent)
	}
	if d.ProtocolErrors != 0 {
		return fmt.Errorf("%d protocol errors", d.ProtocolErrors)
	}
	return nil
}

// checkRestore checks a restore into an engine of the run's geometry: it
// placed every one of the chain's records, and the fresh engine now holds
// exactly those pages, as many as the stopped engine held.
func checkRestore(records int, rs tiered.RestoreStats, resident, stopped int64) error {
	if dropped := rs.Skipped + rs.Duplicates + rs.CapacityDrops; dropped != 0 {
		return fmt.Errorf("restore dropped %d records: %d skipped, %d duplicates, %d over capacity",
			dropped, rs.Skipped, rs.Duplicates, rs.CapacityDrops)
	}
	if rs.Restored != records {
		return fmt.Errorf("restored %d pages from %d chain records", rs.Restored, records)
	}
	if resident != int64(rs.Restored) {
		return fmt.Errorf("restored %d pages, the fresh engine holds %d", rs.Restored, resident)
	}
	if resident != stopped {
		return fmt.Errorf("the fresh engine holds %d pages, the stopped engine held %d", resident, stopped)
	}
	return nil
}

// checkSimCounts checks one simulated (workload, policy) run's accounting.
func checkSimCounts(id string, c sim.Counts) error {
	if c.Hits()+c.Faults != c.Accesses {
		return fmt.Errorf("%s: hits %d + faults %d != accesses %d", id, c.Hits(), c.Faults, c.Accesses)
	}
	return nil
}

// checkSameRun checks that a repeated simulation at one seed reproduced
// the first run exactly.
func checkSameRun(id string, first, again *sim.Result) error {
	if first.Counts != again.Counts || first.RuntimeNS != again.RuntimeNS || first.NVMWear != again.NVMWear {
		return fmt.Errorf("%s: repeated run differs: %+v vs %+v", id, first.Counts, again.Counts)
	}
	return nil
}
