package main

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"hybridmem/internal/server"
	"hybridmem/internal/sim"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
)

var batchOps = []trace.Op{trace.OpRead, trace.OpWrite, trace.OpRead}

func TestReplyTypeCheckCatchesDroppedAndWrongReplies(t *testing.T) {
	if err := checkReplyTypes(batchOps, []byte{'$', '+', '$'}); err != nil {
		t.Fatalf("correct batch rejected: %v", err)
	}
	if checkReplyTypes(batchOps, []byte{'$', '+'}) == nil {
		t.Error("dropped reply passed")
	}
	if checkReplyTypes(batchOps, []byte{'$', '$', '$'}) == nil {
		t.Error("bulk reply to a SET passed")
	}
	if checkReplyTypes(batchOps, []byte{'-', '+', '$'}) == nil {
		t.Error("error reply to a GET passed")
	}
}

func TestRawReplyCheckCatchesDroppedAndWrongReplies(t *testing.T) {
	good := "$4\r\nDRAM\r\n+OK\r\n$3\r\nNVM\r\n"
	if err := checkRawReplies(batchOps, []byte(good)); err != nil {
		t.Fatalf("correct replies rejected: %v", err)
	}
	for name, raw := range map[string]string{
		"dropped reply":  "$4\r\nDRAM\r\n+OK\r\n",
		"wrong type":     "$4\r\nDRAM\r\n$3\r\nNVM\r\n$3\r\nNVM\r\n",
		"wrong tier":     "$4\r\nDISK\r\n+OK\r\n$3\r\nNVM\r\n",
		"extra reply":    good + "+OK\r\n",
		"error to a GET": "-ERR page out of range\r\n+OK\r\n$3\r\nNVM\r\n",
	} {
		if checkRawReplies(batchOps, []byte(raw)) == nil {
			t.Errorf("%s passed", name)
		}
	}
}

// TestRawConnKeepsReplyBytes serves canned replies over an in-memory
// connection: the raw reader must hand back every reply's bytes, so the
// exact check sees a nil reply or a wrong tier that a type check passes.
func TestRawConnKeepsReplyBytes(t *testing.T) {
	recs := []trace.Record{{Addr: 7, Op: trace.OpRead}, {Addr: 8, Op: trace.OpWrite}, {Addr: 9, Op: trace.OpRead}}
	for name, tc := range map[string]struct {
		replies string
		ok      bool
	}{
		"correct":      {"$4\r\nDRAM\r\n+OK\r\n$3\r\nNVM\r\n", true},
		"nil reply":    {"$-1\r\n+OK\r\n$3\r\nNVM\r\n", false},
		"wrong tier":   {"$4\r\nDRAM\r\n+OK\r\n$4\r\nDISK\r\n", false},
		"error reply":  {"$4\r\nDRAM\r\n-ERR busy\r\n$3\r\nNVM\r\n", false},
		"bulk to SET":  {"$4\r\nDRAM\r\n$3\r\nNVM\r\n$3\r\nNVM\r\n", false},
		"empty string": {"$0\r\n\r\n+OK\r\n$3\r\nNVM\r\n", false},
	} {
		t.Run(name, func(t *testing.T) {
			client, srv := net.Pipe()
			defer client.Close()
			go func() {
				defer srv.Close()
				buf := make([]byte, 4096)
				srv.Read(buf) // the pipelined request
				srv.Write([]byte(tc.replies))
			}()
			c := &rawConn{nc: client, br: bufio.NewReader(client)}
			raw, err := c.roundTrip(recs)
			if err != nil {
				t.Fatal(err)
			}
			ops := []trace.Op{trace.OpRead, trace.OpWrite, trace.OpRead}
			if err := checkRawReplies(ops, raw); (err == nil) != tc.ok {
				t.Fatalf("check of %q: %v", raw, err)
			}
		})
	}
}

func TestServeCountCheckCatchesMismatches(t *testing.T) {
	ok := tiered.Stats{Accesses: 10, ReadsDRAM: 6, WritesNVM: 1, Faults: 3}
	if err := checkServeCounts(ok, 10); err != nil {
		t.Fatalf("consistent counts rejected: %v", err)
	}
	if checkServeCounts(ok, 11) == nil {
		t.Error("an uncounted access passed")
	}
	lost := ok
	lost.Faults--
	if checkServeCounts(lost, 10) == nil {
		t.Error("an access that neither hit nor faulted passed")
	}
}

func TestInvariantCheckReportsEngineErrors(t *testing.T) {
	if err := checkInvariants("now", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("DRAM pool level 5, table holds 4")
	if err := checkInvariants("now", func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("invariant error not reported: %v", err)
	}
}

func TestRestoreCheckCatchesOffByOne(t *testing.T) {
	exact := tiered.RestoreStats{Restored: 100}
	if err := checkRestore(100, exact, 100, 100); err != nil {
		t.Fatalf("exact restore rejected: %v", err)
	}
	for _, records := range []int{99, 101} {
		if checkRestore(records, exact, 100, 100) == nil {
			t.Errorf("restore of 100 pages from %d records passed", records)
		}
	}
	for name, rs := range map[string]tiered.RestoreStats{
		"skipped record":   {Restored: 99, Skipped: 1},
		"duplicate record": {Restored: 99, Duplicates: 1},
		"capacity drop":    {Restored: 99, CapacityDrops: 1},
	} {
		if checkRestore(100, rs, 99, 100) == nil {
			t.Errorf("%s passed", name)
		}
	}
	if checkRestore(100, exact, 99, 100) == nil {
		t.Error("a restored page missing from the fresh engine passed")
	}
	if checkRestore(100, exact, 100, 101) == nil {
		t.Error("a restore one page short of the stopped engine passed")
	}
}

func TestServerCountCheckCatchesMismatches(t *testing.T) {
	if err := checkServerCounts(server.Stats{Commands: 64}, 64); err != nil {
		t.Fatal(err)
	}
	if checkServerCounts(server.Stats{Commands: 63}, 64) == nil {
		t.Error("a lost command passed")
	}
	if checkServerCounts(server.Stats{Commands: 64, ProtocolErrors: 1}, 64) == nil {
		t.Error("a protocol error passed")
	}
}

func TestSimChecksCatchMismatches(t *testing.T) {
	c := sim.Counts{Accesses: 5, ReadsDRAM: 2, ReadsNVM: 1, Faults: 2}
	if err := checkSimCounts("w/p", c); err != nil {
		t.Fatal(err)
	}
	c.Faults++
	if checkSimCounts("w/p", c) == nil {
		t.Error("hits + faults != accesses passed")
	}
	a := &sim.Result{Counts: c, RuntimeNS: 10}
	b := &sim.Result{Counts: c, RuntimeNS: 10}
	if err := checkSameRun("w/p", a, b); err != nil {
		t.Fatal(err)
	}
	b.Counts.Promotions++
	if checkSameRun("w/p", a, b) == nil {
		t.Error("a differing repeat passed")
	}
}

// TestOnlineWorkloadsPassTheirChecks sets up each online workload, runs a
// short traced window and its post-run checks.
func TestOnlineWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up full-size workloads")
	}
	for _, name := range []string{"embed-hot", "resp-pipeline", "tenant-churn"} {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			var genS float64
			inst, err := workloads[name](1, t.TempDir(), tr, &genS)
			if err != nil {
				t.Fatal(err)
			}
			ck := &checks{}
			w, err := inst.window(300*time.Millisecond, tr, ck)
			if err != nil {
				inst.close()
				t.Fatal(err)
			}
			layer := map[string]float64{}
			if err := inst.finish(tr, ck, layer); err != nil {
				t.Fatal(err)
			}
			if len(ck.failures) != 0 || w.failed != 0 || w.ops == 0 || genS <= 0 {
				t.Fatalf("ops %d, failed %d, gen %vs, check failures %v", w.ops, w.failed, genS, ck.failures)
			}
			if name == "tenant-churn" && (layer["persist.restore_s"] <= 0 || w.layer["daemon.epochs"] <= 0 || w.layer["tiered.faults_per_kop"] <= 0) {
				t.Fatalf("churn did not load persist, the daemon and the fault path: %v %v", layer, w.layer)
			}
		})
	}
}
