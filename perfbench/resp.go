package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"hybridmem/internal/server"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
)

const (
	// pipelineDepth is the commands each client sends per round trip.
	pipelineDepth = 64
	// batchSampleEvery: a traced window spans one batch in this many.
	batchSampleEvery = 16
	// rawEvery: one batch in this many goes over the client's raw
	// connection, where every reply is checked byte for byte.
	rawEvery = 8
	// ioTimeout bounds every raw-connection read and write.
	ioTimeout = 10 * time.Second
)

// respClient is one closed-loop pipelined connection: it sends a batch of
// pipelineDepth commands, then waits for all their replies. One batch in
// rawEvery goes instead over raw, a second connection whose reply bytes
// are checked exactly; server.Client only reports each reply's type.
type respClient struct {
	c     *server.Client
	raw   *rawConn
	recs  []trace.Record
	pos   int
	batch []trace.Record
	ops   []trace.Op
	types []byte

	batches, replies, bad int64
}

// next fills rc.batch and rc.ops with the next pipelineDepth records.
func (rc *respClient) next() {
	rc.batch, rc.ops = rc.batch[:0], rc.ops[:0]
	for len(rc.batch) < pipelineDepth {
		r := rc.recs[rc.pos]
		if rc.pos++; rc.pos == len(rc.recs) {
			rc.pos = 0
		}
		rc.batch = append(rc.batch, r)
		rc.ops = append(rc.ops, r.Op)
	}
}

// clientBatch sends and reads back one pipelined batch through
// server.Client and returns its round trip time. A wrong reply type counts
// in bad and ends the run with an error.
func (rc *respClient) clientBatch(ln *lane) (time.Duration, error) {
	rc.next()
	for _, r := range rc.batch {
		if r.Op == trace.OpRead {
			rc.c.EnqueueGet(r.Addr)
		} else {
			rc.c.EnqueueSet(r.Addr)
		}
	}
	rc.types = rc.types[:0]
	start := time.Now()
	root := ln.open("bench.batch", -1, start)
	if err := rc.c.Flush(); err != nil {
		return 0, err
	}
	flushed := time.Now()
	ln.add("client.Flush", root, start, flushed)
	firstAt := flushed
	for i := range rc.ops {
		t, err := rc.c.ReadReply()
		if err != nil && t != '-' {
			return 0, err
		}
		rc.types = append(rc.types, t)
		if i == 0 {
			firstAt = time.Now()
			ln.add("client.ReadReply.first", root, flushed, firstAt)
		}
	}
	end := time.Now()
	ln.add("client.ReadReply.rest", root, firstAt, end)
	ln.close(root, end)
	rc.batches++
	rc.replies += int64(len(rc.types))
	if err := checkReplyTypes(rc.ops, rc.types); err != nil {
		rc.bad++
		return 0, fmt.Errorf("batch %d: %w", rc.batches, err)
	}
	return end.Sub(start), nil
}

// rawBatch sends one pipelined batch over the raw connection, checks every
// reply byte and returns the round trip time. A wrong reply counts in bad
// and ends the run with an error.
func (rc *respClient) rawBatch() (time.Duration, error) {
	rc.next()
	start := time.Now()
	raw, err := rc.raw.roundTrip(rc.batch)
	end := time.Now()
	rc.batches++
	if err != nil {
		rc.bad++
		return 0, fmt.Errorf("raw batch %d: %w", rc.batches, err)
	}
	rc.replies += int64(len(rc.batch))
	if err := checkRawReplies(rc.ops, raw); err != nil {
		rc.bad++
		return 0, fmt.Errorf("raw batch %d: %w", rc.batches, err)
	}
	return end.Sub(start), nil
}

// run sends batches until the window tallied by t ends or, with a nil t,
// until maxBatches are done. A traced lane spans one batch in
// batchSampleEvery; with a raw connection, one batch in rawEvery goes over
// it.
func (rc *respClient) run(t *tally, maxBatches int64, ln *lane) error {
	rc.batches, rc.replies, rc.bad = 0, 0, 0
	for rc.batches < maxBatches {
		var rtt time.Duration
		var err error
		switch {
		case rc.raw != nil && rc.batches%rawEvery == rawEvery-1:
			rtt, err = rc.rawBatch()
		case rc.batches%batchSampleEvery == 0:
			rtt, err = rc.clientBatch(ln)
		default:
			rtt, err = rc.clientBatch(nil)
		}
		if err != nil {
			return err
		}
		if t != nil && t.add(time.Now(), pipelineDepth, rtt) {
			return nil
		}
	}
	return nil
}

// respBench is an in-process RESP server over an engine, driven by two
// closed-loop pipelined clients on loopback, each with a server.Client
// connection and a raw one.
type respBench struct {
	e       *tiered.Engine
	srv     *server.Server
	clients []*respClient
	sent    int64 // commands sent over every connection, all phases
}

// runClients runs every client on its own goroutine and waits for all:
// for the window p paces, or with a nil p for maxBatches each. It returns
// the clients' tallies.
func (b *respBench) runClients(p *pacer, maxBatches int64, tr *tracer) ([]*tally, error) {
	errs := make([]error, len(b.clients))
	ts := make([]*tally, len(b.clients))
	var wg sync.WaitGroup
	for i, rc := range b.clients {
		if p != nil {
			ts[i] = p.tally()
		}
		wg.Add(1)
		go func(i int, rc *respClient, ln *lane) {
			defer wg.Done()
			errs[i] = rc.run(ts[i], maxBatches, ln)
		}(i, rc, tr.lane())
	}
	wg.Wait()
	for _, rc := range b.clients {
		b.sent += rc.batches * pipelineDepth
	}
	for _, err := range errs {
		if err != nil {
			return ts, err
		}
	}
	return ts, nil
}

func (b *respBench) window(d time.Duration, tr *tracer, ck *checks) (*window, error) {
	snap := snapEngine(b.e, []tiered.TenantID{tiered.DefaultTenant}, nil, tr != nil)
	sbase := b.srv.Stats()
	p := newPacer(d)
	ts, runErr := b.runClients(p, math.MaxInt64, tr)
	w := &window{slices: p.slices(ts), layer: map[string]float64{}}
	var batches int64
	for _, rc := range b.clients {
		batches += rc.batches
		w.ops += rc.replies
		w.failed += rc.bad
	}
	if runErr != nil {
		snap.stopSampling()
		ck.add(runErr)
		return w, nil
	}
	sd := serverDelta(b.srv.Stats(), sbase)
	ck.add(checkServerCounts(sd, batches*pipelineDepth))
	if err := snap.finish(w, batches*pipelineDepth, ck); err != nil {
		return nil, err
	}
	w.layer["server.batched_share"] = share(sd.BatchedOps, sd.Commands)
	w.layer["server.pipelined_share"] = share(sd.Pipelined, sd.Commands)
	w.layer["server.protocol_errors"] = float64(sd.ProtocolErrors)
	return w, nil
}

// serverDelta returns the server's command counter deltas since prev.
func serverDelta(cur, prev server.Stats) server.Stats {
	return server.Stats{
		Commands:       cur.Commands - prev.Commands,
		Pipelined:      cur.Pipelined - prev.Pipelined,
		BatchedOps:     cur.BatchedOps - prev.BatchedOps,
		ProtocolErrors: cur.ProtocolErrors - prev.ProtocolErrors,
	}
}

func (b *respBench) finish(tr *tracer, ck *checks, _ map[string]float64) error {
	b.closeClients()
	ln := tr.lane()
	ck.add(ln.timed("server.Shutdown", func() error { return b.srv.Shutdown(5 * time.Second) }))
	ck.add(checkServerCounts(b.srv.Stats(), b.sent))
	if err := b.e.Stop(); err != nil {
		return err
	}
	ck.add(checkInvariants("after shutdown", b.e.CheckInvariants))
	return nil
}

// rawConn is a pipelined RESP connection that keeps each reply's bytes.
type rawConn struct {
	nc        net.Conn
	br        *bufio.Reader
	req, resp []byte
}

func dialRaw(addr string) (*rawConn, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	return &rawConn{nc: nc, br: bufio.NewReaderSize(nc, 64*1024)}, nil
}

// roundTrip sends recs as pipelined GET and SET commands and returns the
// bytes of the len(recs) replies that come back. The bytes are valid until
// the next call.
func (c *rawConn) roundTrip(recs []trace.Record) ([]byte, error) {
	if err := c.nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return nil, err
	}
	c.req = c.req[:0]
	for _, r := range recs {
		if r.Op == trace.OpRead {
			c.req = append(c.req, "*2\r\n$3\r\nGET\r\n"...)
		} else {
			c.req = append(c.req, "*3\r\n$3\r\nSET\r\n"...)
		}
		var key [20]byte
		k := strconv.AppendUint(key[:0], r.Addr, 10)
		c.req = append(c.req, '$')
		c.req = strconv.AppendInt(c.req, int64(len(k)), 10)
		c.req = append(c.req, "\r\n"...)
		c.req = append(c.req, k...)
		c.req = append(c.req, "\r\n"...)
		if r.Op != trace.OpRead {
			c.req = append(c.req, "$1\r\nx\r\n"...)
		}
	}
	if _, err := c.nc.Write(c.req); err != nil {
		return nil, err
	}
	c.resp = c.resp[:0]
	for range recs {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		c.resp = append(c.resp, line...)
		if line[0] != '$' {
			continue
		}
		n, ok := bulkLen(line)
		if !ok {
			return nil, fmt.Errorf("bad bulk header %q", line)
		}
		if n < 0 {
			continue
		}
		at := len(c.resp)
		c.resp = slices.Grow(c.resp, n+2)[:at+n+2]
		if _, err := io.ReadFull(c.br, c.resp[at:]); err != nil {
			return nil, err
		}
	}
	return c.resp, nil
}

// bulkLen parses a bulk header line, "$<n>\r\n", where n is -1 for a nil
// reply.
func bulkLen(line []byte) (int, bool) {
	digits := bytes.TrimSuffix(line[1:], []byte("\r\n"))
	if len(digits) == 2 && digits[0] == '-' && digits[1] == '1' {
		return -1, true
	}
	if len(digits) == 0 || len(digits) > 9 {
		return 0, false
	}
	n := 0
	for _, d := range digits {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

// closeClients closes every client connection.
func (b *respBench) closeClients() {
	for _, rc := range b.clients {
		rc.c.Close()
		if rc.raw != nil {
			rc.raw.nc.Close()
		}
	}
}

func (b *respBench) close() {
	b.closeClients()
	if b.srv != nil {
		b.srv.Shutdown(5 * time.Second)
	}
	if b.e != nil && b.e.Running() {
		b.e.Stop()
	}
}

// setupRESP: bodytrack replayed over loopback RESP by two pipelined
// connections, DRAM as large as the footprint.
func setupRESP(seed int64, _ string, tr *tracer, genS *float64) (instance, error) {
	start := time.Now()
	warm, roi, pages, err := genTrace("bodytrack", 1.0, seed, tr.lane())
	if err != nil {
		return nil, err
	}
	*genS = time.Since(start).Seconds()
	e, err := tiered.New(tiered.Config{Policy: tiered.Proposed, DRAMPages: pages, NVMPages: pages})
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	b := &respBench{e: e}
	if b.srv, err = server.New(e, server.Config{Addr: "127.0.0.1:0"}); err != nil {
		b.close()
		return nil, err
	}
	if err := b.srv.Listen(); err != nil {
		b.close()
		return nil, err
	}
	for i := 0; i < 2; i++ {
		c, err := server.Dial(b.srv.Addr().String(), ioTimeout)
		if err != nil {
			b.close()
			return nil, err
		}
		rc := &respClient{c: c, recs: roi, pos: i * len(roi) / 2}
		b.clients = append(b.clients, rc)
		if rc.raw, err = dialRaw(b.srv.Addr().String()); err != nil {
			b.close()
			return nil, err
		}
	}
	// Warm every page once through the first connection, then let both
	// connections settle.
	wc := &respClient{c: b.clients[0].c, recs: warm}
	if err := wc.run(nil, int64(len(warm)/pipelineDepth), nil); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	b.sent += wc.batches * pipelineDepth
	if _, err := b.runClients(nil, 400, nil); err != nil {
		b.close()
		return nil, fmt.Errorf("settle: %w", err)
	}
	return b, nil
}
