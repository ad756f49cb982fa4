package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"time"
)

// Client is a minimal pipelined RESP client: cmd/tierd's benchmarking
// modes, the net smoke test and the server benchmarks all drive the
// server through it. Enqueue* batch encoded commands into a write buffer,
// Flush sends them in one syscall, and ReadReply consumes one reply.
// Reads and writes may run on separate goroutines (the open-loop load
// shape), but each side must be single-threaded.
type Client struct {
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// Dial connects to a server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{nc: nc, br: bufio.NewReaderSize(nc, 64*1024)}, nil
}

// Backoff is an exponential-backoff-with-jitter retry schedule: attempt
// n sleeps Base·Factor^n, capped at Max, with a uniformly random slice
// of up to Jitter of the delay subtracted so a fleet of clients redialing
// a restarting server doesn't reconnect in lockstep.
type Backoff struct {
	// Base is the first retry's delay (default 25ms).
	Base time.Duration
	// Max caps the grown delay (default 1s).
	Max time.Duration
	// Factor is the per-attempt growth multiplier (default 2).
	Factor float64
	// Jitter is the fraction of each delay randomized away, in [0,1)
	// (default 0.2: sleeps land in [0.8d, d]).
	Jitter float64
}

// withDefaults fills zero fields.
func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 25 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = time.Second
	}
	if b.Factor <= 1 {
		b.Factor = 2
	}
	if b.Jitter <= 0 || b.Jitter >= 1 {
		b.Jitter = 0.2
	}
	return b
}

// delay returns attempt n's sleep (0-based), before jitter.
func (b Backoff) delay(attempt int) time.Duration {
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			return b.Max
		}
	}
	return time.Duration(d)
}

// dialRetrier separates DialRetryContext's policy from the clock and the
// dialer so the schedule is unit-testable against a fake clock.
type dialRetrier struct {
	bo    Backoff
	dial  func(addr string, timeout time.Duration) (*Client, error)
	sleep func(ctx context.Context, d time.Duration) error
	// rand returns a uniform float64 in [0,1) for the jitter draw.
	rand func() float64
}

// sleepCtx sleeps d or returns early with the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (r dialRetrier) retry(ctx context.Context, addr string) (*Client, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("server: no server at %s: %w (last dial error: %v)", addr, err, lastErr)
		}
		c, err := r.dial(addr, time.Second)
		if err == nil {
			return c, nil
		}
		lastErr = err
		d := r.bo.delay(attempt)
		d -= time.Duration(r.rand() * r.bo.Jitter * float64(d))
		if err := r.sleep(ctx, d); err != nil {
			return nil, fmt.Errorf("server: no server at %s: %w (last dial error: %v)", addr, err, lastErr)
		}
	}
}

// DialRetryContext redials addr on bo's exponential-backoff-with-jitter
// schedule until it connects or ctx ends (cancellation or deadline) — the
// reconnect loop that rides out a server's restart window in the chaos
// smoke. A zero Backoff uses the defaults.
func DialRetryContext(ctx context.Context, addr string, bo Backoff) (*Client, error) {
	r := dialRetrier{bo: bo.withDefaults(), dial: Dial, sleep: sleepCtx, rand: rand.Float64}
	return r.retry(ctx, addr)
}

// DialRetry is DialRetryContext with the default backoff and a plain
// timeout — the smoke tests start the server and the client as separate
// processes, so the client must absorb the startup race.
func DialRetry(addr string, deadline time.Duration) (*Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	return DialRetryContext(ctx, addr, Backoff{})
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

// EnqueueGet batches a GET for a numeric address key.
func (c *Client) EnqueueGet(addr uint64) {
	c.wbuf = append(c.wbuf, "*2\r\n$3\r\nGET\r\n"...)
	c.wbuf = appendAddrArg(c.wbuf, addr)
}

// EnqueueSet batches a SET for a numeric address key (one-byte payload;
// the server records the access and discards the value).
func (c *Client) EnqueueSet(addr uint64) {
	c.wbuf = append(c.wbuf, "*3\r\n$3\r\nSET\r\n"...)
	c.wbuf = appendAddrArg(c.wbuf, addr)
	c.wbuf = append(c.wbuf, "$1\r\nx\r\n"...)
}

// EnqueueCommand batches an arbitrary command.
func (c *Client) EnqueueCommand(args ...string) {
	c.wbuf = appendArrayHeader(c.wbuf, len(args))
	for _, a := range args {
		c.wbuf = appendBulkString(c.wbuf, a)
	}
}

// appendAddrArg appends one decimal bulk-string argument.
func appendAddrArg(out []byte, addr uint64) []byte {
	var scratch [20]byte
	dec := strconv.AppendUint(scratch[:0], addr, 10)
	return appendBulkBytes(out, dec)
}

// Flush writes every batched command in one syscall.
func (c *Client) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// ReadReply consumes one reply, returning its first byte (the RESP type
// marker: '+', '-', ':', '$' or '*') — or an error for a '-' reply or a
// broken connection. Bulk and array payloads are skimmed, not retained.
func (c *Client) ReadReply() (byte, error) {
	line, err := c.readLine()
	if err != nil {
		return 0, err
	}
	switch line[0] {
	case '+', ':':
		return line[0], nil
	case '-':
		return '-', fmt.Errorf("server error: %s", line[1:])
	case '$':
		n, ok := parseInt(line[1:])
		if !ok {
			return 0, fmt.Errorf("server: bad bulk header %q", line)
		}
		if n >= 0 {
			if _, err := c.br.Discard(int(n + 2)); err != nil {
				return 0, err
			}
		}
		return '$', nil
	case '*':
		n, ok := parseInt(line[1:])
		if !ok {
			return 0, fmt.Errorf("server: bad array header %q", line)
		}
		for i := int64(0); i < n; i++ {
			if _, err := c.ReadReply(); err != nil {
				return 0, err
			}
		}
		return '*', nil
	}
	return 0, fmt.Errorf("server: unexpected reply line %q", line)
}

// readBulk consumes one reply that must be a bulk string and returns its
// payload.
func (c *Client) readBulk() ([]byte, error) {
	line, err := c.readLine()
	if err != nil {
		return nil, err
	}
	if line[0] == '-' {
		return nil, fmt.Errorf("server error: %s", line[1:])
	}
	if line[0] != '$' {
		return nil, fmt.Errorf("server: expected bulk reply, got %q", line)
	}
	n, ok := parseInt(line[1:])
	if !ok || n < 0 {
		return nil, fmt.Errorf("server: bad bulk header %q", line)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// readLine reads one CRLF-terminated header line (without the CRLF).
func (c *Client) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("server: malformed reply line %q", line)
	}
	return line[:len(line)-2], nil
}

// Do round-trips one command and returns its reply type.
func (c *Client) Do(args ...string) (byte, error) {
	c.EnqueueCommand(args...)
	if err := c.Flush(); err != nil {
		return 0, err
	}
	return c.ReadReply()
}

// Auth authenticates the connection as a tenant.
func (c *Client) Auth(token string) error {
	kind, err := c.Do("AUTH", token)
	if err != nil {
		return err
	}
	if kind != '+' {
		return fmt.Errorf("server: AUTH reply type %q", kind)
	}
	return nil
}

// Stats fetches the server's STATS array into a map. Field values are the
// engine aggregate, connection-fabric counters and the connection's
// tenant breakdown (see docs/protocol.md).
func (c *Client) Stats() (map[string]int64, error) {
	c.EnqueueCommand("STATS")
	if err := c.Flush(); err != nil {
		return nil, err
	}
	head, err := c.readLine()
	if err != nil {
		return nil, err
	}
	if head[0] != '*' {
		return nil, fmt.Errorf("server: STATS reply %q", head)
	}
	n, ok := parseInt(head[1:])
	if !ok || n < 0 || n%2 != 0 {
		return nil, fmt.Errorf("server: STATS array header %q", head)
	}
	out := make(map[string]int64, n/2)
	for i := int64(0); i < n; i += 2 {
		name, err := c.readBulk()
		if err != nil {
			return nil, err
		}
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if line[0] != ':' {
			return nil, fmt.Errorf("server: STATS value %q", line)
		}
		v, ok := parseInt(line[1:])
		if !ok {
			return nil, fmt.Errorf("server: STATS value %q", line)
		}
		out[string(name)] = v
	}
	return out, nil
}
