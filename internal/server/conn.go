package server

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"hybridmem/internal/mm"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
)

// conn is one client connection: its socket, its tenant binding, its LRU
// links (guarded by the connMap mutex) and its reusable parse/reply
// buffers. A connection is owned by exactly one handler goroutine; only
// kick (eviction, reaping) and Shutdown touch it from outside, and they
// touch only the net.Conn, which is safe for concurrent use.
type conn struct {
	id uint64
	nc connNet

	// tenant is the namespace this connection serves; AUTH rebinds it.
	tenant tiered.TenantID
	authed bool

	// lastActive and the list links are guarded by the connMap mutex.
	lastActive time.Time
	prev, next *conn

	// rbuf[rpos:rend] is the unparsed read data; args and out are the
	// reused parse and reply buffers. All owned by the handler goroutine.
	rbuf       []byte
	rpos, rend int
	args       [][]byte
	out        []byte

	// runAddrs/runOps stage the pending run of consecutive GET/SET
	// commands process groups into one engine batch call; runRes receives
	// the batch results. Reused across batches, owned by the handler
	// goroutine, always empty between process calls.
	runAddrs []uint64
	runOps   []trace.Op
	runRes   []tiered.ServeResult
}

// connNet is the slice of net.Conn the server uses (a seam for tests).
type connNet interface {
	Read(b []byte) (int, error)
	Write(b []byte) (int, error)
	Close() error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// kick closes a connection from outside its handler (LRU eviction, idle
// reap), best-effort telling the client why first.
func (c *conn) kick(msg string) {
	c.nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	c.nc.Write([]byte("-" + msg + "\r\n"))
	c.nc.Close()
}

// Static replies, preassembled as complete RESP frames so the data-path
// commands emit them with one append and no formatting.
var (
	replyDRAM = []byte("$4\r\nDRAM\r\n")
	replyNVM  = []byte("$3\r\nNVM\r\n")
	replyOK   = []byte("+OK\r\n")
)

// drainReadGrace is the one extra read window a draining connection
// gets: long enough for bytes the client sent before the drain to cross
// the wire, short enough not to stall Shutdown.
const drainReadGrace = 50 * time.Millisecond

// handle is a connection's goroutine: read a batch, parse and dispatch
// every complete command in it, reply in one write. It exits on client
// close, protocol error, eviction, or shutdown. A shutdown interrupts
// the pending read by expiring the deadline; commands the client sent
// before the drain may still sit in the kernel buffer at that moment, so
// the handler takes one short grace pass to answer them before exiting —
// the drain loses nothing that was already on the wire.
func (s *Server) handle(c *conn) {
	defer func() {
		s.cm.remove(c)
		c.nc.Close()
		s.active.Add(-1)
		s.connWG.Done()
	}()
	graced := false
	for {
		if err := c.ensureSpace(s.cfg.ReadBuffer); err != nil {
			s.protocolErrors.Add(1)
			c.out = appendError(c.out, "ERR "+err.Error())
			c.flush()
			return
		}
		n, err := c.nc.Read(c.rbuf[c.rend:])
		if n > 0 {
			c.rend += n
			t0 := time.Now()
			fatal := s.process(c)
			s.batchDur.Observe(time.Since(t0).Nanoseconds())
			if len(c.out) > 0 {
				if c.flush() != nil {
					return
				}
			}
			s.cm.touch(c, time.Now())
			if fatal {
				return
			}
		}
		if err != nil {
			if !graced && s.state.Load() == srvDraining && isTimeout(err) {
				graced = true
				c.nc.SetReadDeadline(time.Now().Add(drainReadGrace))
				continue
			}
			return
		}
	}
}

// isTimeout reports whether a read error is a deadline expiry (the
// drain's interrupt) rather than a closed or broken connection.
func isTimeout(err error) bool {
	var t interface{ Timeout() bool }
	return errors.As(err, &t) && t.Timeout()
}

// flush writes the accumulated replies in one syscall.
func (c *conn) flush() error {
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	return err
}

// ensureSpace makes room for the next read: compact the buffer when the
// parsed prefix can be dropped, grow it (up to the per-connection cap)
// when a single frame outgrows it.
func (c *conn) ensureSpace(min int) error {
	if c.rpos == c.rend {
		c.rpos, c.rend = 0, 0
	}
	if len(c.rbuf)-c.rend >= min {
		return nil
	}
	if c.rpos > 0 {
		c.rend = copy(c.rbuf, c.rbuf[c.rpos:c.rend])
		c.rpos = 0
	}
	for len(c.rbuf)-c.rend < min {
		if len(c.rbuf)*2 > maxConnBuffer {
			return errOversized
		}
		grown := make([]byte, len(c.rbuf)*2)
		c.rend = copy(grown, c.rbuf[c.rpos:c.rend])
		c.rpos = 0
		c.rbuf = grown
	}
	return nil
}

// maxRun caps the pending GET/SET run so a deeply pipelined connection's
// staging slices stay modest; a full run flushes and grouping continues.
const maxRun = 512

// process parses and dispatches every complete command buffered on c,
// appending replies to c.out. Consecutive well-formed GET/SET commands
// are grouped into runs and served through the engine's batch API — the
// per-command replies are still emitted in command order, so the wire
// protocol is byte-identical to one-at-a-time dispatch. Any other command
// (or a malformed GET/SET) flushes the pending run first, then dispatches
// normally. It reports whether the connection must close after the flush
// (QUIT, protocol error, engine shutdown).
func (s *Server) process(c *conn) (fatal bool) {
	batch := int64(0)
	canBatch := (!s.cfg.RequireAuth || c.authed) && !s.loading()
	for {
		args, n, err := parseCommand(c.rbuf[c.rpos:c.rend], c.args)
		c.args = args[:0]
		if err == errIncomplete {
			break
		}
		if err != nil {
			if s.flushRun(c) {
				fatal = true
				break
			}
			s.protocolErrors.Add(1)
			c.out = appendError(c.out, "ERR "+err.Error())
			fatal = true
			break
		}
		c.rpos += n
		if len(args) == 0 {
			continue
		}
		batch++
		if canBatch {
			// Stage well-formed data commands instead of dispatching.
			if cmdIs(args[0], "GET") && len(args) == 2 {
				s.cmds.get.Inc(c.id)
				c.runAddrs = append(c.runAddrs, keyAddr(args[1]))
				c.runOps = append(c.runOps, trace.OpRead)
				if len(c.runAddrs) >= maxRun && s.flushRun(c) {
					fatal = true
					break
				}
				continue
			}
			if cmdIs(args[0], "SET") && len(args) >= 3 {
				s.cmds.set.Inc(c.id)
				c.runAddrs = append(c.runAddrs, keyAddr(args[1]))
				c.runOps = append(c.runOps, trace.OpWrite)
				if len(c.runAddrs) >= maxRun && s.flushRun(c) {
					fatal = true
					break
				}
				continue
			}
		}
		if s.flushRun(c) {
			fatal = true
			break
		}
		if s.dispatch(c, args) {
			fatal = true
			break
		}
		// AUTH may have just bound a tenant; runs never span the rebind.
		canBatch = (!s.cfg.RequireAuth || c.authed) && !s.loading()
	}
	if !fatal && s.flushRun(c) {
		fatal = true
	}
	s.commands.Add(batch)
	if batch > 1 {
		s.pipelined.Add(batch - 1)
	}
	return fatal
}

// flushRun serves the pending GET/SET run through the engine batch API
// and emits the per-command replies in order. If the batch call cannot
// complete (lifecycle or out-of-range address), the unserved tail falls
// back to one-at-a-time serves so every command still gets exactly the
// reply it would have gotten unbatched. Reports whether the connection
// must close.
func (s *Server) flushRun(c *conn) (closeAfter bool) {
	n := len(c.runAddrs)
	if n == 0 {
		return false
	}
	if cap(c.runRes) < n {
		c.runRes = make([]tiered.ServeResult, n)
	}
	c.runRes = c.runRes[:n]
	done, err := s.engine.ServeTenantBatch(c.tenant, c.runAddrs, c.runOps, c.runRes)
	s.batchedOps.Add(int64(done))
	for i := 0; i < done; i++ {
		if c.runOps[i] == trace.OpRead {
			if c.runRes[i].ServedFrom == mm.LocDRAM {
				c.out = append(c.out, replyDRAM...)
			} else {
				c.out = append(c.out, replyNVM...)
			}
		} else {
			c.out = append(c.out, replyOK...)
		}
	}
	if err != nil {
		for i := done; i < n; i++ {
			if s.accessAddr(c, c.runAddrs[i], c.runOps[i]) {
				closeAfter = true
				break
			}
		}
	}
	c.runAddrs = c.runAddrs[:0]
	c.runOps = c.runOps[:0]
	return closeAfter
}

// cmdIs reports whether b spells s (ASCII case-insensitive, s uppercase).
func cmdIs(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		ch := b[i]
		if ch >= 'a' && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		if ch != s[i] {
			return false
		}
	}
	return true
}

// dispatch executes one command, appending its reply to c.out. It reports
// whether the connection must close (QUIT, engine stopped).
func (s *Server) dispatch(c *conn, args [][]byte) (closeAfter bool) {
	cmd := args[0]
	switch {
	case cmdIs(cmd, "GET"):
		s.cmds.get.Inc(c.id)
		if len(args) != 2 {
			c.out = appendError(c.out, "ERR wrong number of arguments for 'get' command")
			return false
		}
		return s.access(c, args[1], trace.OpRead)
	case cmdIs(cmd, "SET"):
		s.cmds.set.Inc(c.id)
		// Extra arguments (value options like EX) are accepted and
		// ignored: the engine records the access, not the payload.
		if len(args) < 3 {
			c.out = appendError(c.out, "ERR wrong number of arguments for 'set' command")
			return false
		}
		return s.access(c, args[1], trace.OpWrite)
	case cmdIs(cmd, "DEL"):
		s.cmds.del.Inc(c.id)
		if len(args) < 2 {
			c.out = appendError(c.out, "ERR wrong number of arguments for 'del' command")
			return false
		}
		if s.needAuth(c) || s.rejectLoading(c) {
			return false
		}
		removed := int64(0)
		for _, key := range args[1:] {
			ok, err := s.engine.Drop(c.tenant, keyAddr(key))
			if err != nil {
				c.out = appendError(c.out, "ERR "+err.Error())
				return errors.Is(err, tiered.ErrStopped) || errors.Is(err, tiered.ErrNotStarted)
			}
			if ok {
				removed++
			}
		}
		c.out = appendInt(c.out, removed)
		return false
	case cmdIs(cmd, "AUTH"):
		s.cmds.auth.Inc(c.id)
		return s.auth(c, args)
	case cmdIs(cmd, "PING"):
		s.cmds.ping.Inc(c.id)
		if len(args) > 1 {
			c.out = appendBulkBytes(c.out, args[1])
		} else {
			c.out = appendSimple(c.out, "PONG")
		}
		return false
	case cmdIs(cmd, "ECHO"):
		s.cmds.other.Inc(c.id)
		if len(args) != 2 {
			c.out = appendError(c.out, "ERR wrong number of arguments for 'echo' command")
			return false
		}
		c.out = appendBulkBytes(c.out, args[1])
		return false
	case cmdIs(cmd, "INFO"):
		s.cmds.info.Inc(c.id)
		c.out = appendBulkString(c.out, s.info())
		return false
	case cmdIs(cmd, "STATS"):
		s.cmds.stats.Inc(c.id)
		if s.needAuth(c) || s.rejectLoading(c) {
			return false
		}
		c.out = s.statsReply(c.out, c.tenant)
		return false
	case cmdIs(cmd, "SELECT"), cmdIs(cmd, "CLIENT"):
		// Database selection and client options have no meaning here;
		// accepted so redis-benchmark and friends can run unmodified.
		s.cmds.other.Inc(c.id)
		c.out = appendSimple(c.out, "OK")
		return false
	case cmdIs(cmd, "COMMAND"):
		// redis-cli probes COMMAND DOCS on startup; an empty array keeps
		// it happy without implementing introspection.
		s.cmds.other.Inc(c.id)
		c.out = appendArrayHeader(c.out, 0)
		return false
	case cmdIs(cmd, "QUIT"):
		s.cmds.other.Inc(c.id)
		c.out = appendSimple(c.out, "OK")
		return true
	}
	s.cmds.other.Inc(c.id)
	c.out = appendError(c.out, "ERR unknown command")
	return false
}

// access serves one GET/SET in the connection's tenant namespace. GET
// replies with the tier that serviced the page (the engine tracks
// placement, not payloads); SET replies +OK.
func (s *Server) access(c *conn, key []byte, op trace.Op) (closeAfter bool) {
	if s.needAuth(c) || s.rejectLoading(c) {
		return false
	}
	return s.accessAddr(c, keyAddr(key), op)
}

// accessAddr serves one already-resolved address — the one-at-a-time
// engine call behind access and the per-command fallback of flushRun.
func (s *Server) accessAddr(c *conn, addr uint64, op trace.Op) (closeAfter bool) {
	res, err := s.engine.ServeTenant(c.tenant, addr, op)
	if err != nil {
		c.out = appendError(c.out, "ERR "+err.Error())
		// An engine past its lifecycle cannot serve this connection
		// anything further; per-access errors (page out of range) can.
		return errors.Is(err, tiered.ErrStopped) || errors.Is(err, tiered.ErrNotStarted)
	}
	if op == trace.OpRead {
		if res.ServedFrom == mm.LocDRAM {
			c.out = append(c.out, replyDRAM...)
		} else {
			c.out = append(c.out, replyNVM...)
		}
		return false
	}
	c.out = append(c.out, replyOK...)
	return false
}

// needAuth rejects a data command on an unauthenticated connection when
// the server requires AUTH. It appends the error itself.
func (s *Server) needAuth(c *conn) bool {
	if s.cfg.RequireAuth && !c.authed {
		c.out = appendError(c.out, "NOAUTH Authentication required.")
		return true
	}
	return false
}

// loading reports whether the engine is still restoring persisted state.
func (s *Server) loading() bool {
	return s.cfg.Loading != nil && s.cfg.Loading()
}

// rejectLoading answers a data command with -LOADING while the engine
// restores. It appends the error itself.
func (s *Server) rejectLoading(c *conn) bool {
	if s.loading() {
		c.out = appendError(c.out, "LOADING tierd is restoring the checkpoint")
		return true
	}
	return false
}

// auth resolves an AUTH token to a tenant: first the explicit Config.Auth
// table, then the engine's tenant names. Both redis forms are accepted —
// AUTH <token> and AUTH <user> <password> (the token is tried from the
// password first, then the user, so "AUTH default <tenant>" works from
// redis-cli --user flows).
func (s *Server) auth(c *conn, args [][]byte) (closeAfter bool) {
	if len(args) != 2 && len(args) != 3 {
		c.out = appendError(c.out, "ERR wrong number of arguments for 'auth' command")
		return false
	}
	for i := len(args) - 1; i >= 1; i-- {
		if id, ok := s.resolveToken(args[i]); ok {
			c.tenant = id
			c.authed = true
			c.out = appendSimple(c.out, "OK")
			return false
		}
	}
	s.authFailures.Add(1)
	c.out = appendError(c.out, "WRONGPASS invalid tenant token")
	return false
}

// resolveToken maps one AUTH token to a tenant.
func (s *Server) resolveToken(token []byte) (tiered.TenantID, bool) {
	if s.cfg.Auth != nil {
		id, ok := s.cfg.Auth[string(token)]
		return id, ok
	}
	return s.engine.TenantByName(string(token))
}

// info renders the INFO reply: redis-style "key:value" lines in sections,
// covering the server's connection fabric and the engine's placement
// counters.
func (s *Server) info() string {
	st := s.Stats()
	es := s.engine.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "# Server\r\npolicy:%s\r\nuptime_in_seconds:%d\r\n",
		s.engine.PolicyName(), int64(time.Since(s.started).Seconds()))
	fmt.Fprintf(&b, "# Clients\r\nconnected_clients:%d\r\naccepted_connections:%d\r\nevicted_connections:%d\r\nreaped_connections:%d\r\nmax_clients:%d\r\n",
		st.Active, st.Accepted, st.Evicted, st.Reaped, s.cfg.MaxConns)
	fmt.Fprintf(&b, "# Stats\r\ntotal_commands_processed:%d\r\npipelined_commands:%d\r\nbatched_ops:%d\r\nauth_failures:%d\r\nprotocol_errors:%d\r\n",
		st.Commands, st.Pipelined, st.BatchedOps, st.AuthFailures, st.ProtocolErrors)
	fmt.Fprintf(&b, "# Engine\r\naccesses:%d\r\nhits_dram:%d\r\nhits_nvm:%d\r\nfaults:%d\r\npromotions:%d\r\ndemotions:%d\r\nevictions:%d\r\nresident_dram:%d\r\nresident_nvm:%d\r\n",
		es.Accesses, es.HitsDRAM(), es.HitsNVM(), es.Faults,
		es.Promotions, es.Demotions, es.Evictions, es.ResidentDRAM, es.ResidentNVM)
	ds := s.engine.DaemonStats()
	depth := 0
	for _, n := range ds.Nodes {
		depth += n.QueueDepth
	}
	fmt.Fprintf(&b, "# Daemon\r\nscan_epochs:%d\r\nlast_scan_us:%d\r\ncandidates:%d\r\ncoalesced:%d\r\nbatches:%d\r\nbatch_drops:%d\r\nqueue_depth:%d\r\n",
		ds.Epochs, ds.LastScanNS/1000, ds.Candidates, ds.Coalesced,
		ds.Batches, ds.BatchesDropped, depth)
	b.WriteString("# Nodes\r\n")
	for _, n := range s.engine.NodeStats() {
		fmt.Fprintf(&b, "node%d:resident_dram=%d,resident_nvm=%d,faults_local=%d,faults_remote=%d,promotions_local=%d,promotions_remote=%d,demotions_local=%d,demotions_remote=%d\r\n",
			n.ID, n.ResidentDRAM, n.ResidentNVM,
			n.FaultsLocal, n.FaultsRemote,
			n.PromotionsLocal, n.PromotionsRemote,
			n.DemotionsLocal, n.DemotionsRemote)
	}
	return b.String()
}

// statsReply renders STATS: a flat field/value array (machine-readable
// where INFO is human-readable) with the engine aggregate, the server
// fabric counters, and the requesting connection's tenant breakdown.
func (s *Server) statsReply(out []byte, tenant tiered.TenantID) []byte {
	es := s.engine.Stats()
	st := s.Stats()
	type field struct {
		name string
		v    int64
	}
	fields := []field{
		{"accesses", es.Accesses},
		{"hits_dram", es.HitsDRAM()},
		{"hits_nvm", es.HitsNVM()},
		{"faults", es.Faults},
		{"promotions", es.Promotions},
		{"demotions", es.Demotions},
		{"evictions", es.Evictions},
		{"resident_dram", es.ResidentDRAM},
		{"resident_nvm", es.ResidentNVM},
		{"conns_active", st.Active},
		{"conns_accepted", st.Accepted},
		{"conns_evicted", st.Evicted},
		{"conns_reaped", st.Reaped},
		{"commands", st.Commands},
		{"batched_ops", st.BatchedOps},
	}
	if ts, ok := s.engine.TenantStats(tenant); ok {
		fields = append(fields,
			field{"tenant_accesses", ts.Accesses},
			field{"tenant_hits_dram", ts.HitsDRAM},
			field{"tenant_faults", ts.Faults},
			field{"tenant_resident_dram", ts.ResidentDRAM},
		)
	}
	out = appendArrayHeader(out, 2*len(fields))
	for _, f := range fields {
		out = appendBulkString(out, f.name)
		out = appendInt(out, f.v)
	}
	return out
}
