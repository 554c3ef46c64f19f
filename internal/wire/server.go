package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prima"
	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/core"
	"prima/internal/obs"
)

// Resilience defaults; a ServerConfig field of 0 selects these, a negative
// value disables the knob entirely.
const (
	// DefaultIdleTimeout bounds how long a connection may sit between
	// requests. Design sessions are long-lived (§4: a workstation keeps
	// molecules checked out for hours), so the default is generous — it
	// exists to reclaim conns whose peer is gone, not to cut slow thinkers.
	DefaultIdleTimeout = 10 * time.Minute
	// DefaultReadTimeout bounds reading a request body once its frame
	// header arrived: a peer that starts a frame must finish it promptly.
	DefaultReadTimeout = 30 * time.Second
	// DefaultWriteTimeout bounds each response/stream-frame write; it is
	// what unpins cursors and snapshots when a streaming client dies.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultMaxConns caps concurrently open connections.
	DefaultMaxConns = 1024
	// DefaultMaxInFlight caps concurrently executing requests.
	DefaultMaxInFlight = 64
	// DefaultQueueWait bounds how long an admitted connection's request
	// waits for an in-flight slot before being shed with a retryable error.
	DefaultQueueWait = time.Second
	// acceptRetryLimit bounds consecutive transient accept failures before
	// the accept loop gives up (a listener that fails this often is dead).
	acceptRetryLimit = 100
	// acceptBackoffMax caps the accept retry backoff.
	acceptBackoffMax = time.Second
)

// ServerConfig tunes the server's resilience behavior. The zero value
// selects the defaults above; negative values disable individual knobs
// (no timeout / no cap).
type ServerConfig struct {
	IdleTimeout  time.Duration // max silence between requests on a conn
	ReadTimeout  time.Duration // max time to finish a started request frame
	WriteTimeout time.Duration // max time per response/stream-frame write
	MaxConns     int           // concurrent connection cap
	MaxInFlight  int           // concurrent request cap
	QueueWait    time.Duration // max wait for an in-flight slot before shedding
}

func (c ServerConfig) withDefaults() ServerConfig {
	def := func(v *time.Duration, d time.Duration) {
		if *v == 0 {
			*v = d
		} else if *v < 0 {
			*v = 0
		}
	}
	def(&c.IdleTimeout, DefaultIdleTimeout)
	def(&c.ReadTimeout, DefaultReadTimeout)
	def(&c.WriteTimeout, DefaultWriteTimeout)
	if c.MaxConns == 0 {
		c.MaxConns = DefaultMaxConns
	} else if c.MaxConns < 0 {
		c.MaxConns = 0
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	} else if c.MaxInFlight < 0 {
		c.MaxInFlight = 0
	}
	def(&c.QueueWait, DefaultQueueWait)
	return c
}

// srvConn is one accepted connection plus the state the drain protocol
// needs: a request is either being served (active) or the conn is idle
// between requests; a draining server closes idle conns immediately and
// lets active ones finish their current request.
type srvConn struct {
	net.Conn
	mu     sync.Mutex
	active bool
	doomed bool // close as soon as the conn is not serving a request
}

// beginRequest marks the conn active; it reports false when the conn was
// doomed while idle-reading, in which case the just-read request must be
// discarded unprocessed (the peer sees a closed conn, exactly as if the
// request had never arrived).
func (sc *srvConn) beginRequest() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.doomed {
		return false
	}
	sc.active = true
	return true
}

// endRequest marks the conn idle again; it reports false when the conn was
// doomed mid-request and the handler must exit.
func (sc *srvConn) endRequest() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.active = false
	return !sc.doomed
}

// drainClose dooms the conn: closed now if idle, after the in-flight
// request otherwise.
func (sc *srvConn) drainClose() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.doomed = true
	if !sc.active {
		sc.Conn.Close()
	}
}

// Server exposes a PRIMA database over TCP.
type Server struct {
	db  *prima.DB
	ln  net.Listener
	cfg ServerConfig

	mu       sync.Mutex
	closed   bool
	draining bool
	conns    map[*srvConn]struct{}
	wg       sync.WaitGroup // one count per live handler

	inflight chan struct{} // in-flight request semaphore (nil = unlimited)

	// Wire health counters (see StatsJSON).
	connsTotal    atomic.Uint64
	connsRejected atomic.Uint64
	requests      atomic.Uint64
	shed          atomic.Uint64
	streamAborts  atomic.Uint64
	panics        atomic.Uint64
	acceptRetries atomic.Uint64

	// opNs times each op's server-side handling (admission through response
	// written), keyed by op code. Built once in ServeListener.
	opNs map[string]*obs.Histogram
}

// Serve starts serving on the given address ("" picks an ephemeral port)
// with the default resilience configuration.
func Serve(db *prima.DB, address string) (*Server, error) {
	return ServeConfig(db, address, ServerConfig{})
}

// ServeConfig starts serving with explicit resilience knobs.
func ServeConfig(db *prima.DB, address string, cfg ServerConfig) (*Server, error) {
	if address == "" {
		address = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", address)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	return ServeListener(db, ln, cfg), nil
}

// ServeListener serves on an established listener — the injection point for
// fault-wrapped listeners (FaultPlan.Listen) and custom transports. The
// server owns the listener and closes it on shutdown.
func ServeListener(db *prima.DB, ln net.Listener, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{db: db, ln: ln, cfg: cfg, conns: map[*srvConn]struct{}{}}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	reg := db.System().Obs()
	s.opNs = map[string]*obs.Histogram{
		OpPing:     reg.Histogram("wire_ping_ns"),
		OpExec:     reg.Histogram("wire_exec_ns"),
		OpCheckout: reg.Histogram("wire_checkout_ns"),
		OpGetAtom:  reg.Histogram("wire_getatom_ns"),
		OpStats:    reg.Histogram("wire_stats_ns"),
		OpSlow:     reg.Histogram("wire_slow_ns"),
	}
	// Mirror the wire health counters into the database's registry so one
	// snapshot covers the whole stack. Registration replaces any previous
	// server's mirrors (last server wins) — fine for the one-server-per-DB
	// deployment primad runs, and harmless in tests that re-serve a DB.
	reg.GaugeFunc("wire_conns_active", func() float64 { return float64(s.ActiveConns()) })
	reg.GaugeFunc("wire_inflight", func() float64 { return float64(s.InFlight()) })
	reg.CounterFunc("wire_conns_total", s.connsTotal.Load)
	reg.CounterFunc("wire_conns_rejected", s.connsRejected.Load)
	reg.CounterFunc("wire_requests", s.requests.Load)
	reg.CounterFunc("wire_shed", s.shed.Load)
	reg.CounterFunc("wire_stream_aborts", s.streamAborts.Load)
	reg.CounterFunc("wire_panics", s.panics.Load)
	reg.CounterFunc("wire_accept_retries", s.acceptRetries.Load)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ActiveConns returns the number of currently open connections.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// InFlight returns the number of requests being served right now.
func (s *Server) InFlight() int {
	if s.inflight == nil {
		return -1
	}
	return len(s.inflight)
}

// Close stops the server immediately: the listener and every connection are
// closed, in-flight requests fail their writes, and Close returns only
// after the last handler has exited — no handler touches the DB after
// Close returns.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, sc := range conns {
		sc.Conn.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting, closes idle
// connections, lets every in-flight request finish (a checkout stream runs
// to completion), and returns once all handlers exited. If ctx expires
// first, the remaining connections are closed hard and ctx's error is
// returned; Shutdown still waits for the handlers before returning, so the
// DB can be closed safely afterwards either way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, sc := range conns {
		sc.drainClose()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for sc := range s.conns {
			sc.Conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return err
}

// acceptLoop accepts connections until the listener closes. Transient
// accept errors (EMFILE, injected faults) are retried with exponential
// backoff instead of killing the loop; only acceptRetryLimit consecutive
// failures — or a closed listener — end it.
func (s *Server) acceptLoop() {
	backoff := 5 * time.Millisecond
	fails := 0
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed || s.draining
			s.mu.Unlock()
			if stopped || errors.Is(err, net.ErrClosed) {
				return
			}
			fails++
			if fails > acceptRetryLimit {
				log.Printf("wire: accept failed %d times, giving up: %v", fails, err)
				return
			}
			s.acceptRetries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		fails, backoff = 0, 5*time.Millisecond
		s.admit(conn)
	}
}

// admit applies the connection cap and registers the conn. A rejected conn
// gets a retryable error response so a well-behaved client backs off
// instead of reconnect-hammering.
func (s *Server) admit(conn net.Conn) {
	sc := &srvConn{Conn: conn}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.connsRejected.Add(1)
		go func() {
			s.writeMsg(sc, &Response{Retryable: true,
				Error: fmt.Sprintf("connection cap (%d) reached", s.cfg.MaxConns)})
			conn.Close()
		}()
		return
	}
	s.conns[sc] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.connsTotal.Add(1)
	go s.handle(sc)
}

// handle serves one connection. A panic anywhere in request handling is
// recovered here: the conn dies, the server does not.
func (s *Server) handle(sc *srvConn) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			log.Printf("wire: handler panic: %v", r)
		}
		sc.Conn.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()
	for {
		var req Request
		if err := s.readRequest(sc, &req); err != nil {
			return // peer gone, idle-timed out, or mid-frame stall
		}
		if !sc.beginRequest() {
			return // doomed while idle: discard unprocessed
		}
		if !s.serveRequest(sc, &req) {
			return
		}
		if !sc.endRequest() {
			return // doomed mid-request: served, now close
		}
	}
}

// readRequest reads one request under the deadline regime: waiting for the
// frame header spends the idle budget, reading the body the (much shorter)
// read budget.
func (s *Server) readRequest(sc *srvConn, req *Request) error {
	if err := s.setReadDeadline(sc, s.cfg.IdleTimeout); err != nil {
		return err
	}
	n, err := readHeader(sc)
	if err != nil {
		return err
	}
	if err := s.setReadDeadline(sc, s.cfg.ReadTimeout); err != nil {
		return err
	}
	return readBody(sc, n, req)
}

func (s *Server) setReadDeadline(sc *srvConn, d time.Duration) error {
	if d <= 0 {
		return sc.Conn.SetReadDeadline(time.Time{})
	}
	return sc.Conn.SetReadDeadline(time.Now().Add(d))
}

// writeMsg writes one message under the write deadline.
func (s *Server) writeMsg(sc *srvConn, v interface{}) error {
	if s.cfg.WriteTimeout > 0 {
		if err := sc.Conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
			return err
		}
	}
	return WriteMsg(sc.Conn, v)
}

// serveRequest admits one request through the in-flight semaphore and
// serves it; it reports false when the connection is no longer usable.
// Ping, stats and slow bypass admission control: they are cheap and they are
// how an operator observes an overloaded server.
//
// Non-diagnostic requests run under a request trace when the DB's tracer is
// armed (sampling or a slow-query threshold): the trace ID rides back on the
// response so a client can correlate its worst latencies with the server's
// retained span trees. The trace finishes after the response (or the last
// stream frame) is written, so slow-query retention sees the full
// server-side duration including the write.
func (s *Server) serveRequest(sc *srvConn, req *Request) bool {
	diagnostic := req.Op == OpPing || req.Op == OpStats || req.Op == OpSlow
	if !diagnostic {
		if !s.acquireSlot() {
			s.shed.Add(1)
			return s.writeMsg(sc, &Response{Retryable: true,
				Error: fmt.Sprintf("shed: %d requests in flight, queue wait exceeded", len(s.inflight))}) == nil
		}
		defer func() { <-s.inflight }()
	}
	s.requests.Add(1)
	opStart := time.Now()
	var tr *obs.Trace
	if !diagnostic {
		tr = s.db.Tracer().Begin("wire:" + req.Op)
		tr.SetAttr("op", req.Op)
		if req.MQL != "" {
			tr.SetAttr("mql", req.MQL)
		}
	}
	var ok bool
	if req.Op == OpCheckout {
		ok = s.streamCheckout(sc, req, tr) == nil
	} else {
		resp := s.safeDispatch(req, tr)
		if resp.TraceID == "" {
			resp.TraceID = tr.ID()
		}
		ok = s.writeMsg(sc, resp) == nil
	}
	tr.Finish()
	s.opNs[req.Op].ObserveSince(opStart)
	return ok
}

// acquireSlot takes an in-flight slot, waiting at most QueueWait.
func (s *Server) acquireSlot() bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
	}
	if s.cfg.QueueWait <= 0 {
		return false
	}
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// safeDispatch runs dispatch with panic recovery: a request that blows up
// answers with an error instead of tearing the connection (or server) down.
// Nothing has been written when dispatch panics, so the conn stays
// synchronized.
func (s *Server) safeDispatch(req *Request, tr *obs.Trace) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			log.Printf("wire: %s panic: %v", req.Op, r)
			resp = &Response{Error: fmt.Sprintf("internal error serving %s", req.Op)}
		}
	}()
	return s.dispatch(req, tr)
}

// streamChunk caps the number of molecules per checkout stream frame;
// frameBudget caps its payload bytes (molecule sizes are unbounded — CAD
// molecules can be huge — so chunking by count alone could overflow the
// wire's frame limit).
const (
	streamChunk = 32
	frameBudget = maxFrame / 2
)

// rawFrame is the server-side stream frame: molecules are pre-encoded
// exactly once and embedded verbatim, so size-aware packing never
// re-marshals payload. It is wire-identical to Response.
type rawFrame struct {
	OK        bool              `json:"ok"`
	Count     int               `json:"count,omitempty"`
	Molecules []json.RawMessage `json:"molecules,omitempty"`
	Epoch     uint64            `json:"epoch,omitempty"`
	More      bool              `json:"more,omitempty"`
	TraceID   string            `json:"traceId,omitempty"`
}

// streamCheckout runs a SELECT through a molecule cursor and streams the
// qualified molecules to the client in chunks, so the server never holds the
// whole result set: the cursor produces while earlier chunks are already on
// the wire. Frames close at streamChunk molecules or frameBudget bytes,
// whichever comes first. A single molecule too large for any frame aborts
// the stream with a terminal error frame (nothing follows it, so the
// connection stays synchronized). The returned error is non-nil only when
// the connection itself failed — including a slow or dead client tripping
// the write deadline, which is what guarantees the deferred cursor Close
// (and with it the MVCC snapshot release) instead of pinning versions for
// as long as the peer stays wedged. A panic mid-assembly propagates to
// handle's recover after the deferred Close runs; the conn is torn down
// since frames may already be on the wire.
func (s *Server) streamCheckout(sc *srvConn, req *Request, tr *obs.Trace) (err error) {
	cur, err := s.db.QueryTraced(req.MQL, tr)
	if err != nil {
		return s.writeMsg(sc, &Response{Error: err.Error()})
	}
	defer cur.Close()
	defer func() {
		if err != nil {
			s.streamAborts.Add(1)
		}
	}()
	count := 0
	var pending []json.RawMessage
	var pendingBytes int
	epoch := cur.Epoch()
	flush := func(more bool) error {
		f := &rawFrame{OK: true, Molecules: pending, Epoch: epoch, More: more}
		if !more {
			f.Count = count
			// The final frame names the trace: by now the whole result set
			// has been assembled and (almost entirely) written.
			f.TraceID = tr.ID()
		}
		err := s.writeMsg(sc, f)
		pending, pendingBytes = nil, 0
		return err
	}
	for {
		m, err := cur.Next()
		if err != nil {
			return s.writeMsg(sc, &Response{Error: err.Error()})
		}
		if m == nil {
			break
		}
		raw, err := json.Marshal(moleculeToJSON(m))
		if err != nil {
			return s.writeMsg(sc, &Response{Error: err.Error()})
		}
		if len(raw) > maxFrame-1024 {
			return s.writeMsg(sc, &Response{Error: fmt.Sprintf("%v: molecule %v encodes to %d bytes", ErrFrameTooBig, m.Root.Addr(), len(raw))})
		}
		if len(pending) > 0 && (len(pending) >= streamChunk || pendingBytes+len(raw) > frameBudget) {
			if err := flush(true); err != nil {
				return err
			}
		}
		pending = append(pending, raw)
		pendingBytes += len(raw)
		count++
	}
	return flush(false)
}

// statsFromSnapshot projects the flat StatsJSON view out of one registry
// snapshot — the single source both the legacy stats fields and the full
// metrics payload now share (wire fields are overridden per-server by the
// stats dispatch; WALCheckpointErr is not a numeric metric and is filled
// from the system directly).
func statsFromSnapshot(ms *obs.MetricsSnapshot) *StatsJSON {
	return &StatsJSON{
		AtomCacheHits:          ms.Counter("atom_cache_hits"),
		AtomCacheMisses:        ms.Counter("atom_cache_misses"),
		AtomCacheInvalidations: ms.Counter("atom_cache_invalidations"),
		AtomCacheEvictions:     ms.Counter("atom_cache_evictions"),
		AtomCacheAtoms:         int(ms.Gauge("atom_cache_atoms")),
		AtomCacheBudget:        int(ms.Gauge("atom_cache_budget")),
		BufferHits:             int64(ms.Counter("buffer_hits")),
		BufferMisses:           int64(ms.Counter("buffer_misses")),
		BufferEvictions:        int64(ms.Counter("buffer_evictions")),
		PlanCacheHits:          ms.Counter("plan_cache_hits"),
		PlanCacheMisses:        ms.Counter("plan_cache_misses"),
		PlanCacheSize:          int(ms.Gauge("plan_cache_size")),
		WALEnabled:             ms.Gauge("wal_enabled") != 0,
		WALAppends:             ms.Counter("wal_appends"),
		WALBytes:               ms.Counter("wal_bytes"),
		WALSyncs:               ms.Counter("wal_syncs"),
		WALCommits:             ms.Counter("wal_commits"),
		WALBatches:             ms.Counter("wal_batches"),
		WALCheckpoints:         ms.Counter("wal_checkpoints"),
		WALRecoveries:          ms.Counter("wal_recoveries"),
	}
}

// testHookDispatch, when non-nil, observes every dispatched request before
// execution; resilience tests use it to provoke handler panics.
var testHookDispatch func(*Request)

func (s *Server) dispatch(req *Request, tr *obs.Trace) *Response {
	if testHookDispatch != nil {
		testHookDispatch(req)
	}
	switch req.Op {
	case OpPing:
		return &Response{OK: true, Message: "pong"}
	case OpSlow:
		traces := s.db.Tracer().Slow()
		if req.N > 0 && len(traces) > req.N {
			traces = traces[:req.N]
		}
		return &Response{OK: true, Traces: traces, Count: len(traces)}
	case OpExec:
		results, err := s.db.ExecTraced(req.MQL, tr)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		resp := &Response{OK: true}
		for _, r := range results {
			resp.Count += r.Count
			for _, a := range r.Inserted {
				resp.Inserted = append(resp.Inserted, uint64(a))
			}
			resp.Molecules = append(resp.Molecules, moleculesToJSON(r.Molecules)...)
			if r.Message != "" {
				resp.Message = r.Message
			}
		}
		return resp
	case OpGetAtom:
		at, err := s.db.System().Get(addr.LogicalAddr(req.Addr), nil)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		aj := atomToJSON(at)
		return &Response{OK: true, Atom: &aj}
	case OpStats:
		ms := s.db.Metrics()
		sj := statsFromSnapshot(ms)
		// The wire fields come from this server's own counters, not the
		// registry mirrors — several servers can share one DB in tests, and
		// the stats response must describe the server that answered it.
		sj.WireConnsActive = s.ActiveConns()
		sj.WireConnsTotal = s.connsTotal.Load()
		sj.WireConnsRejected = s.connsRejected.Load()
		sj.WireInFlight = len(s.inflight)
		sj.WireRequests = s.requests.Load()
		sj.WireShed = s.shed.Load()
		sj.WireStreamAborts = s.streamAborts.Load()
		sj.WirePanics = s.panics.Load()
		sj.WireAcceptRetries = s.acceptRetries.Load()
		if cerr := s.db.System().WALCheckpointErr(); cerr != nil {
			sj.WALCheckpointErr = cerr.Error()
		}
		return &Response{OK: true, Message: ms.Summary(), Stats: sj, Metrics: ms}
	default:
		return &Response{Error: "unknown op " + req.Op}
	}
}

func moleculesToJSON(mols []*core.Molecule) []MoleculeJSON {
	out := make([]MoleculeJSON, 0, len(mols))
	for _, m := range mols {
		out = append(out, moleculeToJSON(m))
	}
	return out
}

func moleculeToJSON(m *core.Molecule) MoleculeJSON {
	mj := MoleculeJSON{Root: uint64(m.Root.Addr())}
	for _, tn := range m.Type.AtomTypes() {
		for _, ma := range m.AtomsOf(tn) {
			if ma.Hidden {
				continue
			}
			mj.Atoms = append(mj.Atoms, atomToJSON(ma.Atom))
		}
	}
	return mj
}

func atomToJSON(at *access.Atom) AtomJSON {
	aj := AtomJSON{Addr: uint64(at.Addr), Type: at.Type.Name, Values: map[string]string{}}
	for i, a := range at.Type.Attrs {
		v := at.Values[i]
		if v.IsNull() {
			continue
		}
		aj.Values[a.Name] = renderValue(v)
	}
	return aj
}

// renderValue renders a value in MQL literal syntax (so clients can feed it
// back through checkin statements).
func renderValue(v atom.Value) string {
	switch v.K {
	case atom.KindInt:
		return strconv.FormatInt(v.I, 10)
	case atom.KindReal:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case atom.KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case atom.KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case atom.KindIdent, atom.KindRef:
		return fmt.Sprintf("@%d.%d", v.A.Type(), v.A.Seq())
	case atom.KindSet, atom.KindList, atom.KindRecord, atom.KindArray:
		parts := make([]string, len(v.E))
		for i, e := range v.E {
			parts[i] = renderValue(e)
		}
		open, close := "{", "}"
		switch v.K {
		case atom.KindList, atom.KindArray:
			open, close = "[", "]"
		case atom.KindRecord:
			open, close = "(", ")"
		}
		return open + strings.Join(parts, ", ") + close
	default:
		return "NULL"
	}
}
