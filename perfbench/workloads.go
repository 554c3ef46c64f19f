package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"

	"prima"
	"prima/internal/access/addr"
	"prima/internal/txn"
	"prima/internal/wire"
	"prima/internal/workload/brepgen"
)

// spec is one workload: a scene size, a driver and an op mix.
type spec struct {
	name string
	// cubes is the size of the BREP scene. 100 cubes (2,800 atoms) fit the
	// default atom and plan caches; 3,000 cubes (84,000 atoms) do not.
	cubes int
	// wire drives the database through wire.Client against an in-process
	// wire.Server, connected by an in-memory pipe; otherwise through
	// prima.DB in-process.
	wire bool
	// setups is how many times a run sets the workload up; setup_s is the
	// median. Fewer for the large scene, whose set-up takes seconds.
	setups int
	step   func(*session) (sample, error)
	// regime checks that the measured phase ran in the regime the workload
	// exists to measure.
	regime func(d delta, s *session) error
}

// writeShare is the share of ops that write in the checkout mix.
const writeShare = 0.10

var specs = []*spec{
	{name: "checkout-hot", cubes: 100, wire: true, setups: 9,
		step: checkoutStep, regime: cacheRegime(0.9, 1)},
	{name: "checkout-cold", cubes: 3000, wire: true, setups: 3,
		step: checkoutStep, regime: cacheRegime(0, 0.1)},
	{name: "design-tx", cubes: 100, setups: 9,
		step: designTxStep, regime: txRegime},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// rig is one set-up database plus the texts and addresses the ops use.
type rig struct {
	sp      *spec
	db      *prima.DB
	srv     *wire.Server
	conn    connStats
	client  *wire.Client
	pipes   *pipeListener
	edges   [][]addr.LogicalAddr // edges[k-1]: cube k's 12 edges, sorted
	pointQ  []string             // pointQ[k-1] selects cube k
	brepNo  int                  // attribute index of brep.brep_no
	edgeLen int                  // attribute index of edge.length
}

// setUp opens an in-memory database with the WAL on and the tracer off,
// loads the scene, creates the brep_no access path, checks that the point
// query uses it, starts the wire server and client when the workload needs
// them, and runs a warm pass. It is the work setup_s times.
//
// The wire server and client talk over net.Pipe, not loopback TCP: the
// wire code (framing, JSON codec, admission, streaming, client decoding) is
// all there, while the socket wake-ups, which on a shared 2-CPU host made
// checkout runs of the same code spread 30-45%, are not.
func setUp(sp *spec) (r *rig, err error) {
	db, err := prima.Open(prima.Config{WAL: true, TraceSampleRate: 0, SlowQueryThreshold: 0})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	r = &rig{sp: sp, db: db}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	cubes, err := brepgen.BuildScene(db.Engine(), sp.cubes)
	if err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	if _, err := db.Exec(`CREATE ACCESS PATH bno ON brep (brep_no) USING BTREE`); err != nil {
		return nil, fmt.Errorf("access path: %w", err)
	}
	for _, c := range cubes {
		es := slices.Clone(c.Edges)
		slices.Sort(es)
		r.edges = append(r.edges, es)
	}
	for k := 1; k <= sp.cubes; k++ {
		r.pointQ = append(r.pointQ, fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, k))
	}
	schema := db.System().Schema()
	bt, _ := schema.AtomType("brep")
	et, _ := schema.AtomType("edge")
	if bt == nil || et == nil {
		return nil, fmt.Errorf("schema lacks brep or edge")
	}
	r.brepNo, _ = bt.AttrIndex("brep_no")
	r.edgeLen, _ = et.AttrIndex("length")
	if err := r.checkAccess(r.pointQ[0], "accesspath"); err != nil {
		return nil, err
	}
	if sp.wire {
		r.pipes = newPipeListener()
		r.srv = wire.ServeListener(db, r.pipes, wire.ServerConfig{})
		if r.client, err = wire.DialConfig(r.srv.Addr(), wire.ClientConfig{Dialer: r.dial}); err != nil {
			return nil, err
		}
	}
	return r, r.warm()
}

// checkAccess fails unless EXPLAIN shows the query's root access is kind.
func (r *rig) checkAccess(q, kind string) error {
	res, err := r.db.ExecOne("EXPLAIN " + q)
	if err != nil {
		return fmt.Errorf("explain: %w", err)
	}
	if !strings.Contains(res.Message, "root access: "+kind) {
		return fmt.Errorf("%q does not plan as %s:\n%s", q, kind, res.Message)
	}
	return nil
}

// warm runs every query text the workload reads with once, in order, so
// that caches and lazy set-up are in their steady state before timing and
// the state does not depend on the seed. On the large scene the pass
// touches more pages than the buffer pool holds, which also replaces the
// pool contents that background checkpoints during the bulk load left in a
// timing-dependent state.
func (r *rig) warm() error {
	for _, q := range r.pointQ {
		if _, err := r.db.Exec(q); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	return nil
}

// dial is the client's Dialer: it opens a pipe to the server and wraps the
// client's end in a countConn.
func (r *rig) dial(string) (net.Conn, error) {
	c, err := r.pipes.dial()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, st: &r.conn}, nil
}

// stopWire closes the wire client and then the server, which returns once
// every connection handler has ended.
func (r *rig) stopWire() {
	if r.client != nil {
		r.client.Close()
		r.client = nil
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
}

func (r *rig) close() {
	r.stopWire()
	r.db.Close()
}

// session is the closed-loop client: it issues the next op when the last
// one has completed. Its op sequence comes from a random stream derived
// from the seed only.
type session struct {
	r    *rig
	rng  *rand.Rand
	last int // cube of the last checkout, 0 before the first

	acked    map[addr.LogicalAddr]float64 // last acknowledged edge length
	n        tally                        // since the session began, across phases
	phaseN   tally                        // at the start of the current phase
	firstErr error
	digest   uint64 // FNV-1a over the op sequence
	samples  []sample
	tr       *spanLog // nil when untraced
}

// tally counts what a session did.
type tally struct {
	attempted, failed int
	writes            int // acknowledged checkins, MODIFYs and commits
	dmlProbes         int // DML texts sent; each is one plan-cache miss
	molecules         int // molecules delivered
	conflicts         int
}

func (r *rig) session(seed uint64) *session {
	return &session{
		r:      r,
		rng:    rand.New(rand.NewPCG(seed, 0)),
		acked:  map[addr.LogicalAddr]float64{},
		digest: 14695981039346656037,
	}
}

// mix folds one op into the session's sequence digest.
func (s *session) mix(vals ...int) {
	for _, v := range vals {
		s.digest ^= uint64(v)
		s.digest *= 1099511628211
	}
}

// value returns the i-th (i < 32) new edge length of the current op,
// unique to this op and exact in binary. Its fraction is
// never 0, so its literal is a REAL one: MQL stores an integer literal
// assigned to a REAL attribute as an INTEGER value.
func (s *session) value(i int) (float64, string) {
	v := float64(s.n.attempted) + 0.5 + float64(i)/64
	return v, strconv.FormatFloat(v, 'f', -1, 64)
}

func modifyEdge(e addr.LogicalAddr, lit string) string {
	return fmt.Sprintf("MODIFY edge SET length = %s WHERE edge_id = @%d.%d", lit, e.Type(), e.Seq())
}

// phase runs the session until the deadline, or for limit ops when
// limit > 0, and returns what it measured.
func (r *rig) phase(s *session, length time.Duration, limit int, traced bool) phaseResult {
	start := time.Now()
	deadline := start.Add(length)
	stop := make(chan struct{})
	heap := make(chan []float64, 1)
	go func() { heap <- sampleHeap(stop) }()
	s.samples = s.samples[:0]
	s.phaseN = s.n
	s.tr = nil
	if traced {
		s.tr = newSpanLog(start)
	}
	for n := 0; ; n++ {
		if limit > 0 && n >= limit || limit == 0 && !time.Now().Before(deadline) {
			break
		}
		s.n.attempted++
		s.tr.beginOp(s.n.attempted)
		sm, err := r.sp.step(s)
		s.tr.endOp()
		if err != nil {
			s.n.failed++
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("op %d: %w", s.n.attempted, err)
			}
			continue
		}
		sm.at = time.Since(start)
		s.samples = append(s.samples, sm)
	}
	elapsed := time.Since(start)
	close(stop)
	return phaseResult{elapsed: elapsed, samples: s.samples, heapMiB: <-heap}
}

// checkoutStep is the checkout-hot and checkout-cold op: a checkout of one
// random cube, or (writeShare of ops, once a cube is checked out) a checkin
// that changes one edge of the last checked-out cube.
func checkoutStep(s *session) (sample, error) {
	r := s.r
	if s.last == 0 || s.rng.Float64() >= writeShare {
		k := 1 + s.rng.IntN(r.sp.cubes)
		s.mix(0, k)
		t0 := time.Now()
		sp := s.tr.begin("Client.Checkout")
		mols, err := r.client.Checkout(r.pointQ[k-1])
		s.tr.end(sp)
		lat := time.Since(t0)
		if err != nil {
			return sample{}, err
		}
		if err := r.checkWireCube(mols, k); err != nil {
			return sample{}, err
		}
		s.last = k
		s.n.molecules++
		return sample{read: lat, atoms: len(mols[0].Atoms)}, nil
	}
	es := r.edges[s.last-1]
	e := es[s.rng.IntN(len(es))]
	s.mix(1, int(e))
	v, lit := s.value(0)
	t0 := time.Now()
	sp := s.tr.begin("Client.Checkin")
	err := r.client.StageModify("edge", uint64(e), "length", lit)
	var resp *wire.Response
	if err == nil {
		resp, err = r.client.Checkin()
	}
	s.tr.end(sp)
	lat := time.Since(t0)
	s.n.dmlProbes++
	if err != nil {
		return sample{}, err
	}
	if resp.Count != 1 {
		return sample{}, fmt.Errorf("checkin of %v modified %d atoms, want 1", e, resp.Count)
	}
	s.acked[e] = v
	s.n.writes++
	return sample{write: lat}, nil
}

// checkWireCube checks a checkout of cube k: one molecule of 27 atoms
// whose root is brep k and whose edges are exactly cube k's.
func (r *rig) checkWireCube(mols []wire.MoleculeJSON, k int) error {
	if len(mols) != 1 {
		return fmt.Errorf("checkout of cube %d: %d molecules, want 1", k, len(mols))
	}
	m := mols[0]
	if len(m.Atoms) != brepgen.CubeAtoms {
		return fmt.Errorf("checkout of cube %d: %d atoms, want %d", k, len(m.Atoms), brepgen.CubeAtoms)
	}
	var edges []addr.LogicalAddr
	rootOK := false
	for _, a := range m.Atoms {
		switch {
		case a.Addr == m.Root:
			rootOK = a.Type == "brep" && a.Values["brep_no"] == strconv.Itoa(k)
		case a.Type == "edge":
			edges = append(edges, addr.LogicalAddr(a.Addr))
		}
	}
	if !rootOK {
		return fmt.Errorf("checkout of cube %d: root is not brep %d", k, k)
	}
	slices.Sort(edges)
	if !slices.Equal(edges, r.edges[k-1]) {
		return fmt.Errorf("checkout of cube %d: wrong edges", k)
	}
	return nil
}

// checkCube checks an in-process molecule the way checkWireCube does.
func (r *rig) checkCube(m *prima.Molecule, k int) error {
	if n := m.Size(); n != brepgen.CubeAtoms {
		return fmt.Errorf("cube %d: %d atoms, want %d", k, n, brepgen.CubeAtoms)
	}
	if got := m.Root.Atom.Values[r.brepNo].I; got != int64(k) {
		return fmt.Errorf("molecule has brep_no %d, want %d", got, k)
	}
	var edges []addr.LogicalAddr
	for _, a := range m.AtomsOf("edge") {
		edges = append(edges, a.Addr())
	}
	slices.Sort(edges)
	if !slices.Equal(edges, r.edges[k-1]) {
		return fmt.Errorf("cube %d: wrong edges", k)
	}
	return nil
}

// designTxStep is the design-tx op: in one transaction, select one cube,
// MODIFY its 12 edges by address in one script, and commit.
func designTxStep(s *session) (sample, error) {
	r := s.r
	k := 1 + s.rng.IntN(r.sp.cubes)
	s.mix(2, k)
	tx := r.db.Begin()
	t0 := time.Now()
	sp := s.tr.begin("Tx.Exec:select")
	res, err := tx.Exec(r.pointQ[k-1])
	s.tr.end(sp)
	read := time.Since(t0)
	if err == nil && (len(res) != 1 || len(res[0].Molecules) != 1) {
		err = fmt.Errorf("select of cube %d did not return one molecule", k)
	}
	if err == nil {
		err = r.checkCube(res[0].Molecules[0], k)
	}
	if err != nil {
		return sample{}, s.abort(tx, err)
	}
	s.n.molecules++
	atoms := res[0].Molecules[0].Size()

	es := r.edges[k-1]
	vals := make([]float64, len(es))
	var b strings.Builder
	for i, e := range es {
		var lit string
		vals[i], lit = s.value(i)
		b.WriteString(modifyEdge(e, lit))
		b.WriteString(";\n")
	}
	t1 := time.Now()
	sp = s.tr.begin("Tx.Exec:modify")
	res, err = tx.Exec(b.String())
	s.tr.end(sp)
	s.n.dmlProbes++
	if err == nil && len(res) != len(es) {
		err = fmt.Errorf("MODIFY script returned %d results, want %d", len(res), len(es))
	}
	for i := 0; err == nil && i < len(res); i++ {
		if res[i].Count != 1 {
			err = fmt.Errorf("MODIFY of %v modified %d atoms, want 1", es[i], res[i].Count)
		}
	}
	if err != nil {
		return sample{}, s.abort(tx, err)
	}
	sp = s.tr.begin("Tx.Commit")
	err = tx.Commit()
	s.tr.end(sp)
	write := time.Since(t1)
	if err != nil {
		return sample{}, err
	}
	for i, e := range es {
		s.acked[e] = vals[i]
	}
	s.n.writes++
	return sample{read: read, write: write, atoms: atoms}, nil
}

func (s *session) abort(tx *prima.Tx, err error) error {
	if errors.Is(err, txn.ErrLockConflict) {
		s.n.conflicts++
	}
	if aerr := tx.Abort(); aerr != nil {
		return fmt.Errorf("%w (abort: %v)", err, aerr)
	}
	return err
}

// verifyWrites reads back every edge whose change was acknowledged and
// returns how many edges were checked and how many no longer hold their
// last acknowledged length.
func (r *rig) verifyWrites(s *session) (checked, lost int, err error) {
	for e, want := range s.acked {
		res, err := r.db.ExecOne(fmt.Sprintf("SELECT ALL FROM edge WHERE edge_id = @%d.%d", e.Type(), e.Seq()))
		if err != nil {
			return checked, lost, fmt.Errorf("read back %v: %w", e, err)
		}
		checked++
		if len(res.Molecules) != 1 || res.Molecules[0].Root.Atom.Values[r.edgeLen].F != want {
			lost++
		}
	}
	return checked, lost, nil
}
