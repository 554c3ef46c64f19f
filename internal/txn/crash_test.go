package txn

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/storage/device"
)

// crashCfg returns the access configuration the crash tests run under: a
// tiny buffer pool (so dirty pages hit the device before checkpoints),
// aggressive checkpointing and a short group-commit window.
func crashCfg(dir string, wrap func(string, device.Device) device.Device) access.Config {
	return access.Config{
		Dir:                dir,
		WAL:                true,
		PageSize:           1024,
		BufferBytes:        64 << 10,
		GroupCommitMaxWait: 100 * time.Microsecond,
		WALCheckpointBytes: 16 << 10,
		FileWrap:           wrap,
	}
}

// setupCrashDB creates a database directory holding just the schema, so
// every incarnation under test starts from the same durable base state.
func setupCrashDB(t *testing.T, dir string) {
	t.Helper()
	sys, err := access.Open(crashCfg(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	part, err := catalog.NewAtomType("part", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "no", Type: catalog.SpecInt()},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Schema().AddAtomType(part); err != nil {
		t.Fatal(err)
	}
	if err := sys.Schema().ResolveAssociations(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashRun executes the deterministic workload against a fresh copy of the
// base database with every device volatile and the given crash plan armed.
// The workload mixes transactions with autocommit statements. It returns
// the durable model (addr -> expected "no" value), the set of every address
// the run ever allocated, the autocommit writes that may or may not have
// reached the log, and — when the crash fired inside a Commit call — that
// transaction's staged changes (which recovery may legitimately have
// preserved, atomically).
type crashOutcome struct {
	model map[addr.LogicalAddr]int64 // state as of the last acked commit
	ever  map[addr.LogicalAddr]bool  // every address allocated pre-crash
	// pending lists, in log order, the autocommit writes since the last
	// acked commit (plus one cut short by the crash). Autocommit does not
	// force the log, so any prefix of them may survive a crash; the next
	// acked commit's flush makes them all durable.
	pending  []effect
	inFlight map[addr.LogicalAddr]int64 // nil unless the crash hit a Commit; -1 = deleted
}

// effect is one autocommit write: atom a's "no" becomes v (-1 = deleted).
type effect struct {
	a addr.LogicalAddr
	v int64
}

const crashTxns = 30

func crashRun(t *testing.T, dir string, plan *device.CrashPlan, seed int64) crashOutcome {
	t.Helper()
	wrap := func(name string, d device.Device) device.Device {
		fd := device.NewFault(d)
		fd.SetVolatile(true)
		fd.SetPlan(plan, strings.HasPrefix(name, "wal_"))
		return fd
	}
	out := crashOutcome{
		model: map[addr.LogicalAddr]int64{},
		ever:  map[addr.LogicalAddr]bool{},
	}
	sys, err := access.Open(crashCfg(dir, wrap))
	if err != nil {
		if plan.Crashed() {
			return out // crash during open-time recovery/checkpoint
		}
		t.Fatal(err)
	}
	defer sys.Close() // after a crash this fails; that is the point

	m := NewManager(sys)
	rng := rand.New(rand.NewSource(seed))
	// The autocommit statements draw from a stream of their own, so the
	// transactions make the same choices as without them.
	acRng := rand.New(rand.NewSource(seed + 1))
	cur := map[addr.LogicalAddr]int64{} // state after every acked write
	var live []addr.LogicalAddr         // cur's addresses, sorted
	refreshLive := func() {
		live = live[:0]
		for a := range cur {
			live = append(live, a)
		}
		// Map iteration order is random; restore determinism for target picks.
		sortAddrs(live)
	}
	nextVal := int64(1)

	for i := 0; i < crashTxns; i++ {
		if acRng.Intn(3) == 0 {
			// An autocommit statement before this transaction.
			ac := m.Autocommit()
			var e effect
			var err error
			switch k := acRng.Intn(10); {
			case len(live) == 0 || k < 5:
				e.v = nextVal
				nextVal++
				e.a, err = sys.Insert(ac, "part", map[string]atom.Value{"no": atom.Int(e.v)})
				if err == nil {
					out.ever[e.a] = true
				}
			case k < 8:
				e.a, e.v = live[acRng.Intn(len(live))], nextVal
				nextVal++
				err = sys.Update(ac, e.a, map[string]atom.Value{"no": atom.Int(e.v)})
			default:
				e.a, e.v = live[acRng.Intn(len(live))], -1
				err = sys.Delete(ac, e.a)
			}
			if err != nil {
				if plan.Crashed() {
					if e.a != 0 {
						out.pending = append(out.pending, e) // may have been logged
					}
					return out
				}
				t.Fatalf("autocommit %d: %v", i, err)
			}
			out.pending = append(out.pending, e)
			if e.v == -1 {
				delete(cur, e.a)
			} else {
				cur[e.a] = e.v
			}
			refreshLive()
		}
		// Stage this transaction's intended effects: -1 marks a delete.
		staged := map[addr.LogicalAddr]int64{}
		var stagedLive []addr.LogicalAddr
		tx := m.Begin()
		nops := 1 + rng.Intn(3)
		doErr := tx.Do(func(sc access.Scope) error {
			for o := 0; o < nops; o++ {
				pool := append(append([]addr.LogicalAddr{}, live...), stagedLive...)
				k := rng.Intn(10)
				switch {
				case len(pool) == 0 || k < 5: // insert
					v := nextVal
					nextVal++
					a, err := sys.Insert(sc, "part", map[string]atom.Value{"no": atom.Int(v)})
					if err != nil {
						return err
					}
					out.ever[a] = true
					staged[a] = v
					stagedLive = append(stagedLive, a)
				case k < 8: // update
					a := pool[rng.Intn(len(pool))]
					if staged[a] == -1 {
						continue
					}
					v := nextVal
					nextVal++
					if err := sys.Update(sc, a, map[string]atom.Value{"no": atom.Int(v)}); err != nil {
						return err
					}
					staged[a] = v
				default: // delete
					a := pool[rng.Intn(len(pool))]
					if staged[a] == -1 {
						continue
					}
					if err := sys.Delete(sc, a); err != nil {
						return err
					}
					staged[a] = -1
				}
			}
			return nil
		})
		if doErr != nil {
			if plan.Crashed() {
				return out // crash mid-statement: the transaction is a loser
			}
			t.Fatalf("txn %d: %v", i, doErr)
		}
		if rng.Intn(10) == 0 {
			if err := tx.Abort(); err != nil {
				if plan.Crashed() {
					return out
				}
				t.Fatalf("txn %d abort: %v", i, err)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			if plan.Crashed() {
				// The commit record may or may not have reached the disk
				// (torn log write): recovery may keep this transaction, but
				// only atomically.
				out.inFlight = staged
				return out
			}
			t.Fatalf("txn %d commit: %v", i, err)
		}
		// Acked: fold the staged changes into the current state; the
		// commit's flush made every earlier autocommit write durable too.
		for a, v := range staged {
			if v == -1 {
				delete(cur, a)
			} else {
				cur[a] = v
			}
		}
		out.model = maps.Clone(cur)
		out.pending = nil
		refreshLive()
	}
	return out
}

func sortAddrs(as []addr.LogicalAddr) {
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j] < as[j-1]; j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}

// checkState verifies that the reopened system's state equals the model:
// every modeled address holds its expected value, every other address the
// run allocated is absent. It returns an error instead of failing so the
// caller can try the in-flight alternative.
func checkState(sys *access.System, out crashOutcome, model map[addr.LogicalAddr]int64) error {
	for a, v := range model {
		if !sys.Directory().Exists(a) {
			return fmt.Errorf("committed atom %v missing", a)
		}
		at, err := sys.Get(a, nil)
		if err != nil {
			return fmt.Errorf("committed atom %v unreadable: %w", a, err)
		}
		got, _ := at.Value("no")
		if got.I != v {
			return fmt.Errorf("atom %v: no = %d, want %d", a, got.I, v)
		}
	}
	for a := range out.ever {
		if _, expected := model[a]; expected {
			continue
		}
		if sys.Directory().Exists(a) {
			return fmt.Errorf("uncommitted/deleted atom %v present", a)
		}
	}
	return nil
}

// recoverAndVerify reopens the crashed database without fault injection,
// letting write-ahead-log recovery run, and checks the committed-prefix
// property; then proves the database is still writable.
func recoverAndVerify(t *testing.T, dir string, out crashOutcome, point string) {
	t.Helper()
	sys, err := access.Open(crashCfg(dir, nil))
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", point, err)
	}
	defer sys.Close()

	// Any prefix of the pending autocommit writes may have reached the log.
	want := maps.Clone(out.model)
	err = checkState(sys, out, want)
	for _, e := range out.pending {
		if err == nil {
			break
		}
		if e.v == -1 {
			delete(want, e.a)
		} else {
			want[e.a] = e.v
		}
		err = checkState(sys, out, want)
	}
	if err != nil && out.inFlight != nil {
		// The in-flight commit's record may have survived (torn tail): then
		// its whole transaction must be present, after every pending write.
		for a, v := range out.inFlight {
			if v == -1 {
				delete(want, a)
			} else {
				want[a] = v
			}
		}
		if errB := checkState(sys, out, want); errB == nil {
			err = nil
		}
	}
	if err != nil {
		t.Fatalf("%s: state after recovery: %v", point, err)
	}

	// The recovered database accepts new work.
	a, err := sys.Insert(access.Scope{}, "part", map[string]atom.Value{"no": atom.Int(424242)})
	if err != nil {
		t.Fatalf("%s: insert after recovery: %v", point, err)
	}
	at, err := sys.Get(a, nil)
	if err != nil {
		t.Fatalf("%s: read-back after recovery: %v", point, err)
	}
	if v, _ := at.Value("no"); v.I != 424242 {
		t.Fatalf("%s: read-back = %d", point, v.I)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", point, err)
	}
}

// TestCrashRecoveryEveryPoint is the crash-recovery property test: it
// rehearses a random workload fault-free to count the durability points
// (device syncs and writes), then replays the same workload crashing at
// every sync and at sampled (torn) writes, reopening and verifying after
// each crash that exactly the acked-committed prefix survived and the
// database still works.
func TestCrashRecoveryEveryPoint(t *testing.T) {
	const seed = 7

	// Rehearsal: count the workload's crash points.
	base := t.TempDir()
	rehearsalDir := filepath.Join(base, "rehearsal")
	setupCrashDB(t, rehearsalDir)
	plan := device.NewCrashPlan() // never armed
	out := crashRun(t, rehearsalDir, plan, seed)
	writes, syncs := plan.Counts()
	if syncs < 5 || writes < 10 {
		t.Fatalf("rehearsal too quiet: %d writes, %d syncs", writes, syncs)
	}
	if len(out.model) == 0 {
		t.Fatal("rehearsal committed nothing")
	}
	recoverAndVerify(t, rehearsalDir, out, "rehearsal")

	syncStep, writeStep := 1, 7
	if testing.Short() {
		syncStep, writeStep = 4, 29
	}

	for k := 1; k <= syncs; k += syncStep {
		k := k
		t.Run(fmt.Sprintf("sync-%d", k), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("sync%d", k))
			setupCrashDB(t, dir)
			plan := device.NewCrashPlan()
			plan.CrashAtSync(k)
			out := crashRun(t, dir, plan, seed)
			recoverAndVerify(t, dir, out, fmt.Sprintf("crash at sync %d", k))
		})
	}

	rng := rand.New(rand.NewSource(seed))
	for j := 1; j <= writes; j += writeStep {
		j := j
		torn := rng.Intn(3 * 1024)
		t.Run(fmt.Sprintf("write-%d", j), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("write%d", j))
			setupCrashDB(t, dir)
			plan := device.NewCrashPlan()
			plan.CrashAtWrite(j, torn)
			out := crashRun(t, dir, plan, seed)
			recoverAndVerify(t, dir, out, fmt.Sprintf("crash at write %d (torn %d)", j, torn))
		})
	}
}
