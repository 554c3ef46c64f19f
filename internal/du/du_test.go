package du

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/core"
	"prima/internal/mql"
	"prima/internal/workload/brepgen"
)

func newScene(t testing.TB, n int) *core.Engine {
	t.Helper()
	sys, err := access.Open(access.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(sys)
	if err := brepgen.InstallSchema(e); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(e, n); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParallelCollectMatchesSequential(t *testing.T) {
	e := newScene(t, 12)
	stmt, err := mql.ParseOne(`SELECT ALL FROM brep-face-edge-point WHERE brep_no >= 4`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.PlanSelect(stmt.(*mql.Select))
	if err != nil {
		t.Fatal(err)
	}

	cur, err := plan.Open()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		par, err := ParallelCollect(plan, workers)
		if err != nil {
			t.Fatalf("ParallelCollect(%d): %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d molecules, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].Root.Addr() != seq[i].Root.Addr() {
				t.Fatalf("workers=%d: result order differs at %d", workers, i)
			}
			if par[i].Size() != seq[i].Size() {
				t.Fatalf("workers=%d: molecule %d size %d != %d", workers, i, par[i].Size(), seq[i].Size())
			}
		}
	}
}

func TestSchedulerConflictSerialization(t *testing.T) {
	shared := addr.New(1, 99)
	var units []*Unit
	// 8 units writing the same atom (must serialize) + 8 disjoint ones.
	for i := 0; i < 8; i++ {
		units = append(units, &Unit{ID: i, Writes: map[addr.LogicalAddr]bool{shared: true}})
	}
	for i := 8; i < 16; i++ {
		units = append(units, &Unit{ID: i, Writes: map[addr.LogicalAddr]bool{addr.New(1, uint64(i)): true}})
	}

	var mu sync.Mutex
	inShared := 0
	maxShared := 0
	var total int32
	err := Scheduler{Workers: 8}.Run(units, func(u *Unit) error {
		if u.Writes[shared] {
			mu.Lock()
			inShared++
			if inShared > maxShared {
				maxShared = inShared
			}
			mu.Unlock()
			for i := 0; i < 1000; i++ { // widen the race window
				_ = i
			}
			mu.Lock()
			inShared--
			mu.Unlock()
		}
		atomic.AddInt32(&total, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 16 {
		t.Fatalf("executed %d units, want 16", total)
	}
	if maxShared > 1 {
		t.Fatalf("conflicting units overlapped: %d concurrent", maxShared)
	}
}

func TestSchedulerErrorStopsSchedule(t *testing.T) {
	units := DecomposeRoots(make([]addr.LogicalAddr, 100), 1)
	boom := errors.New("boom")
	var ran int32
	err := Scheduler{Workers: 4}.Run(units, func(u *Unit) error {
		if atomic.AddInt32(&ran, 1) == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if atomic.LoadInt32(&ran) == 100 {
		t.Fatal("error did not stop the schedule")
	}
}

func TestParallelApply(t *testing.T) {
	e := newScene(t, 8)
	sys := e.System()
	roots, err := sys.ScanAddrs("solid")
	if err != nil {
		t.Fatal(err)
	}
	err = ParallelApply(roots, 4, func(a addr.LogicalAddr) error {
		return sys.Update(access.Scope{}, a, map[string]atom.Value{"description": atom.Str("painted")})
	})
	if err != nil {
		t.Fatalf("ParallelApply: %v", err)
	}
	n := 0
	sys.AtomTypeScan("solid", access.SSA{{Attr: "description", Op: access.OpEQ, Value: atom.Str("painted")}}, nil,
		func(*access.Atom) bool { n++; return true })
	if n != 8 {
		t.Fatalf("painted %d solids, want 8", n)
	}
}

func TestDecomposeRoots(t *testing.T) {
	roots := make([]addr.LogicalAddr, 10)
	units := DecomposeRoots(roots, 3)
	if len(units) != 4 {
		t.Fatalf("units = %d, want 4", len(units))
	}
	if len(units[3].Roots) != 1 {
		t.Fatalf("last unit size = %d", len(units[3].Roots))
	}
	if len(DecomposeRoots(nil, 3)) != 0 {
		t.Fatal("empty roots produced units")
	}
	// batch < 1 coerced.
	if got := DecomposeRoots(roots, 0); len(got) != 10 {
		t.Fatalf("batch 0 -> %d units", len(got))
	}
}
