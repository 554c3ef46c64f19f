package prima

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"prima/internal/access"
)

// Two traced MODIFYs running at the same time each charge their apply span
// with exactly their own statement's write-ahead log bytes.
func TestConcurrentTracedWritesChargeTheirOwnSpans(t *testing.T) {
	db, err := Open(Config{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE ATOM_TYPE note (id: IDENTIFIER, n: INTEGER, body: CHAR_VAR)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`INSERT INTO note (n) VALUES (1), (2)`)
	if err != nil {
		t.Fatal(err)
	}
	// Bodies of very different sizes: a misattributed span cannot pass.
	stmts := make([]string, 2)
	for i, a := range res[0].Inserted {
		stmts[i] = fmt.Sprintf(`MODIFY note SET body = '%s' WHERE id = @%d.%d`,
			strings.Repeat("x", 10+i*2000), a.Type(), a.Seq())
	}
	walBytes := func(stmt string) int64 {
		tr := db.Tracer().BeginForced("modify")
		if _, err := db.ExecTraced(stmt, tr); err != nil {
			t.Error(err)
		}
		sp := tr.Finish().Find("apply")
		if sp == nil {
			t.Error("no apply span")
			return -1
		}
		return sp.Counters["wal_bytes"]
	}
	// Rewriting a body with itself logs the same undo and redo image every
	// time, so each statement's byte count is fixed after its first run.
	want := make([]int64, 2)
	for i, stmt := range stmts {
		walBytes(stmt)
		want[i] = walBytes(stmt)
	}
	if want[0] <= 0 || want[0] == want[1] {
		t.Fatalf("reference byte counts %v do not tell the statements apart", want)
	}
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		got := make([]int64, 2)
		for i := range stmts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = walBytes(stmts[i])
			}(i)
		}
		wg.Wait()
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("round %d: apply spans charged %v WAL bytes, want %v", round, got, want)
		}
	}
}

// Closing a database releases its access system: nothing process-wide keeps
// a closed System (and its buffer pool and caches) reachable.
func TestClosedSystemsAreCollected(t *testing.T) {
	const cycles = 50
	ptrs := make([]weak.Pointer[access.System], 0, cycles)
	for i := 0; i < cycles; i++ {
		db, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`CREATE ATOM_TYPE item (id: IDENTIFIER, n: INTEGER)`); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		if _, err := tx.Exec(`INSERT INTO item (n) VALUES (1)`); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, weak.Make(db.System()))
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	alive := 0
	for _, p := range ptrs {
		if p.Value() != nil {
			alive++
		}
	}
	if alive > 0 {
		t.Fatalf("%d of %d closed systems still reachable", alive, cycles)
	}
}
