package txn

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
)

// An autocommit write made while an unrelated transaction runs a statement
// belongs to no transaction: that transaction's abort must not undo it.
func TestAutocommitSurvivesUnrelatedAbort(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)

	tx := m.Begin()
	var mine, acked addr.LogicalAddr
	err := tx.Do(func(sc access.Scope) error {
		var err error
		if mine, err = sys.Insert(sc, "part", map[string]atom.Value{"no": atom.Int(1)}); err != nil {
			return err
		}
		// Another client's autocommit insert lands mid-statement.
		acked, err = sys.Insert(m.Autocommit(), "part", map[string]atom.Value{"no": atom.Int(2)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if sys.Directory().Exists(mine) {
		t.Fatalf("aborted insert %v survived", mine)
	}
	if !sys.Directory().Exists(acked) || sys.Count("part") != 1 {
		t.Fatalf("acknowledged autocommit insert %v undone by unrelated abort; count=%d", acked, sys.Count("part"))
	}
}

// TestScopeHammer runs transactions and autocommit writers concurrently.
// Transactions insert parts (some referencing shared slots, so their
// partner updates contend for the slot locks), update slots, nest children
// and abort at random; autocommit writers insert parts and update parts of
// their own. At the end every acknowledged autocommit write is present,
// every committed transaction's inserts are present, and no trace of an
// aborted transaction remains: not its inserts, not its slot values.
func TestScopeHammer(t *testing.T) {
	const (
		slots     = 6
		txWorkers = 4
		txPerW    = 40
		acWorkers = 4
		acPerW    = 60
	)
	sys := newSys(t)
	m := NewManager(sys)
	ac := m.Autocommit()
	slot := make([]addr.LogicalAddr, slots)
	for i := range slot {
		a, err := sys.Insert(ac, "part", map[string]atom.Value{"no": atom.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		slot[i] = a
	}

	// Tags are globally unique "no" values: tx worker w's j-th transaction
	// writes tag 1e6 + w*1e4 + j*10 (+1 for its nested child); autocommit
	// writer w's k-th write carries 2e6 + w*1e4 + k.
	type txRecord struct {
		committed bool
		tags      []int64
		inserted  []addr.LogicalAddr
	}
	var (
		mu       sync.Mutex
		txs      []txRecord
		deadTags = map[int64]bool{}             // tags of selectively aborted children
		acOwned  = map[addr.LogicalAddr]int64{} // last acked value
		wg       sync.WaitGroup
	)
	for w := 0; w < txWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for j := 0; j < txPerW; j++ {
				tag := int64(1e6 + w*1e4 + j*10)
				rec := txRecord{tags: []int64{tag}}
				tx := m.Begin()
				err := tx.Do(func(sc access.Scope) error {
					vals := map[string]atom.Value{"no": atom.Int(tag)}
					if rng.Intn(3) == 0 {
						vals["uses"] = atom.RefSet(slot[rng.Intn(slots)])
					}
					a, err := sys.Insert(sc, "part", vals)
					if a != 0 {
						rec.inserted = append(rec.inserted, a)
					}
					if err != nil {
						return err
					}
					for n := rng.Intn(3); n > 0; n-- {
						if err := sys.Update(sc, slot[rng.Intn(slots)], map[string]atom.Value{"no": atom.Int(tag)}); err != nil {
							return err
						}
					}
					return nil
				})
				if err == nil && rng.Intn(2) == 0 {
					child, cerr := tx.Begin()
					if cerr != nil {
						t.Errorf("child begin: %v", cerr)
						return
					}
					ctag := tag + 1
					rec.tags = append(rec.tags, ctag)
					var ca addr.LogicalAddr
					err = child.Do(func(sc access.Scope) error {
						var err error
						ca, err = sys.Insert(sc, "part", map[string]atom.Value{"no": atom.Int(ctag)})
						if err != nil {
							return err
						}
						return sys.Update(sc, slot[rng.Intn(slots)], map[string]atom.Value{"no": atom.Int(ctag)})
					})
					if err == nil && rng.Intn(3) == 0 {
						// Selective abort: the parent carries on without it.
						if aerr := child.Abort(); aerr != nil {
							t.Errorf("child abort: %v", aerr)
							return
						}
						if sys.Directory().Exists(ca) {
							t.Errorf("child-aborted insert %v survived", ca)
						}
						rec.tags = rec.tags[:1]
						mu.Lock()
						deadTags[ctag] = true
						mu.Unlock()
					} else {
						if ca != 0 {
							rec.inserted = append(rec.inserted, ca)
						}
						if err == nil {
							err = child.Commit()
						} else if aerr := child.Abort(); aerr != nil {
							t.Errorf("child abort: %v", aerr)
							return
						}
					}
				}
				if err != nil && !errors.Is(err, ErrLockConflict) {
					t.Errorf("tx %d/%d: %v", w, j, err)
				}
				if err == nil && rng.Intn(3) != 0 {
					if err := tx.Commit(); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
					rec.committed = true
				} else if err := tx.Abort(); err != nil {
					t.Errorf("abort: %v", err)
					return
				}
				mu.Lock()
				txs = append(txs, rec)
				mu.Unlock()
			}
		}(w)
	}
	for w := 0; w < acWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var own []addr.LogicalAddr
			for k := 0; k < acPerW; k++ {
				v := int64(2e6 + w*1e4 + k)
				if len(own) == 0 || rng.Intn(2) == 0 {
					a, err := sys.Insert(ac, "part", map[string]atom.Value{"no": atom.Int(v)})
					if err != nil {
						t.Errorf("autocommit insert: %v", err)
						return
					}
					own = append(own, a)
					mu.Lock()
					acOwned[a] = v
					mu.Unlock()
					continue
				}
				a := own[rng.Intn(len(own))]
				if err := sys.Update(ac, a, map[string]atom.Value{"no": atom.Int(v)}); err != nil {
					t.Errorf("autocommit update of own %v: %v", a, err)
					return
				}
				mu.Lock()
				acOwned[a] = v
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	no := func(a addr.LogicalAddr) (int64, bool) {
		at, err := sys.Get(a, nil)
		if err != nil {
			return 0, false
		}
		v, _ := at.Value("no")
		return v.I, true
	}
	for a, v := range acOwned {
		if got, ok := no(a); !ok || got != v {
			t.Errorf("acknowledged autocommit write lost: %v no=%d (present %v), want %d", a, got, ok, v)
		}
	}
	aborted := deadTags
	committed := 0
	for _, rec := range txs {
		for _, a := range rec.inserted {
			if got := sys.Directory().Exists(a); got != rec.committed {
				t.Errorf("transaction %v (committed %v): insert %v present = %v", rec.tags, rec.committed, a, got)
			}
		}
		if rec.committed {
			committed++
		} else {
			for _, tag := range rec.tags {
				aborted[tag] = true
			}
		}
	}
	if committed == 0 || len(aborted) == 0 {
		t.Fatalf("hammer exercised too little: %d committed, %d aborted tags", committed, len(aborted))
	}
	// No atom anywhere carries an aborted transaction's tag, and the
	// associations are symmetric again after every rollback.
	addrs, err := sys.ScanAddrs("part")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		at, err := sys.Get(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := at.Value("no"); aborted[v.I] {
			t.Errorf("%v carries aborted tag %d", a, v.I)
		}
		uses, _ := at.Value("uses")
		for _, b := range uses.Refs() {
			bt, err := sys.Get(b, nil)
			if err != nil {
				t.Errorf("%v uses missing %v", a, b)
				continue
			}
			if back, _ := bt.Value("used_by"); !back.ContainsRef(a) {
				t.Errorf("%v uses %v without the back-reference", a, b)
			}
		}
		usedBy, _ := at.Value("used_by")
		for _, b := range usedBy.Refs() {
			bt, err := sys.Get(b, nil)
			if err != nil {
				t.Errorf("%v used_by missing %v", a, b)
				continue
			}
			if fwd, _ := bt.Value("uses"); !fwd.ContainsRef(a) {
				t.Errorf("%v used_by %v without the forward reference", a, b)
			}
		}
	}
	m.mu.Lock()
	held := len(m.locks)
	m.mu.Unlock()
	if held != 0 {
		t.Errorf("%d locks still held after every transaction finished", held)
	}
	if n := sys.OpenSnapshots(); n != 0 {
		t.Errorf("%d snapshots still open", n)
	}
	t.Logf("%d transactions (%d committed), %d autocommit-inserted atoms", len(txs), committed, len(acOwned))
}
