// Package txn implements nested transactions, the concept PRIMA adopts "as
// a generic mechanism for all proposed uses" (§4, after Moss [Mo81]): units
// of work form a tree; a child's effects become part of its parent on
// commit, and aborting a child rolls back only its own sphere — the
// "selective in-transaction recovery" the paper calls for — while the
// parent continues.
//
// Every write runs under an explicit access.Scope that the caller passes
// down: a transaction is the lock owner and undo sink of its own scope, and
// the manager's autocommit scope serves writes outside any transaction.
// Writers acquire exclusive atom locks following Moss's rules: a
// transaction may lock an atom if every other holder is one of its
// ancestors; on commit the child's locks are inherited by the parent. Lock
// conflicts fail immediately (no-wait policy): the failed statement leaves
// partial effects that the caller removes by aborting, which is exactly
// what the undo log is for. The per-atom locks alone arbitrate between
// transactions; there is no global writer lock.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/obs"
)

// Errors returned by the transaction layer.
var (
	ErrDone         = errors.New("txn: transaction already finished")
	ErrChildActive  = errors.New("txn: child transactions still active")
	ErrLockConflict = errors.New("txn: lock conflict")
	// ErrPoisoned means a rollback failed partway: locks were released over
	// a possibly half-undone sphere, so the in-memory state can no longer be
	// trusted. New work is refused; reopen the database (whose write-ahead
	// log replays to a consistent state) to recover.
	ErrPoisoned = errors.New("txn: manager poisoned by failed rollback, reopen the database")
)

// logEntry is one undoable mutation.
type logEntry struct {
	change access.Change
	a      addr.LogicalAddr
	pre    []atom.Value // pre-image for update/delete
}

// Manager coordinates transactions over one access system.
type Manager struct {
	sys *access.System

	mu     sync.Mutex
	nextID uint64
	locks  map[addr.LogicalAddr]*Tx // exclusive holders
	// poisoned is set when an abort's undo failed partway (see ErrPoisoned).
	poisoned error

	// commitNs observes top-level commit latency — lock release plus the
	// group-commit wait that dominates it when the WAL is on.
	commitNs *obs.Histogram
}

// NewManager creates a transaction manager over sys.
func NewManager(sys *access.System) *Manager {
	return &Manager{sys: sys, locks: map[addr.LogicalAddr]*Tx{}, commitNs: sys.Obs().Histogram("txn_commit_ns")}
}

// Autocommit returns the scope of writes made outside any transaction. It
// takes no locks and logs no undo, but it refuses atoms a transaction holds,
// so an autocommit write never lands inside an open transaction's sphere —
// whose abort would otherwise undo it — and it fails once the manager is
// poisoned. Its log records carry transaction id 0: always redone.
func (m *Manager) Autocommit() access.Scope {
	return access.Scope{Owner: (*autocommit)(m)}
}

// autocommit is the lock-checking owner of the Autocommit scope.
type autocommit Manager

func (ac *autocommit) Lock(a addr.LogicalAddr) error {
	m := (*Manager)(ac)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.poisoned != nil {
		return ErrPoisoned
	}
	if holder, held := m.locks[a]; held {
		return fmt.Errorf("%w: atom %v held by transaction %d", ErrLockConflict, a, holder.id)
	}
	return nil
}

func (*autocommit) LogUndo(access.Change, addr.LogicalAddr, []atom.Value) {}

// Tx is one transaction (top-level or nested) and the access.Owner of its
// own write scope: it locks every atom its statements touch and logs their
// undo. Every transaction pins a snapshot at Begin: its reads resolve at
// that epoch, untouched by concurrent committers, and the snapshot advances
// only when the transaction's own writes land (read-your-writes) — snapshot
// isolation per sphere.
type Tx struct {
	// stmt serializes this transaction's statements with its own finish, so
	// an Abort never races a statement still writing under the scope.
	stmt     sync.Mutex
	m        *Manager
	id       uint64
	parent   *Tx
	children int
	done     bool
	dead     bool // Begin on a poisoned manager: every operation fails
	log      []logEntry
	locks    map[addr.LogicalAddr]bool // locks acquired by this tx itself
	snap     *access.Snapshot          // the tx's read view (guarded by m.mu)
}

// Begin starts a top-level transaction. On a poisoned manager the returned
// transaction is stillborn: every operation on it fails with ErrPoisoned.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.poisoned != nil {
		return &Tx{m: m, dead: true, done: true, locks: map[addr.LogicalAddr]bool{}}
	}
	m.nextID++
	return &Tx{m: m, id: m.nextID, locks: map[addr.LogicalAddr]bool{}, snap: m.sys.OpenSnapshot()}
}

// Begin starts a nested child transaction. The child opens at the current
// epoch, so it sees the parent's effects committed so far.
func (t *Tx) Begin() (*Tx, error) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if t.dead || t.m.poisoned != nil {
		return nil, ErrPoisoned
	}
	if t.done {
		return nil, ErrDone
	}
	t.m.nextID++
	t.children++
	return &Tx{m: t.m, id: t.m.nextID, parent: t, locks: map[addr.LogicalAddr]bool{}, snap: t.m.sys.OpenSnapshot()}, nil
}

// ID returns the transaction id.
func (t *Tx) ID() uint64 { return t.id }

// rootID returns the id of t's top-level ancestor — the transaction
// write-ahead log records are attributed to (parents are immutable after
// Begin).
func (t *Tx) rootID() uint64 {
	cur := t
	for cur.parent != nil {
		cur = cur.parent
	}
	return cur.id
}

// Epoch returns the snapshot epoch the transaction currently reads at.
// Cursors opened on the transaction's behalf pin this epoch (OpenAt), so
// they share its frozen view.
func (t *Tx) Epoch() uint64 {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.snap.Epoch()
}

// refreshLocked advances t's read view to the current epoch; called with
// m.mu held after t's own sphere changed the database.
func (t *Tx) refreshLocked() {
	old := t.snap
	t.snap = t.m.sys.OpenSnapshot()
	old.Close()
}

// Do runs one statement of t: fn receives t's write scope, and every
// access-system write made under it is locked for and undo-logged to t.
// Statements of one transaction run one at a time; fn must not commit or
// abort t itself.
func (t *Tx) Do(fn func(sc access.Scope) error) error {
	t.stmt.Lock()
	defer t.stmt.Unlock()
	t.m.mu.Lock()
	if t.dead || t.m.poisoned != nil {
		t.m.mu.Unlock()
		return ErrPoisoned
	}
	if t.done {
		t.m.mu.Unlock()
		return ErrDone
	}
	before := len(t.log)
	t.m.mu.Unlock()

	err := fn(access.Scope{Owner: t, TxID: t.rootID()})
	t.m.mu.Lock()
	// Read-your-writes: a transaction that mutated atoms inside fn must see
	// its own effects on the next read, so its view advances to the epoch
	// its writes closed. Read-only spheres keep their frozen view.
	if len(t.log) > before {
		t.refreshLocked()
	}
	t.m.mu.Unlock()
	return err
}

// isAncestorOf reports whether t is an ancestor of (or equal to) o.
func (t *Tx) isAncestorOf(o *Tx) bool {
	for cur := o; cur != nil; cur = cur.parent {
		if cur == t {
			return true
		}
	}
	return false
}

// Lock acquires an exclusive lock on atom a for t (Moss rule: conflicting
// holders must be ancestors, which retain the lock while the child uses
// and re-owns it).
func (t *Tx) Lock(a addr.LogicalAddr) error {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.poisoned != nil {
		return ErrPoisoned
	}
	if t.done {
		return ErrDone
	}
	if holder, held := m.locks[a]; held && !holder.isAncestorOf(t) {
		return fmt.Errorf("%w: atom %v held by transaction %d", ErrLockConflict, a, holder.id)
	}
	m.locks[a] = t
	t.locks[a] = true
	return nil
}

// LogUndo appends a completed mutation to t's undo log, copying its
// pre-image.
func (t *Tx) LogUndo(c access.Change, a addr.LogicalAddr, pre []atom.Value) {
	e := logEntry{change: c, a: a}
	if pre != nil {
		e.pre = make([]atom.Value, len(pre))
		for i, v := range pre {
			e.pre[i] = v.Clone()
		}
	}
	t.m.mu.Lock()
	t.log = append(t.log, e)
	t.m.mu.Unlock()
}

// Commit finishes t. A nested commit hands its undo log and locks to the
// parent (the parent's abort can still undo the child). A top-level commit
// releases all locks and — when the system runs a write-ahead log — blocks
// until its commit record is on stable storage (group commit), at which
// point the effects survive a crash. Without a log the effects live in
// memory and buffered pages only and become durable at the next checkpoint.
func (t *Tx) Commit() error {
	t.stmt.Lock()
	defer t.stmt.Unlock()
	if t.parent == nil {
		defer t.m.commitNs.ObserveSince(time.Now())
	}
	t.m.mu.Lock()
	if t.dead {
		t.m.mu.Unlock()
		return ErrPoisoned
	}
	if t.done {
		t.m.mu.Unlock()
		return ErrDone
	}
	if t.children > 0 {
		t.m.mu.Unlock()
		return ErrChildActive
	}
	t.done = true
	t.snap.Close()
	if t.parent != nil {
		defer t.m.mu.Unlock()
		t.parent.children--
		childWrote := len(t.log) > 0
		// Log inheritance: parent abort undoes the child too.
		t.parent.log = append(t.parent.log, t.log...)
		// Lock inheritance (Moss).
		for a := range t.locks {
			if t.m.locks[a] == t {
				t.m.locks[a] = t.parent
			}
			t.parent.locks[a] = true
		}
		if childWrote {
			// The child's effects join the parent's sphere; the parent's
			// reads must see them from now on.
			t.parent.refreshLocked()
		}
		return nil
	}
	wrote := len(t.log) > 0
	t.m.mu.Unlock()
	var walErr error
	if wrote {
		// Group commit happens outside m.mu so concurrent committers batch
		// into one fsync — but still holding t's atom locks: were they
		// released first, a successor could overwrite this write set and
		// commit durably while a crash makes t a loser, whose undo would
		// then clobber the successor's committed state.
		walErr = t.m.sys.WALCommit(t.id)
	}
	t.m.mu.Lock()
	for a := range t.locks {
		if t.m.locks[a] == t {
			delete(t.m.locks, a)
		}
	}
	t.m.mu.Unlock()
	return walErr
}

// Abort undoes every mutation of t (and of its committed children) in
// reverse order and releases its locks. Parents and siblings are untouched.
//
// Every entry is undone even if some fail: stopping at the first error while
// still releasing the locks below would expose the skipped, still-applied
// mutations to other transactions as if committed. Entries that do fail
// leave the in-memory state inconsistent, so the manager is poisoned —
// further work is refused until the database is reopened (the write-ahead
// log, which also records the transaction as a loser, then rolls it back
// cleanly during recovery).
func (t *Tx) Abort() error {
	t.stmt.Lock()
	defer t.stmt.Unlock()
	t.m.mu.Lock()
	if t.dead {
		t.m.mu.Unlock()
		return ErrPoisoned
	}
	if t.done {
		t.m.mu.Unlock()
		return ErrDone
	}
	if t.children > 0 {
		t.m.mu.Unlock()
		return ErrChildActive
	}
	t.done = true
	t.snap.Close()
	log := t.log
	t.m.mu.Unlock()

	// The rollback scope neither locks (t still holds every atom its log
	// names, so no other writer can interleave) nor logs undo for itself,
	// but it carries t's id: the rollback's own log records are compensation
	// of this transaction.
	sc := access.Scope{TxID: t.rootID()}
	var undoErrs []error
	for i := len(log) - 1; i >= 0; i-- {
		e := log[i]
		var err error
		switch e.change {
		case access.Inserted:
			err = t.m.sys.RawDelete(sc, e.a)
		case access.Updated:
			err = t.m.sys.RawOverwrite(sc, e.a, e.pre)
		case access.Deleted:
			err = t.m.sys.RawResurrect(sc, e.a, e.pre)
		}
		if err != nil {
			undoErrs = append(undoErrs, fmt.Errorf("txn: undo %v: %w", e.a, err))
		}
	}
	undoErr := errors.Join(undoErrs...)

	wrote := len(log) > 0
	t.m.mu.Lock()
	if t.parent != nil {
		t.parent.children--
	}
	for a := range t.locks {
		if t.m.locks[a] == t {
			if t.parent != nil && t.parent.locks[a] {
				t.m.locks[a] = t.parent
			} else {
				delete(t.m.locks, a)
			}
		}
	}
	if undoErr != nil && t.m.poisoned == nil {
		t.m.poisoned = undoErr
	}
	t.m.mu.Unlock()
	if undoErr != nil {
		return fmt.Errorf("txn: undo failed: %w", undoErr)
	}
	if t.parent == nil && wrote {
		// The rollback is complete in memory and fully compensated in the
		// log; the abort record just spares recovery the undo work. Losing
		// it is harmless, so it is appended without forcing a flush.
		return t.m.sys.WALAbort(t.id)
	}
	return nil
}
