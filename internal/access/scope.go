package access

import (
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/obs"
)

// Scope is the unit of work one mutation runs under. Callers pass it down
// explicitly into every mutator — the access system keeps no "current
// transaction" — and it names all a mutation needs to know about its unit
// of work:
//
//   - Owner locks each atom before it changes and records the undo of each
//     completed change; nil does neither (rollback, recovery, and tools that
//     own the system outright).
//   - TxID is the top-level transaction the write-ahead log records carry;
//     0 is autocommit (always redone, never rolled back).
//   - Span is charged the log bytes the mutation appends; nil is untraced.
//
// The zero Scope writes directly: no locks, no undo, autocommit in the log.
type Scope struct {
	Owner Owner
	TxID  uint64
	Span  *obs.Span
}

// Owner is the lock owner and undo sink of a Scope (the transaction layer's
// transactions and its autocommit gate).
type Owner interface {
	// Lock is called before any mutation of atom a, including the implicit
	// partner updates of back-reference maintenance. An error stops the
	// mutation midway; effects already applied are the caller's to roll
	// back through the undo recorded so far.
	Lock(a addr.LogicalAddr) error
	// LogUndo records a completed mutation of a. pre is the pre-image of an
	// update or delete (nil for an insert); it may be shared and must not
	// be modified.
	LogUndo(c Change, a addr.LogicalAddr, pre []atom.Value)
}

// Change names the kind of a completed mutation.
type Change uint8

const (
	Inserted Change = iota
	Updated
	Deleted
)

func (sc Scope) lock(a addr.LogicalAddr) error {
	if sc.Owner == nil {
		return nil
	}
	return sc.Owner.Lock(a)
}

func (sc Scope) logUndo(c Change, a addr.LogicalAddr, pre []atom.Value) {
	if sc.Owner != nil {
		sc.Owner.LogUndo(c, a, pre)
	}
}
