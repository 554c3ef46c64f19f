package access

import (
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/storage/wal"
)

// Raw operations apply physical inverses without integrity side effects:
// every logical mutation (including implicit partner updates) produced its
// own undo entry, so rollback and recovery handle each atom independently.
// Rollback runs them under a scope without an owner (they must neither lock
// nor log undo for themselves) but with the transaction's id, so their own
// log records are compensation of that transaction; recovery replay runs
// them under the zero scope and logs nothing.

// RawOverwrite replaces an atom's values without reference maintenance.
// Recovery-only: misuse breaks association symmetry.
func (s *System) RawOverwrite(sc Scope, a addr.LogicalAddr, values []atom.Value) error {
	s.wlatch.Lock()
	defer s.wlatch.Unlock()
	t, err := s.typeByID(a.Type())
	if err != nil {
		return err
	}
	// Checkpoint op span: rollback mutations log like any others, so they
	// pin the replay start the same way (no-op during recovery replay).
	defer s.walOpBegin()()
	cur, err := s.Get(a, nil)
	if err != nil {
		return err
	}
	changed := map[int]bool{}
	for i := range values {
		if !cur.Values[i].Equal(values[i]) {
			changed[i] = true
		}
	}
	return s.updateRaw(sc, t, a, cur.Values, values, changed)
}

// RawDelete removes an atom without disconnecting partners. Recovery-only.
func (s *System) RawDelete(sc Scope, a addr.LogicalAddr) error {
	s.wlatch.Lock()
	defer s.wlatch.Unlock()
	t, err := s.typeByID(a.Type())
	if err != nil {
		return err
	}
	// Checkpoint op span: see RawOverwrite.
	defer s.walOpBegin()()
	cur, err := s.Get(a, nil)
	if err != nil {
		return err
	}
	defer s.mvBegin(a, cur)()
	defer s.cacheInvalidate(a)
	if err := s.walAppend(sc, wal.RecDelete, a, t.Name, cur.Values, nil); err != nil {
		return err
	}
	comp := func() { s.walCompensate(sc, wal.RecInsert, a, t.Name, nil, cur.Values) }
	for _, ap := range s.accessPathsOf(t.Name) {
		if err := s.indexDelete(ap, cur.Values, a); err != nil {
			comp()
			return err
		}
	}
	for _, so := range s.sortOrdersOf(t.Name) {
		if err := so.tree.Delete(so.sortKey(cur.Values), a); err != nil {
			comp()
			return err
		}
	}
	for _, cl := range s.clustersInvolving(t.Name) {
		if cl.def.RootType() == t.Name {
			if err := s.dropClusterOccurrence(cl, a); err != nil {
				comp()
				return err
			}
		}
	}
	refs, err := s.dir.Release(a)
	if err != nil {
		comp()
		return err
	}
	for _, ref := range refs {
		switch ref.Kind {
		case addr.KindPrimary:
			prim, err := s.primary(t)
			if err != nil {
				return err
			}
			if err := prim.Delete(ref.Where); err != nil {
				return err
			}
		case addr.KindSortOrder:
			s.mu.RLock()
			so := s.sortOrders[ref.Struct]
			s.mu.RUnlock()
			if so != nil {
				if err := so.container.Delete(ref.Where); err != nil {
					return err
				}
			}
		case addr.KindPartition:
			s.mu.RLock()
			p := s.partitions[ref.Struct]
			s.mu.RUnlock()
			if p != nil {
				if err := p.container.Delete(ref.Where); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// RawResurrect re-creates a previously deleted atom under its old logical
// address with the given pre-image. Recovery-only.
func (s *System) RawResurrect(sc Scope, a addr.LogicalAddr, values []atom.Value) error {
	s.wlatch.Lock()
	defer s.wlatch.Unlock()
	t, err := s.typeByID(a.Type())
	if err != nil {
		return err
	}
	// Checkpoint op span: see RawOverwrite.
	defer s.walOpBegin()()
	// Snapshot readers from before the resurrection must keep seeing the
	// address as absent: install a tombstone pre-image before reviving.
	defer s.mvBegin(a, nil)()
	if err := s.walAppend(sc, wal.RecInsert, a, t.Name, nil, values); err != nil {
		return err
	}
	comp := func() { s.walCompensate(sc, wal.RecDelete, a, t.Name, values, nil) }
	if err := s.dir.Revive(a); err != nil {
		comp()
		return err
	}
	// The address is being re-used: make sure no decode captured before the
	// delete can be published against the resurrected atom (deferred so
	// failed resurrections are covered too; the bump also drops any negative
	// cache entry recorded while the atom was deleted).
	defer s.cacheInvalidate(a)
	prim, err := s.primary(t)
	if err != nil {
		comp()
		return err
	}
	var rid addr.RID
	if err := withEncodedAtom(values, func(rec []byte) error {
		var err error
		rid, err = prim.Insert(rec)
		return err
	}); err != nil {
		comp()
		return err
	}
	if err := s.dir.Register(a, addr.RecordRef{Kind: addr.KindPrimary, Where: rid, Valid: true}); err != nil {
		comp()
		return err
	}
	for _, ap := range s.accessPathsOf(t.Name) {
		if err := s.indexInsert(ap, values, a); err != nil {
			comp()
			return err
		}
	}
	for _, so := range s.sortOrdersOf(t.Name) {
		if err := s.sortOrderInsert(so, values, a); err != nil {
			comp()
			return err
		}
	}
	for _, p := range s.partitionsOf(t.Name) {
		if err := s.partitionInsert(p, values, a); err != nil {
			comp()
			return err
		}
	}
	for _, cl := range s.clustersInvolving(t.Name) {
		if cl.def.RootType() == t.Name {
			if err := s.buildClusterOccurrence(cl, a); err != nil {
				comp()
				return err
			}
		}
	}
	return nil
}
