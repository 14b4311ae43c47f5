package gist

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/txn"
)

// SearchResult is one (key, RID) pair returned by a search.
type SearchResult struct {
	Key []byte
	RID page.RID
}

// stackEntry is a pending node visit: the page pointer and the value of the
// tree-global counter memorized when the pointer was read (Figure 3). A
// node whose NSN exceeds the memorized value has split since the pointer
// was read, and the operation compensates by following its rightlink under
// the same memorized value.
type stackEntry struct {
	pg  page.PageID
	nsn page.LSN
}

// Search returns all leaf entries whose keys are consistent with query,
// using the traversal of Figure 3 of the paper: a depth-first walk over all
// subtrees with consistent bounding predicates, with split compensation via
// NSNs and rightlinks, predicate attachment top-down at every visited node
// (under RepeatableRead), and S locks on the RIDs of all returned entries.
//
// The operation holds at most one node latch at a time and never holds a
// latch while blocking on a lock or performing I/O: when a lock conflict is
// met the node is unlatched, the operation blocks, and the node (and its
// split chain, guided by the originally memorized NSN) is rescanned.
func (t *Tree) Search(tx *txn.Txn, query []byte, iso Isolation) ([]SearchResult, error) {
	return t.SearchCtx(nil, tx, query, iso)
}

// SearchCtx is Search honoring ctx at every node-visit boundary and at
// every blocking wait (record locks, predicate blocks, frame loads): when
// ctx fires the traversal stops between nodes, releases what it holds, and
// returns ctx.Err(). A nil ctx never cancels.
func (t *Tree) SearchCtx(ctx context.Context, tx *txn.Txn, query []byte, iso Isolation) ([]SearchResult, error) {
	t.Stats.Searches.Add(1)
	o := t.opEnterCtx(ctx, tx)
	o.track("search")
	defer o.exit()
	pred, conflicts := t.searchPredicate(tx, query, iso)
	return o.search(query, iso, pred, conflicts)
}

// searchPredicate returns the predicate a search at isolation iso attaches
// to the nodes it visits — none under ReadCommitted — and the rule by
// which it blocks behind conflicting insert predicates already attached
// (FIFO fairness, §10.3).
func (t *Tree) searchPredicate(tx *txn.Txn, query []byte, iso Isolation) (*predicate.Predicate, func(*predicate.Predicate) bool) {
	if iso != RepeatableRead {
		return nil, nil
	}
	return t.preds.New(tx.ID(), predicate.Search, query), func(p *predicate.Predicate) bool {
		return p.Kind == predicate.Insert && t.ops.Consistent(p.Data, query)
	}
}

// search is the traversal shared by Search and the search phase of
// unique insertion: a cursor on the caller's operation, drained to
// completion (see Cursor.open for attach and conflicts).
func (o *op) search(query []byte, iso Isolation, attach *predicate.Predicate, conflicts func(*predicate.Predicate) bool) ([]SearchResult, error) {
	var c Cursor
	if err := c.open(o, query, iso, attach, conflicts); err != nil {
		return nil, err
	}
	return c.drain()
}

// lockResult takes the S record lock a matching leaf entry needs without
// waiting, and reports whether it was granted. Only a live entry returned
// under RepeatableRead keeps its lock to end of transaction; a
// ReadCommitted result or a logically deleted entry needs the lock for an
// instant only (it certifies that no writer is active on the record; range
// protection is the predicate's job), so it is probed, which also leaves a
// lock the transaction already holds on the record — its own insert or
// delete — in place.
func (o *op) lockResult(rid page.RID, deleted bool, iso Isolation) bool {
	if deleted || iso == ReadCommitted {
		return o.t.locks.Probe(o.tx.ID(), lock.ForRID(rid), lock.S)
	}
	return o.t.locks.TryLock(o.tx.ID(), lock.ForRID(rid), lock.S)
}

// waitRecord blocks until the record lock a failed lockResult wanted is
// free, then releases it: the rescan that follows takes the lock again
// through lockResult, so a blocked entry ends up locked for exactly as
// long as one met without a conflict. The release drops only the hold this
// wait granted, because the failed lockResult proved the transaction held
// no covering lock on the record.
func (o *op) waitRecord(rid page.RID) error {
	err := o.tx.LockCtx(o.context(), lock.ForRID(rid), lock.S)
	if err != nil {
		if errors.Is(err, lock.ErrDeadlock) {
			return fmt.Errorf("%w: %v", ErrAborted, err)
		}
		return err
	}
	o.t.locks.Unlock(o.tx.ID(), lock.ForRID(rid))
	return nil
}
