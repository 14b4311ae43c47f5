package gist

import (
	"context"

	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/txn"
)

// InsertUnique inserts (key, RID) enforcing key uniqueness (§8): a search
// phase with an equality predicate verifies the key is absent, leaving
// "=key" insert predicates on every visited node; then the ordinary insert
// runs. The search-phase predicates are released when the operation
// finishes — they exist only to close the race between two simultaneous
// insertions of the same value, which the predicates convert into a
// deadlock that the lock manager resolves.
//
// On a duplicate the error is returned after S-locking the existing data
// record, which makes the error condition itself repeatable under Degree 3
// isolation: the duplicate can neither be deleted nor can the error
// spontaneously vanish while this transaction lives.
func (t *Tree) InsertUnique(tx *txn.Txn, key []byte, rid page.RID) error {
	return t.InsertUniqueCtx(nil, tx, key, rid)
}

// InsertUniqueCtx is InsertUnique with InsertCtx's cancellation contract
// for both the duplicate-search phase and the insert phase.
func (t *Tree) InsertUniqueCtx(ctx context.Context, tx *txn.Txn, key []byte, rid page.RID) error {
	t.Stats.Inserts.Add(1)
	o := t.opEnterCtx(ctx, tx)
	o.track("insert")
	defer o.exit()

	if err := tx.LockCtx(o.context(), lock.ForRID(rid), lock.X); err != nil {
		return wrapLockErr(err)
	}

	insPred := t.preds.New(tx.ID(), predicate.Insert, append([]byte(nil), key...))
	query := t.ops.KeyQuery(key)
	dups, err := o.search(query, RepeatableRead, insPred, t.keyConflictsWith(key))
	if err != nil {
		t.preds.Release(insPred)
		return err
	}
	if len(dups) > 0 {
		// The duplicate's record lock (taken by the search) is held to
		// end of transaction; the transient predicates are not needed.
		t.preds.Release(insPred)
		return ErrDuplicate
	}

	err = o.insert(key, rid)
	// "Once the insert operation is finished, the predicates left behind
	// from the search phase can be released" (§8). The insert itself left
	// a fresh insert predicate on the target leaf, which lives until the
	// transaction ends.
	t.preds.Release(insPred)
	return err
}
