package gistdb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/gist"
	"repro/internal/lock"
	"repro/internal/stats"
	"repro/internal/txn"
)

// Tx is a transaction. A transaction is driven by one goroutine at a time;
// concurrent sessions each use their own transaction.
type Tx struct {
	db    *DB
	inner *txn.Txn

	// Open cursors and their positions recorded at savepoints (§10.2:
	// rollback to a savepoint restores the positions of open cursors).
	cursors []*Cursor
	marks   map[string][]cursorMark
}

type cursorMark struct {
	c *Cursor
	m gist.Mark
}

// ID returns the transaction identifier.
func (tx *Tx) ID() uint64 { return uint64(tx.inner.ID()) }

// Commit makes the transaction's effects durable and visible, releasing
// its locks and predicates. A transaction that wrote nothing commits
// without a log record or a log force.
func (tx *Tx) Commit() error {
	wrote := tx.inner.Wrote()
	done := tx.traceCommit(wrote)
	if err := tx.inner.Commit(); err != nil {
		return err
	}
	done()
	tx.finish(wrote)
	return nil
}

// traceCommit arms a flight-recorder trace for the commit; the returned
// function records it (call only on successful commit). A no-op returning a
// no-op in the statsoff build and for transactions that logged nothing:
// their commit writes no log record and waits for no force (a writer holds
// its locks until its own commit is durable, so all they read is already
// on disk), and skipping them keeps the search hot path free of the extra
// clock reads.
func (tx *Tx) traceCommit(wrote bool) func() {
	if !stats.Enabled || !wrote {
		return func() {}
	}
	start := time.Now().UnixNano()
	return func() {
		end := time.Now().UnixNano()
		tx.db.recorder.Record(&stats.OpTrace{
			Op:        "commit",
			Txn:       uint64(tx.inner.ID()),
			Start:     start,
			Duration:  end - start,
			FlushWait: tx.inner.FlushWait(),
		})
	}
}

// CommitCtx is Commit with a deadline on the durability wait. Three
// outcomes:
//
//   - ctx done before the commit record is published: ctx.Err() is
//     returned and the transaction is untouched — still active, still
//     abortable.
//   - ctx done after publication but before durability: ErrCommitPending
//     is returned; the commit can no longer be withdrawn and completes in
//     the background when the log force lands, at which point the
//     transaction's locks are released.
//   - durable in time (or already durable when the deadline is noticed):
//     committed, nil.
func (tx *Tx) CommitCtx(ctx context.Context) error {
	// If the commit goes pending, the per-tree bookkeeping must wait for
	// the background durability point — releasing it early would let dead
	// RIDs be reused while the deleting transaction can still become a
	// restart loser.
	wrote := tx.inner.Wrote()
	tx.inner.SetDurableHook(func() { tx.finish(wrote) })
	done := tx.traceCommit(wrote)
	if err := tx.inner.CommitCtx(ctx); err != nil {
		return err
	}
	done()
	tx.finish(wrote)
	return nil
}

// Abort rolls every effect of the transaction back (logical undo through
// the write-ahead log) and releases its locks and predicates.
func (tx *Tx) Abort() error {
	if err := tx.inner.Abort(); err != nil {
		return err
	}
	tx.finish(tx.inner.Wrote())
	return nil
}

// finish ends the heap's reservations for the transaction's deletes if it
// wrote: a transaction that logged nothing deleted nothing.
func (tx *Tx) finish(wrote bool) {
	if wrote {
		tx.db.heap.TxnFinished(tx.inner.ID())
	}
}

// Savepoint establishes a named rollback target within the transaction and
// records the positions of all open cursors (§10.2 of the paper).
func (tx *Tx) Savepoint(name string) error {
	if _, err := tx.inner.Savepoint(name); err != nil {
		return err
	}
	if tx.marks == nil {
		tx.marks = make(map[string][]cursorMark)
	}
	var ms []cursorMark
	for _, c := range tx.cursors {
		if !c.closed {
			ms = append(ms, cursorMark{c: c, m: c.inner.Mark()})
		}
	}
	tx.marks[name] = ms
	return nil
}

// RollbackTo undoes all updates made after the named savepoint and restores
// the positions open cursors had when it was established; the transaction
// stays active.
func (tx *Tx) RollbackTo(name string) error {
	if err := tx.inner.RollbackTo(name); err != nil {
		return err
	}
	for _, cm := range tx.marks[name] {
		if !cm.c.closed {
			cm.c.inner.Reset(cm.m)
		}
	}
	return nil
}

// LockRecord explicitly X-locks a data record ahead of an update — phase 1
// of the paper's insertion protocol. Index.Insert and Index.Delete do this
// implicitly; exposing it lets applications fix lock order across several
// records to reduce deadlocks.
func (tx *Tx) LockRecord(rid RID) error {
	return tx.inner.Lock(lock.ForRID(rid), lock.X)
}

// LockRecordCtx is LockRecord with a cancellable wait: when ctx fires while
// the lock is queued the waiter removes itself and ctx.Err() is returned;
// no lock is held. If a grant raced the cancellation the lock is held and
// nil is returned.
func (tx *Tx) LockRecordCtx(ctx context.Context, rid RID) error {
	return tx.inner.LockCtx(ctx, lock.ForRID(rid), lock.X)
}

// isCancel reports whether err is (or wraps) a context cancellation.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// statement runs one mutating index statement with statement-level
// atomicity under cancellation: when fn returns a context error the
// statement's logged effects are removed by logical undo back to the
// statement's start LSN, and the transaction stays active. Non-cancellation
// errors pass through untouched, preserving the engine's existing error
// contract (e.g. ErrDuplicate, deadlock-driven ErrAborted).
func (tx *Tx) statement(fn func() error) error {
	mark := tx.inner.LastLSN()
	err := fn()
	if err == nil || !isCancel(err) {
		return err
	}
	if rerr := tx.inner.RollbackToLSN(mark); rerr != nil {
		// A failed partial undo leaves the transaction's effects
		// indeterminate; abort wholesale rather than let the caller keep
		// using it.
		tx.Abort()
		return fmt.Errorf("%v; statement rollback: %w", err, rerr)
	}
	return err
}
