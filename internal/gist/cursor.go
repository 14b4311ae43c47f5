package gist

import (
	"context"
	"fmt"

	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/txn"
)

// Cursor is an incremental search: the depth-first traversal of Figure 3,
// suspended between calls to Next. The cursor's stack of pending node
// visits is exactly the state §10.2 says must be recorded when a savepoint
// is established; Mark and Reset implement that. Every pointer on the stack
// or in a Mark stays safe to visit until the transaction ends: node
// deletion's drain reuses no page unlinked while the transaction is active
// (§7.2), so once the transaction has ended Next returns txn.ErrNotActive
// instead of visiting another node.
type Cursor struct {
	t     *Tree
	query []byte
	iso   Isolation
	o     *op
	pred  *predicate.Predicate

	stack   []stackEntry
	pending []SearchResult // matched on the current leaf, not yet returned
	seen    map[page.RID]bool
	done    bool
	closed  bool

	// conflicts decides which attached predicates ahead of ours force a
	// wait (FIFO fairness); overridable for the unique-insert search.
	conflicts func(*predicate.Predicate) bool
}

// OpenCursor starts an incremental search. The caller must call Close when
// done (Commit/Abort of the transaction does not close cursors).
func (t *Tree) OpenCursor(tx *txn.Txn, query []byte, iso Isolation) (*Cursor, error) {
	return t.OpenCursorCtx(nil, tx, query, iso)
}

// OpenCursorCtx is OpenCursor with a context the cursor checks at every
// node-visit boundary of Next: when ctx fires, Next returns ctx.Err() and
// the cursor (still open; Close releases its state) returns the same error
// on every later call until ctx is replaced by closing and reopening.
func (t *Tree) OpenCursorCtx(ctx context.Context, tx *txn.Txn, query []byte, iso Isolation) (*Cursor, error) {
	t.Stats.Searches.Add(1)
	o := t.opEnterCtx(ctx, tx)
	o.track("cursor")
	pred, conflicts := t.searchPredicate(tx, query, iso)
	c := new(Cursor)
	if err := c.open(o, query, iso, pred, conflicts); err != nil {
		o.exit()
		return nil, err
	}
	return c, nil
}

// open starts c's traversal on the operation o, which Close exits. attach
// (if non-nil) is the predicate attached to every visited node, and
// conflicts decides which already-attached predicates ahead of it force
// the traversal to block.
func (c *Cursor) open(o *op, query []byte, iso Isolation, attach *predicate.Predicate, conflicts func(*predicate.Predicate) bool) error {
	// Counter before root pointer: see locateLeaf for why this order is
	// load-bearing against racing root splits.
	nsn := o.t.counter()
	root, err := o.rootID()
	if err != nil {
		return err
	}
	*c = Cursor{
		t:         o.t,
		query:     query,
		iso:       iso,
		o:         o,
		pred:      attach,
		stack:     []stackEntry{{pg: root, nsn: nsn}},
		seen:      make(map[page.RID]bool),
		conflicts: conflicts,
	}
	return nil
}

// Next returns the next matching entry. ok is false when the search is
// exhausted. Next may block on record locks and predicates exactly as a
// full search would.
func (c *Cursor) Next() (SearchResult, bool, error) {
	if c.closed {
		return SearchResult{}, false, fmt.Errorf("gist: Next on closed cursor")
	}
	for {
		// Node-visit boundary: the only state held here is the stack —
		// nothing latched, nothing pinned, no NTA — so cancellation
		// between visits is always safe.
		if err := c.o.check(); err != nil {
			return SearchResult{}, false, err
		}
		if len(c.pending) > 0 {
			r := c.pending[0]
			c.pending = c.pending[1:]
			return r, true, nil
		}
		if c.done || len(c.stack) == 0 {
			c.done = true
			return SearchResult{}, false, nil
		}

		// The drain keeps the stack's pages only while the transaction
		// lives (§7.2); past its end they may have been reused.
		if c.o.tx.State() != txn.Active {
			return SearchResult{}, false, txn.ErrNotActive
		}
		se := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]

		f, err := c.o.fetch(se.pg)
		if err != nil {
			return SearchResult{}, false, fmt.Errorf("gist: cursor fetch %d: %w", se.pg, err)
		}
		if err := c.visit(f, se); err != nil {
			return SearchResult{}, false, err
		}
	}
}

// All drains the cursor and closes it.
func (c *Cursor) All() ([]SearchResult, error) {
	defer c.Close()
	return c.drain()
}

// drain returns every remaining match.
func (c *Cursor) drain() ([]SearchResult, error) {
	var out []SearchResult
	for {
		r, ok, err := c.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// Close releases the cursor's operation state. Record locks and
// predicates stay with the transaction, per two-phase locking. Close is
// idempotent.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.o.exit()
}

// Mark is a recorded cursor position: a copy of the traversal stack, the
// already-returned data RIDs and the unreturned matches of the current
// leaf (§10.2: "record the then-current stack"; storage is proportional to
// page capacity times tree height).
type Mark struct {
	stack   []stackEntry
	pending []SearchResult
	seen    map[page.RID]bool
	done    bool
}

// Mark records the cursor's position for a savepoint.
func (c *Cursor) Mark() Mark {
	m := Mark{
		stack:   append([]stackEntry(nil), c.stack...),
		pending: append([]SearchResult(nil), c.pending...),
		seen:    make(map[page.RID]bool, len(c.seen)),
		done:    c.done,
	}
	for k, v := range c.seen {
		m.seen[k] = v
	}
	return m
}

// Reset restores a position previously recorded with Mark (partial
// rollback to a savepoint re-opens the cursor where it stood).
func (c *Cursor) Reset(m Mark) {
	c.stack = append(c.stack[:0], m.stack...)
	c.pending = append(c.pending[:0], m.pending...)
	c.seen = make(map[page.RID]bool, len(m.seen))
	for k, v := range m.seen {
		c.seen[k] = v
	}
	c.done = m.done
}
