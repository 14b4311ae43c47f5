package gist_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/gist"
)

// unionCounter is btree.Ops counting its Union calls.
type unionCounter struct {
	btree.Ops
	n *atomic.Int64
}

func (u unionCounter) Union(a, b []byte) []byte {
	u.n.Add(1)
	return u.Ops.Union(a, b)
}

// TestInsertExpandsFromParentEntry: an insert that does not split widens
// each ancestor's entry just enough to cover the key (§6 phase 4). It makes
// at most one Union call per internal level and never re-unions the leaf's
// entries, so its cost does not grow with the node size.
func TestInsertExpandsFromParentEntry(t *testing.T) {
	var unions atomic.Int64
	e := newEnv(t, gist.Config{MaxEntries: 16, Ops: unionCounter{n: &unions}})
	for k := int64(0); k < 2000; k += 2 {
		e.put(k)
	}
	height := e.checkTree().Height
	if height < 3 {
		t.Fatalf("tree height %d, want at least 3 levels", height)
	}
	odd := rand.New(rand.NewSource(1)).Perm(1000)
	plain := 0
	for _, i := range odd {
		k := int64(2*i + 1)
		splits, before := e.tree.Stats.Splits.Load(), unions.Load()
		e.put(k)
		if e.tree.Stats.Splits.Load() != splits {
			continue // a split recomputes node BPs by design
		}
		plain++
		if got := unions.Load() - before; got > int64(height-1) {
			t.Fatalf("insert %d made %d Union calls, want at most %d (one per internal level)", k, got, height-1)
		}
	}
	if plain < 100 {
		t.Fatalf("only %d of 1000 inserts ran without a split", plain)
	}
	e.checkTree()
}
