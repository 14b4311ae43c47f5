package gist_test

import (
	"math/rand"
	"testing"

	"repro/internal/btree"
	"repro/internal/gist"
	"repro/internal/page"
)

// TestModelRandomOps drives the full stack with a long random sequence of
// operations — insert, delete, abort-insert, abort-delete, savepoint with
// partial rollback, GC, range query — checking every query result against
// an in-memory model and the structural invariants periodically. This is
// the single-threaded oracle test: if the tree and the model ever diverge,
// some protocol step lost or duplicated an entry.
func TestModelRandomOps(t *testing.T) {
	for _, cfg := range []struct {
		name string
		conf gist.Config
	}{
		{"fanout6", gist.Config{MaxEntries: 6}},
		{"fanout16", gist.Config{MaxEntries: 16}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEnv(t, cfg.conf)
			rng := rand.New(rand.NewSource(7))
			model := make(map[int64]page.RID) // committed live keys
			const steps = 1200
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(100); {
				case op < 45: // committed insert (fresh key)
					k := rng.Int63n(100000)
					if _, dup := model[k]; dup {
						continue
					}
					model[k] = e.put(k)

				case op < 55: // committed delete of a random model key
					k, ok := anyKey(rng, model)
					if !ok {
						continue
					}
					tx := e.begin()
					if err := e.tree.Delete(tx, btree.EncodeKey(k), model[k]); err != nil {
						t.Fatalf("step %d delete %d: %v", step, k, err)
					}
					if err := e.heap.Delete(tx, model[k]); err != nil {
						t.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					delete(model, k)

				case op < 65: // aborted insert: no model change
					k := rng.Int63n(100000)
					if _, dup := model[k]; dup {
						continue
					}
					tx := e.begin()
					e.putIn(tx, k)
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}

				case op < 72: // aborted delete: no model change
					k, ok := anyKey(rng, model)
					if !ok {
						continue
					}
					tx := e.begin()
					if err := e.tree.Delete(tx, btree.EncodeKey(k), model[k]); err != nil {
						t.Fatal(err)
					}
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}

				case op < 80: // savepoint: keep first insert, roll back second
					k1 := rng.Int63n(100000)
					k2 := rng.Int63n(100000)
					if _, dup := model[k1]; dup {
						continue
					}
					if _, dup := model[k2]; dup || k1 == k2 {
						continue
					}
					tx := e.begin()
					rid1 := e.putIn(tx, k1)
					if _, err := tx.Savepoint("sp"); err != nil {
						t.Fatal(err)
					}
					e.putIn(tx, k2)
					if err := tx.RollbackTo("sp"); err != nil {
						t.Fatalf("step %d rollback: %v", step, err)
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					model[k1] = rid1

				case op < 85: // garbage collection pass
					tx := e.begin()
					if err := e.tree.GCAll(tx); err != nil {
						t.Fatalf("step %d GC: %v", step, err)
					}
					tx.Commit()

				default: // range query vs model
					lo := rng.Int63n(100000)
					hi := lo + rng.Int63n(20000)
					tx := e.begin()
					got := e.search(tx, lo, hi)
					tx.Commit()
					want := 0
					for k := range model {
						if k >= lo && k <= hi {
							want++
						}
					}
					if len(got) != want {
						t.Fatalf("step %d: range [%d,%d] = %d hits, model says %d",
							step, lo, hi, len(got), want)
					}
					for _, r := range got {
						k := btree.DecodeKey(r.Key)
						if rid, ok := model[k]; !ok || rid != r.RID {
							t.Fatalf("step %d: hit (%d,%v) not in model", step, k, r.RID)
						}
					}
				}
				if step%200 == 199 {
					rep := e.checkTree()
					if rep.Entries != len(model) {
						t.Fatalf("step %d: tree has %d live entries, model %d", step, rep.Entries, len(model))
					}
				}
			}
			rep := e.checkTree()
			if rep.Entries != len(model) {
				t.Fatalf("final: tree %d vs model %d", rep.Entries, len(model))
			}
			// Every model key individually findable with its RID.
			tx := e.begin()
			defer tx.Commit()
			for k, rid := range model {
				got := e.search(tx, k, k)
				if len(got) != 1 || got[0].RID != rid {
					t.Fatalf("final: key %d -> %v, want rid %v", k, got, rid)
				}
			}
		})
	}
}

func anyKey(rng *rand.Rand, m map[int64]page.RID) (int64, bool) {
	if len(m) == 0 {
		return 0, false
	}
	n := rng.Intn(len(m))
	for k := range m {
		if n == 0 {
			return k, true
		}
		n--
	}
	return 0, false
}

// TestByteSpaceSplits disables the entry cap and uses large keys so that
// splits are driven purely by page free space — the production
// configuration.
func TestByteSpaceSplits(t *testing.T) {
	e := newEnv(t, gist.Config{}) // MaxEntries 0: byte-space splits only
	// ~400-byte filler makes a leaf hold ~19 entries.
	const n = 300
	for i := 0; i < n; i++ {
		tx := e.begin()
		rid, err := e.heap.Insert(tx, []byte("r"))
		if err != nil {
			t.Fatal(err)
		}
		// The key itself stays 8 bytes (btree); byte pressure comes
		// from volume of entries instead: insert several per txn.
		if err := e.tree.Insert(tx, btree.EncodeKey(int64(i)), rid); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
	}
	// 300 * 22B entries ~ one page; force more with duplicates.
	for i := 0; i < 2000; i++ {
		e.put(int64(1000 + i))
	}
	rep := e.checkTree()
	if rep.Entries != n+2000 {
		t.Fatalf("entries = %d", rep.Entries)
	}
	if rep.Height < 2 {
		t.Errorf("no byte-space split occurred (height %d, leaves %d)", rep.Height, rep.Leaves)
	}
	tx := e.begin()
	defer tx.Commit()
	if got := e.search(tx, 0, 5000); len(got) != n+2000 {
		t.Errorf("scan = %d", len(got))
	}
}

// TestSavepointRetainsState checks the §10.2 rules: the search predicates
// of a scan after a savepoint persist, and the transaction stays usable
// after a partial rollback. (Recorded cursor stacks stay valid because the
// drain reuses no page unlinked while the transaction lives; see
// drain_test.go.)
func TestSavepointRetainsState(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 30; i++ {
		e.put(int64(i))
	}
	tx := e.begin()
	if _, err := tx.Savepoint("cursor-open"); err != nil {
		t.Fatal(err)
	}
	// A scan after the savepoint: its predicates outlive the operation.
	if got := e.search(tx, 5, 15); len(got) != 11 {
		t.Fatalf("scan: %d", len(got))
	}
	preds := e.preds.PredicatesOf(tx.ID())
	if len(preds) == 0 {
		t.Fatal("no predicate registered")
	}
	attached := 0
	for _, p := range preds {
		attached += len(e.preds.NodesOf(p))
	}
	if attached == 0 {
		t.Error("predicate attached to no nodes")
	}
	if err := tx.RollbackTo("cursor-open"); err != nil {
		t.Fatal(err)
	}
	// The transaction remains usable after partial rollback.
	if got := e.search(tx, 5, 15); len(got) != 11 {
		t.Errorf("scan after partial rollback: %d", len(got))
	}
	tx.Commit()
}
