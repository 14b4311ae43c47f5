// Benchmarks covering every artifact of the paper's presentation and the
// quantitative experiments of EXPERIMENTS.md:
//
//	Figure 3 (search)        -> BenchmarkSearchPoint, BenchmarkSearchRange
//	Figure 4 (insert)        -> BenchmarkInsert*, BenchmarkInsertUnique, BenchmarkLoad
//	Figures 1-2 (link proto) -> BenchmarkProtocol* (E8), BenchmarkSplitDetection
//	Figure 5/§7 (deletion)   -> BenchmarkDeleteAndGC (E12)
//	Table 1 (recovery)       -> BenchmarkRecovery (E6 cost), BenchmarkWALAppend
//	§4.3/§10.3 (predicates)  -> BenchmarkPredicateHybrid/Global (E9)
//	§10.1 (counter source)   -> BenchmarkNSNSource (ablation)
package gistdb_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	gistdb "repro"
	"repro/internal/baseline"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/predicate"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/strtree"
	"repro/internal/wal"
)

// benchDB builds an in-memory engine preloaded with n sequential keys.
func benchDB(b *testing.B, n int, opts gistdb.Options) (*gistdb.DB, *gistdb.Index) {
	b.Helper()
	db, err := gistdb.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := db.CreateIndex("bench", btree.Ops{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tx, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("benchmark-record")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	return db, idx
}

// BenchmarkInsert measures full transactional inserts (WAL, locks, BP
// propagation) — the Figure 4 pipeline end to end.
func BenchmarkInsert(b *testing.B) {
	db, idx := benchDB(b, 0, gistdb.Options{PoolPages: 4096})
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin()
		if _, err := idx.Insert(tx, btree.EncodeKey(int64(i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

// BenchmarkLoad measures committed facade inserts of 400-byte records on
// top of 10k and 50k existing ones. Heap placement and bounding-predicate
// expansion cost O(1) in the heap and node size. These keys ascend past
// the end of the key range, so every insert widens the rightmost path;
// each node on it carries its slot order across the widening, and the
// next descent finds the nearest entry by binary search.
func BenchmarkLoad(b *testing.B) {
	rec := make([]byte, 400)
	for _, n := range []int{10_000, 50_000} {
		b.Run(fmt.Sprintf("existing=%dk", n/1000), func(b *testing.B) {
			db, err := gistdb.Open(gistdb.Options{PoolPages: 4096})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			idx, err := db.CreateIndex("load", btree.Ops{})
			if err != nil {
				b.Fatal(err)
			}
			insert := func(tx *gistdb.Tx, k int) {
				if _, err := idx.Insert(tx, btree.EncodeKey(int64(k)), rec); err != nil {
					b.Fatal(err)
				}
			}
			for k := 0; k < n; k += 500 {
				tx, _ := db.Begin()
				for j := k; j < k+500; j++ {
					insert(tx, j)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := db.Begin()
				insert(tx, n+i)
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsertParallel measures concurrent inserters on disjoint key
// ranges — the workload the link protocol exists for.
func BenchmarkInsertParallel(b *testing.B) {
	db, idx := benchDB(b, 0, gistdb.Options{PoolPages: 8192})
	defer db.Close()
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			tx, err := db.Begin()
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := idx.Insert(tx, btree.EncodeKey(i), []byte("v")); err != nil {
				b.Error(err)
				tx.Abort()
				return
			}
			tx.Commit()
		}
	})
}

// BenchmarkInsertUnique measures §8's search-then-insert pipeline.
func BenchmarkInsertUnique(b *testing.B) {
	db, idx := benchDB(b, 0, gistdb.Options{PoolPages: 4096})
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin()
		if _, err := idx.InsertUnique(tx, btree.EncodeKey(int64(i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

// BenchmarkSearchPoint measures Figure 3 point lookups at both isolation
// levels.
//
// keys=100k runs ReadCommitted point searches on a 100k-key tree loaded in
// random order, whose nodes are full enough that the interval-ordered
// node search, not the slot-by-slot walk, sets the cost.
func BenchmarkSearchPoint(b *testing.B) {
	b.Run("keys=100k", func(b *testing.B) {
		const n = 100_000
		db, err := gistdb.Open(gistdb.Options{PoolPages: 8192})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		idx, err := db.CreateIndex("bench", btree.Ops{})
		if err != nil {
			b.Fatal(err)
		}
		keys := rand.New(rand.NewSource(1)).Perm(n)
		for lo := 0; lo < n; lo += 1000 {
			tx, _ := db.Begin()
			for _, k := range keys[lo : lo+1000] {
				if _, err := idx.Insert(tx, btree.EncodeKey(int64(k)), []byte("benchmark-record")); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, _ := db.Begin()
			k := int64(keys[i%n])
			if _, err := idx.Search(tx, btree.EncodeRange(k, k), gistdb.ReadCommitted); err != nil {
				b.Fatal(err)
			}
			tx.Commit()
		}
	})
	for _, iso := range []struct {
		name string
		lvl  gistdb.Isolation
	}{{"ReadCommitted", gistdb.ReadCommitted}, {"RepeatableRead", gistdb.RepeatableRead}} {
		b.Run(iso.name, func(b *testing.B) {
			db, idx := benchDB(b, 10000, gistdb.Options{PoolPages: 4096})
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := db.Begin()
				k := int64(i % 10000)
				if _, err := idx.Search(tx, btree.EncodeRange(k, k), iso.lvl); err != nil {
					b.Fatal(err)
				}
				tx.Commit()
			}
		})
	}
}

// BenchmarkSearchRange measures range scans of increasing selectivity.
func BenchmarkSearchRange(b *testing.B) {
	db, idx := benchDB(b, 10000, gistdb.Options{PoolPages: 4096})
	defer db.Close()
	for _, width := range []int64{10, 100, 1000} {
		b.Run(fmt.Sprintf("width%d", width), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := db.Begin()
				lo := int64(i) % (10000 - width)
				rs, err := idx.Search(tx, btree.EncodeRange(lo, lo+width), gistdb.ReadCommitted)
				if err != nil {
					b.Fatal(err)
				}
				if len(rs) == 0 {
					b.Fatal("empty range")
				}
				tx.Commit()
			}
		})
	}
}

// BenchmarkRTreeWindow measures spatial window queries — the
// multidimensional case motivating the whole design. points=10k loads its
// points in one transaction and searches 50×50 windows (about 25 hits);
// points=50k is read_cached's R-tree, loaded in transactions of 500 and
// searched by windows of about 10 hits.
func BenchmarkRTreeWindow(b *testing.B) {
	for _, c := range []struct {
		points, batch int
		side          float64
	}{
		{10_000, 10_000, 50},
		{50_000, 500, math.Sqrt(200)},
	} {
		b.Run(fmt.Sprintf("points=%dk", c.points/1000), func(b *testing.B) {
			db, err := gistdb.Open(gistdb.Options{PoolPages: 4096})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			idx, err := db.CreateIndex("pts", rtree.Ops{})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for lo := 0; lo < c.points; lo += c.batch {
				tx, _ := db.Begin()
				for i := lo; i < lo+c.batch; i++ {
					if _, err := idx.Insert(tx, rtree.EncodePoint(rng.Float64()*1000, rng.Float64()*1000), []byte("p")); err != nil {
						b.Fatal(err)
					}
				}
				tx.Commit()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := db.Begin()
				x, y := float64(i%900), float64((i*7)%900)
				w := rtree.Rect{XMin: x, YMin: y, XMax: x + c.side, YMax: y + c.side}
				if _, err := idx.Search(tx, rtree.EncodeRect(w), gistdb.ReadCommitted); err != nil {
					b.Fatal(err)
				}
				tx.Commit()
			}
		})
	}
}

// BenchmarkProtocol is experiment E8 as a bench: the three concurrency
// protocols under parallel load with a pool smaller than the tree.
func BenchmarkProtocol(b *testing.B) {
	for _, proto := range []baseline.Protocol{baseline.Coarse, baseline.Coupling, baseline.Link} {
		for _, mix := range []struct {
			name     string
			readFrac int
		}{{"read90", 90}, {"read50", 50}} {
			b.Run(fmt.Sprintf("%s/%s", proto, mix.name), func(b *testing.B) {
				pool := buffer.New(storage.NewMemDisk(), 64, nil)
				ix, err := baseline.New(pool, btree.Ops{}, proto, 64)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < 20000; i++ {
					if err := ix.Insert(btree.EncodeKey(int64(i*2)), page.RID{Page: 1, Slot: uint16(i % 60000)}); err != nil {
						b.Fatal(err)
					}
				}
				var ctr atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(ctr.Add(1)))
					for pb.Next() {
						k := int64(rng.Intn(40000))
						if rng.Intn(100) < mix.readFrac {
							if _, err := ix.Search(btree.EncodeRange(k, k+20)); err != nil {
								b.Error(err)
								return
							}
						} else if err := ix.Insert(btree.EncodeKey(k*2+1), page.RID{Page: 2, Slot: uint16(k % 60000)}); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkSplitDetection measures the pure overhead of the NSN check plus
// occasional rightlink chases on a churning tree.
func BenchmarkSplitDetection(b *testing.B) {
	pool := buffer.New(storage.NewMemDisk(), 4096, nil)
	ix, err := baseline.New(pool, btree.Ops{}, baseline.Link, 16)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		ix.Insert(btree.EncodeKey(int64(i)), page.RID{Page: 1, Slot: uint16(i % 60000)})
	}
	stop := make(chan struct{})
	go func() { // background splitter
		k := int64(10000)
		for {
			select {
			case <-stop:
				return
			default:
				ix.Insert(btree.EncodeKey(k), page.RID{Page: 3, Slot: uint16(k % 60000)})
				k++
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(btree.EncodeRange(int64(i%9000), int64(i%9000+30))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	b.ReportMetric(float64(ix.Chases.Load()), "chases")
}

// BenchmarkDeleteAndGC is E12: the logical-delete + garbage-collection
// pipeline of §7.
func BenchmarkDeleteAndGC(b *testing.B) {
	db, idx := benchDB(b, b.N+1, gistdb.Options{PoolPages: 8192})
	defer db.Close()
	tx, _ := db.Begin()
	rs, err := idx.Search(tx, btree.EncodeRange(0, int64(b.N)), gistdb.ReadCommitted)
	if err != nil {
		b.Fatal(err)
	}
	tx.Commit()
	b.ResetTimer()
	for i := 0; i < b.N && i < len(rs); i++ {
		tx, _ := db.Begin()
		if err := idx.Delete(tx, rs[i].Key, rs[i].RID); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
	gc, _ := db.Begin()
	if err := idx.GC(gc); err != nil {
		b.Fatal(err)
	}
	gc.Commit()
}

// BenchmarkRecovery measures restart time as a function of log length —
// the operational cost of the Table 1 protocol.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("txns%d", n), func(b *testing.B) {
			db, idx := benchDB(b, n, gistdb.Options{PoolPages: 8192})
			// One loser so undo has work too.
			loser, _ := db.Begin()
			idx.Insert(loser, btree.EncodeKey(int64(n+5)), []byte("loser"))
			db.WAL().FlushAll()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db2, err := db.SimulateCrash()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db2.OpenIndex("bench", btree.Ops{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredicateHybrid / Global are E9: the cost of the insert-time
// predicate conflict check under the two disciplines.
func BenchmarkPredicateHybrid(b *testing.B) { benchPredicates(b, false) }

// BenchmarkPredicateGlobal is the tree-global strawman of §4.2.
func BenchmarkPredicateGlobal(b *testing.B) { benchPredicates(b, true) }

func benchPredicates(b *testing.B, global bool) {
	pm := predicate.NewManager()
	ops := btree.Ops{}
	const scanners, leaves = 500, 64
	for s := 0; s < scanners; s++ {
		lo := int64(s * 100)
		p := pm.New(page.TxnID(s+1), predicate.Search, btree.EncodeRange(lo, lo+99))
		pm.Attach(p, 1, nil)
		pm.Attach(p, page.PageID(2+s%leaves), nil)
	}
	key := btree.EncodeKey(50)
	conflict := func(p *predicate.Predicate) bool { return ops.Consistent(key, p.Data) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if global {
			pm.ConflictingGlobal(9999999, conflict)
		} else {
			pm.Conflicting(page.PageID(2+i%leaves), 9999999, conflict)
		}
	}
}

// BenchmarkNSNSource measures range searches whose descent memorizes the
// global counter (§10.1) at every node.
func BenchmarkNSNSource(b *testing.B) {
	b.Run("globalCounter", func(b *testing.B) {
		db, idx := benchDB(b, 10000, gistdb.Options{PoolPages: 4096})
		defer db.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, _ := db.Begin()
			k := int64(i % 10000)
			if _, err := idx.Search(tx, btree.EncodeRange(k, k+20), gistdb.ReadCommitted); err != nil {
				b.Fatal(err)
			}
			tx.Commit()
		}
	})
}

// BenchmarkWALAppend measures the log manager's append path (every tree
// update rides on it).
func BenchmarkWALAppend(b *testing.B) {
	db, idx := benchDB(b, 0, gistdb.Options{PoolPages: 1024})
	defer db.Close()
	_ = idx
	log := db.WAL()
	body := []byte("benchmark-entry-body")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Append(&wal.Record{Type: wal.RecAddLeafEntry, Txn: 1, Pg: 2, Body: body})
	}
}

// BenchmarkCursorNext measures the per-entry cost of incremental scans
// (§10.2's cursors) against the batch Search path.
func BenchmarkCursorNext(b *testing.B) {
	db, idx := benchDB(b, 10000, gistdb.Options{PoolPages: 4096})
	defer db.Close()
	tx, _ := db.Begin()
	defer tx.Commit()
	cur, err := idx.OpenCursor(tx, btree.EncodeRange(0, 1<<40), gistdb.ReadCommitted)
	if err != nil {
		b.Fatal(err)
	}
	defer cur.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := cur.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.StopTimer()
			cur.Close()
			c2, err := idx.OpenCursor(tx, btree.EncodeRange(0, 1<<40), gistdb.ReadCommitted)
			if err != nil {
				b.Fatal(err)
			}
			cur = c2
			b.StartTimer()
		}
	}
}

// BenchmarkStringKeys measures the variable-length-predicate extension:
// inserts whose BP unions grow encoded sizes, and prefix scans.
func BenchmarkStringKeys(b *testing.B) {
	db, err := gistdb.Open(gistdb.Options{PoolPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("str", strtree.Ops{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx, _ := db.Begin()
			key := strtree.EncodeKey([]byte(fmt.Sprintf("key-%09d-%x", i, i*2654435761)))
			if _, err := idx.Insert(tx, key, []byte("v")); err != nil {
				b.Fatal(err)
			}
			tx.Commit()
		}
	})
	b.Run("prefixScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx, _ := db.Begin()
			if _, err := idx.Search(tx, strtree.Prefix([]byte("key-0000")), gistdb.ReadCommitted); err != nil {
				b.Fatal(err)
			}
			tx.Commit()
		}
	})
}

// BenchmarkSearchParallel measures concurrent range searches over a static
// tree — the read-heavy serving workload latch-free node visits target. Run
// with -cpu 1,4,16 to see the latch-handoff wall move (E19).
func BenchmarkSearchParallel(b *testing.B) {
	db, idx := benchDB(b, 10000, gistdb.Options{PoolPages: 4096})
	defer db.Close()
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(ctr.Add(1)))
		for pb.Next() {
			lo := int64(rng.Intn(10000 - 20))
			tx, err := db.Begin()
			if err != nil {
				b.Error(err)
				return
			}
			rs, err := idx.Search(tx, btree.EncodeRange(lo, lo+19), gistdb.ReadCommitted)
			if err != nil {
				b.Error(err)
				tx.Abort()
				return
			}
			if len(rs) != 20 {
				b.Errorf("search returned %d results, want 20", len(rs))
			}
			tx.Commit()
		}
	})
}

// BenchmarkCursorScanParallel measures concurrent incremental scans (open,
// drain ~100 entries, close) — the cursor flavor of the read-scaling suite.
func BenchmarkCursorScanParallel(b *testing.B) {
	db, idx := benchDB(b, 10000, gistdb.Options{PoolPages: 4096})
	defer db.Close()
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(ctr.Add(1)))
		for pb.Next() {
			lo := int64(rng.Intn(10000 - 100))
			tx, err := db.Begin()
			if err != nil {
				b.Error(err)
				return
			}
			c, err := idx.OpenCursor(tx, btree.EncodeRange(lo, lo+99), gistdb.ReadCommitted)
			if err != nil {
				b.Error(err)
				tx.Abort()
				return
			}
			n := 0
			for {
				_, ok, err := c.Next()
				if err != nil {
					b.Error(err)
					break
				}
				if !ok {
					break
				}
				n++
			}
			c.Close()
			if n != 100 {
				b.Errorf("cursor drained %d entries, want 100", n)
			}
			tx.Commit()
		}
	})
}
