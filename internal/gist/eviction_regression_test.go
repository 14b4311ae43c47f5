package gist_test

import (
	"fmt"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/check"
	"repro/internal/gist"
	"repro/internal/latch"
	"repro/internal/page"
	"repro/internal/wal"
)

func fmtPred(b []byte) string {
	switch len(b) {
	case 8:
		return fmt.Sprintf("key %d", btree.DecodeKey(b))
	case 16:
		lo, hi := btree.DecodeRange(b)
		return fmt.Sprintf("[%d,%d]", lo, hi)
	default:
		return fmt.Sprintf("%x", b)
	}
}

func dumpNode(t *testing.T, e *env, pg page.PageID) {
	f, err := e.pool.Fetch(pg)
	if err != nil {
		t.Logf("node %d: fetch: %v", pg, err)
		return
	}
	defer e.pool.Unpin(f, false, 0)
	f.Latch.Acquire(latch.S)
	defer f.Latch.Release(latch.S)
	t.Logf("node %d level=%d nsn=%d right=%d:", pg, f.Page.Level(), f.Page.NSN(), f.Page.Rightlink())
	for i := 0; i < f.Page.NumSlots(); i++ {
		en, _ := f.Page.Entry(i)
		if f.Page.IsLeaf() {
			t.Logf("  slot %d: %s rid=%v", i, fmtPred(en.Pred), en.RID)
		} else {
			t.Logf("  slot %d: %s -> %d", i, fmtPred(en.Pred), en.Child)
		}
	}
}

// dumpParentsOf scans all internal nodes for entries pointing at child.
func dumpParentsOf(t *testing.T, e *env, child page.PageID) {
	for id := page.PageID(1); id < 600; id++ {
		f, err := e.pool.Fetch(id)
		if err != nil {
			continue
		}
		f.Latch.Acquire(latch.S)
		if !f.Page.IsLeaf() {
			if s := f.Page.FindChild(child); s >= 0 {
				en, _ := f.Page.Entry(s)
				t.Logf("parent of %d: node %d slot %d pred %s", child, id, s, fmtPred(en.Pred))
			}
		}
		f.Latch.Release(latch.S)
		e.pool.Unpin(f, false, 0)
	}
}

// dumpWALFor prints every structural record touching pg (as page or child),
// plus leaf-entry adds/marks on it and any Split whose moved set contains
// an entry that lives on pg at dump time.
func dumpWALFor(t *testing.T, e *env, pg page.PageID) {
	e.log.Scan(1, func(r *wal.Record) bool {
		touch := r.Pg == pg || r.Pg2 == pg
		if !touch {
			return true
		}
		if r.Type.Base() == wal.RecAddLeafEntry || r.Type.Base() == wal.RecMarkLeafEntry {
			if en, err := page.DecodeEntry(r.Body, true); err == nil {
				t.Logf("lsn %d txn %d %s page=%d {%s rid=%v} recNSN=%d", r.LSN, r.Txn, r.Type, r.Pg, fmtPred(en.Pred), en.RID, r.NSN)
			}
			return true
		}
		if r.Type.Base() == wal.RecSplit {
			for _, b := range r.Moved {
				if en, err := page.DecodeEntry(b, true); err == nil {
					t.Logf("lsn %d   moved: {%s rid=%v}", r.LSN, fmtPred(en.Pred), en.RID)
				}
			}
		}
		switch r.Type.Base() {
		case wal.RecSplit:
			t.Logf("lsn %d txn %d %s orig=%d new=%d moved=%d", r.LSN, r.Txn, r.Type, r.Pg, r.Pg2, len(r.Moved))
		case wal.RecParentEntryUpdate:
			t.Logf("lsn %d txn %d %s parent=%d child=%d newBP=%s", r.LSN, r.Txn, r.Type, r.Pg, r.Pg2, fmtPred(r.Body))
		case wal.RecInternalEntryUpdate:
			t.Logf("lsn %d txn %d %s page=%d child=%d new=%s old=%s", r.LSN, r.Txn, r.Type, r.Pg, r.Pg2, fmtPred(r.Body), fmtPred(r.OldBody))
		case wal.RecInternalEntryAdd, wal.RecInternalEntryDelete:
			en, err := page.DecodeEntry(r.Body, false)
			if err == nil {
				t.Logf("lsn %d txn %d %s page=%d entry{%s -> %d}", r.LSN, r.Txn, r.Type, r.Pg, fmtPred(en.Pred), en.Child)
			}
		case wal.RecGetPage, wal.RecRootChange:
			t.Logf("lsn %d txn %d %s pg=%d pg2=%d", r.LSN, r.Txn, r.Type, r.Pg, r.Pg2)
		}
		return true
	})
}

// TestHotLeafEvictionRegression is the permanent form of the diagnostic
// harness that caught the lost-split-via-eviction bug: a pool far smaller
// than the working set under heavy concurrent splitting. On failure it
// reconstructs the exact interleaving from the WAL for the violating node.
func TestHotLeafEvictionRegression(t *testing.T) {
	re := regexp.MustCompile(`node (\d+) entry (\d+)`)
	for attempt := 0; attempt < 4; attempt++ {
		e := newEnvWithPool(t, gist.Config{MaxEntries: 4}, 48)
		var wg sync.WaitGroup
		const workers, per = 8, 120
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					k := int64(w*per + i)
					tx, _ := e.tm.Begin()
					rid, _ := e.heap.Insert(tx, []byte("hot"))
					if err := e.tree.Insert(tx, btree.EncodeKey(k), rid); err != nil {
						t.Errorf("insert %d: %v", k, err)
						tx.Abort()
						return
					}
					tx.Commit()
				}
			}(w)
		}
		wg.Wait()
		c := &check.Checker{Pool: e.pool, Ops: btree.Ops{}, Anchor: e.tree.Anchor(), MaxNSN: e.log.LastLSN()}
		if _, err := c.Check(); err != nil {
			t.Logf("attempt %d: %v", attempt, err)
			m := re.FindStringSubmatch(err.Error())
			if m != nil {
				id, _ := strconv.Atoi(m[1])
				dumpNode(t, e, page.PageID(id))
				dumpParentsOf(t, e, page.PageID(id))
				dumpWALFor(t, e, page.PageID(id))
			}
			t.FailNow()
		}
	}
}
