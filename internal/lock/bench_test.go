package lock

import (
	"sync/atomic"
	"testing"

	"repro/internal/page"
)

// BenchmarkLockAcquireReleaseParallel measures the uncontended grant/release
// fast path across goroutines: every goroutine locks names disjoint from all
// other goroutines', so the only possible contention is on the manager's own
// synchronization (run with -cpu 1,4,16 to see scaling).
func BenchmarkLockAcquireReleaseParallel(b *testing.B) {
	m := NewManager()
	var gid atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := uint64(gid.Add(1))
		txn := page.TxnID(id)
		i := uint64(0)
		for pb.Next() {
			n := Name{Space: SpaceRecord, Key: id<<20 | i%1024}
			if err := m.Lock(txn, n, X); err != nil {
				b.Error(err)
				return
			}
			m.Unlock(txn, n)
			i++
		}
	})
}
