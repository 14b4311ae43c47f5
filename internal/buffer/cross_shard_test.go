package buffer

import (
	"errors"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/storage"
)

// TestSaturatedShardStealsFromSiblings pins more pages of one shard than
// that shard owns frames while the rest of the pool is idle: the shard must
// steal frames from its siblings instead of reporting exhaustion.
func TestSaturatedShardStealsFromSiblings(t *testing.T) {
	disk := storage.NewMemDisk()
	pool := New(disk, 64, nil)
	// This goroutine pins the whole pool itself: its last fetch waits on
	// its own pins, so let the deadlock period run out quickly.
	pool.deadlockAfter = 20 * time.Millisecond
	if len(pool.shards) < 2 {
		t.Fatalf("pool has %d shards, test needs > 1", len(pool.shards))
	}

	var ids []page.PageID
	for i := 0; i < 400; i++ {
		id, err := disk.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	target := pool.shardOf(ids[0])
	var inTarget, others []page.PageID
	for _, id := range ids {
		if pool.shardOf(id) == target {
			inTarget = append(inTarget, id)
		} else {
			others = append(others, id)
		}
	}
	perShard := pool.Capacity() / len(pool.shards)
	want := perShard * 2 // twice the shard's own frames
	if len(inTarget) < want {
		t.Fatalf("only %d of %d pages hash to the target shard, need %d", len(inTarget), len(ids), want)
	}

	var pinned []*Frame
	for _, id := range inTarget[:want] {
		f, err := pool.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d into saturated shard: %v", id, err)
		}
		pinned = append(pinned, f)
	}
	if pool.steals.Load() == 0 {
		t.Error("no frame steals recorded while over-filling one shard")
	}

	// Keep pinning until the pool genuinely runs out. Nearly the whole
	// capacity must be reachable; the never-drain-below-one-frame rule may
	// strand at most one frame per shard.
	var exhausted bool
	for _, id := range others {
		f, err := pool.Fetch(id)
		if err != nil {
			if !errors.Is(err, ErrPoolExhausted) {
				t.Fatalf("fetch %d: %v", id, err)
			}
			exhausted = true
			break
		}
		pinned = append(pinned, f)
		if len(pinned) == pool.Capacity() {
			break
		}
	}
	if !exhausted {
		if len(pinned) != pool.Capacity() {
			t.Fatalf("pinned %d of %d without exhaustion", len(pinned), pool.Capacity())
		}
		if _, err := pool.Fetch(others[len(others)-1]); !errors.Is(err, ErrPoolExhausted) {
			t.Fatalf("fetch beyond capacity: %v, want ErrPoolExhausted", err)
		}
	}
	if min := pool.Capacity() - len(pool.shards); len(pinned) < min {
		t.Errorf("only %d frames pinnable, want >= %d", len(pinned), min)
	}

	// After unpinning, the pool must be fully usable again.
	for _, f := range pinned {
		pool.Unpin(f, false, 0)
	}
	f, err := pool.Fetch(others[len(others)-1])
	if err != nil {
		t.Fatalf("fetch after unpin: %v", err)
	}
	pool.Unpin(f, false, 0)
}

// TestStealPreservesDirtyPages saturates one shard so it steals a dirty
// frame from a sibling; the WAL rule write-back must preserve the page
// image.
func TestStealPreservesDirtyPages(t *testing.T) {
	disk := storage.NewMemDisk()
	pool := New(disk, 64, nil)
	if len(pool.shards) < 2 {
		t.Fatalf("pool has %d shards, test needs > 1", len(pool.shards))
	}

	// Dirty one page in every shard so any steal hits a dirty victim.
	var dirtied []page.PageID
	for i := 0; i < 64; i++ {
		id, err := disk.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		f, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Page.Bytes()[0] = byte(id)
		pool.Unpin(f, true, 1)
		dirtied = append(dirtied, id)
	}

	// Saturate one shard far past its own frames: steals must write the
	// dirty victims back, not lose them.
	target := pool.shardOf(dirtied[0])
	var extra []page.PageID
	for len(extra) < pool.Capacity()/len(pool.shards)*2 {
		id, err := disk.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if pool.shardOf(id) != target {
			continue
		}
		extra = append(extra, id)
	}
	var pinned []*Frame
	for _, id := range extra {
		f, err := pool.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		pinned = append(pinned, f)
	}
	for _, f := range pinned {
		pool.Unpin(f, false, 0)
	}

	// Every dirtied page must read back with its marker byte, whether it
	// is still cached or was evicted by a steal.
	for _, id := range dirtied {
		f, err := pool.Fetch(id)
		if err != nil {
			t.Fatalf("refetch %d: %v", id, err)
		}
		if f.Page.Bytes()[0] != byte(id) {
			t.Errorf("page %d lost its update across steal/evict", id)
		}
		pool.Unpin(f, false, 0)
	}
}
