package gist_test

import (
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/gist"
)

func TestCursorDrainEqualsSearch(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 6})
	for i := 0; i < 100; i++ {
		e.put(int64(i))
	}
	tx := e.begin()
	defer func() {
		tx.Commit()
	}()

	want := keysOf(e.search(tx, 10, 60))
	cur, err := e.tree.OpenCursor(tx, btree.EncodeRange(10, 60), gist.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	gotKeys := keysOf(got)
	if len(gotKeys) != len(want) {
		t.Fatalf("cursor %d keys, search %d", len(gotKeys), len(want))
	}
	for i := range want {
		if gotKeys[i] != want[i] {
			t.Fatalf("cursor keys %v != search keys %v", gotKeys, want)
		}
	}
}

func TestCursorIncrementalAndClose(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 6})
	for i := 0; i < 30; i++ {
		e.put(int64(i))
	}
	tx := e.begin()
	cur, err := e.tree.OpenCursor(tx, btree.EncodeRange(0, 100), gist.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen++
		if seen == 10 {
			break // abandon mid-scan
		}
	}
	cur.Close()
	cur.Close() // idempotent
	if _, _, err := cur.Next(); err == nil {
		t.Error("Next on closed cursor should error")
	}
	tx.Commit()
	e.checkTree()
}

func TestCursorMarkResetReplaysSuffix(t *testing.T) {
	e := newEnv(t, gist.Config{MaxEntries: 6})
	for i := 0; i < 40; i++ {
		e.put(int64(i))
	}
	tx := e.begin()
	defer func() {
		tx.Commit()
	}()
	cur, err := e.tree.OpenCursor(tx, btree.EncodeRange(0, 100), gist.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	var first []int64
	for i := 0; i < 15; i++ {
		r, ok, err := cur.Next()
		if err != nil || !ok {
			t.Fatalf("next %d: %v %v", i, ok, err)
		}
		first = append(first, btree.DecodeKey(r.Key))
	}
	m := cur.Mark()
	var afterMark []int64
	for {
		r, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		afterMark = append(afterMark, btree.DecodeKey(r.Key))
	}
	if len(first)+len(afterMark) != 40 {
		t.Fatalf("total = %d, want 40", len(first)+len(afterMark))
	}

	// Reset: the suffix replays identically.
	cur.Reset(m)
	var replay []int64
	for {
		r, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		replay = append(replay, btree.DecodeKey(r.Key))
	}
	if len(replay) != len(afterMark) {
		t.Fatalf("replay %d keys, want %d", len(replay), len(afterMark))
	}
	for i := range replay {
		if replay[i] != afterMark[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, replay[i], afterMark[i])
		}
	}
}

func TestCursorSurvivesConcurrentSplits(t *testing.T) {
	// A suspended cursor must not lose committed keys when its pending
	// subtrees split between Next calls.
	e := newEnv(t, gist.Config{MaxEntries: 4})
	for i := 0; i < 20; i++ {
		e.put(int64(i * 10)) // 0,10,...,190
	}
	tx := e.begin()
	cur, err := e.tree.OpenCursor(tx, btree.EncodeRange(0, 200), gist.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int64]bool)
	steps := 0
	for {
		r, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got[btree.DecodeKey(r.Key)] = true
		steps++
		if steps%3 == 0 {
			// Splits happen underneath the suspended cursor (keys
			// outside the original set, odd values).
			e.put(int64(1000 + steps))
			e.put(int64(2000 + steps))
		}
	}
	cur.Close()
	tx.Commit()
	for i := 0; i < 20; i++ {
		if !got[int64(i*10)] {
			t.Errorf("cursor missed committed key %d", i*10)
		}
	}
	e.checkTree()
}

func TestCursorBlocksOnUncommittedWrite(t *testing.T) {
	e := newEnv(t, gist.Config{})
	e.put(1)
	writer := e.begin()
	e.putIn(writer, 2) // uncommitted, record X-locked

	tx := e.begin()
	cur, err := e.tree.OpenCursor(tx, btree.EncodeRange(0, 10), gist.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		n   int
		err error
	}
	done := make(chan res, 1)
	go func() {
		all, err := cur.All()
		done <- res{n: len(all), err: err}
	}()
	select {
	case r := <-done:
		t.Fatalf("cursor did not block on uncommitted insert: %+v", r)
	case <-time.After(100 * time.Millisecond):
	}
	writer.Commit()
	select {
	case r := <-done:
		if r.err != nil || r.n != 2 {
			t.Fatalf("after writer commit: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cursor hung")
	}
	tx.Commit()
}
