// Command banking exercises the transactional machinery on a classic
// OLTP-style workload: a unique index of account numbers, money transfers
// with savepoints and partial rollback, deadlock detection between
// conflicting transfers, and repeatable-read error reproducibility on the
// unique index (§8 and §10.2 of the paper).
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"

	gistdb "repro"
	"repro/internal/btree"
)

func encodeBalance(b int64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(b))
	return out
}

func decodeBalance(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }

func main() {
	db, err := gistdb.Open(gistdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	accounts, err := db.CreateIndex("accounts", btree.Ops{})
	if err != nil {
		log.Fatal(err)
	}

	// Open accounts through the unique index: duplicate account numbers
	// are rejected, repeatably.
	rids := make(map[int64]gistdb.RID)
	tx, _ := db.Begin()
	for acct := int64(1); acct <= 4; acct++ {
		rid, err := accounts.InsertUnique(tx, btree.EncodeKey(acct), encodeBalance(1000))
		if err != nil {
			log.Fatal(err)
		}
		rids[acct] = rid
	}
	tx.Commit()
	fmt.Println("opened accounts 1-4 with balance 1000 each")

	dup, _ := db.Begin()
	_, err = accounts.InsertUnique(dup, btree.EncodeKey(2), encodeBalance(0))
	fmt.Printf("opening duplicate account 2: %v\n", err)
	_, err2 := accounts.InsertUnique(dup, btree.EncodeKey(2), encodeBalance(0))
	fmt.Printf("retry inside the same transaction (repeatable): %v\n", err2)
	if !errors.Is(err, gistdb.ErrDuplicate) || !errors.Is(err2, gistdb.ErrDuplicate) {
		log.Fatal("unique violation not repeatable")
	}
	dup.Abort()

	// A transfer with a savepoint: the second leg fails business
	// validation, the transfer rolls back to the savepoint, and a
	// different transfer completes in the same transaction.
	fmt.Println("\ntransfer with savepoint + partial rollback:")
	tx2, _ := db.Begin()
	if err := tx2.Savepoint("before-transfer"); err != nil {
		log.Fatal(err)
	}
	// Move account 1 -> re-keyed entry simulation: delete + reinsert
	// with updated balance records.
	if err := accounts.Delete(tx2, btree.EncodeKey(1), rids[1]); err != nil {
		log.Fatal(err)
	}
	if _, err := accounts.Insert(tx2, btree.EncodeKey(1), encodeBalance(400)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  debited account 1 by 600 ... but the credit leg fails validation")
	if err := tx2.RollbackTo("before-transfer"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  rolled back to savepoint; account 1 restored")
	if err := tx2.Commit(); err != nil {
		log.Fatal(err)
	}

	check, _ := db.Begin()
	hit, _ := accounts.Search(check, btree.EncodeRange(1, 1), gistdb.ReadCommitted)
	bal, _ := accounts.Fetch(hit[0].RID)
	fmt.Printf("  account 1 balance after rollback: %d\n", decodeBalance(bal))
	check.Commit()

	// Deadlock: two transfers locking the same two accounts in opposite
	// orders; the lock manager detects the cycle and one aborts.
	fmt.Println("\nconflicting transfers (deadlock detection):")
	var wg sync.WaitGroup
	outcome := make(chan string, 2)
	transfer := func(name string, first, second int64) {
		defer wg.Done()
		t, err := db.Begin()
		if err != nil {
			outcome <- name + ": " + err.Error()
			return
		}
		if err := t.LockRecord(rids[first]); err != nil {
			t.Abort()
			outcome <- fmt.Sprintf("%s: aborted locking acct %d (%v)", name, first, errors.Unwrap(err))
			return
		}
		// Ensure both goroutines hold their first lock before the
		// second acquisition closes the cycle.
		barrier.Done()
		barrier.Wait()
		if err := t.LockRecord(rids[second]); err != nil {
			t.Abort()
			outcome <- fmt.Sprintf("%s: deadlock victim on acct %d — aborted and would retry", name, second)
			return
		}
		t.Commit()
		outcome <- fmt.Sprintf("%s: committed", name)
	}
	barrier.Add(2)
	wg.Add(2)
	go transfer("transfer A (3->4)", 3, 4)
	go transfer("transfer B (4->3)", 4, 3)
	wg.Wait()
	close(outcome)
	for line := range outcome {
		fmt.Println("  " + line)
	}

	m := db.Metrics()
	fmt.Printf("\nengine stats: %d commits, %d aborts, %d lock waits, %d deadlocks detected\n",
		m["txn.commits"], m["txn.aborts"], m["lock.waits"], m["lock.deadlocks"])
}

var barrier sync.WaitGroup
