package gistdb

import "repro/internal/storage"

// Test-only hooks into the replica's engine parts, for byte-level
// convergence checks in replica_test.go.

// ReplicaMem exposes the replica's memory disk.
func ReplicaMem(r *ReplicaDB) *storage.MemDisk { return r.eng.mem }

// ReplicaFlushPool writes the replica pool's dirty pages back to its disk so
// two replicas' disks can be compared byte-for-byte.
func ReplicaFlushPool(r *ReplicaDB) error { return r.eng.pool.FlushAll() }

// HeapPending returns the number of heap deletes whose deleter has not
// finished, for the reservation tests in heap_test.go.
func HeapPending(db *DB) int { return db.heap.Pending() }
