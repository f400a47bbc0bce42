// Kvstore demonstrates the durable byte-string key-value layer built on
// RNTree (package kv) — the "primary key store" use case the paper's §3.3
// motivates. It loads a small user table with parallel writers (the store
// is partitioned, so Puts on different partitions never serialize),
// overwrites and deletes under churn, crashes the machine, recovers,
// compacts, and prints the space accounting along the way.
package main

import (
	"fmt"
	"log"
	"sync"

	"rntree/kv"
)

func main() {
	// Four partitions: the store is a forest of four independent
	// tree+value-log pairs, each on its own arena with its own HTM
	// fallback lock, so writers contend on neither the index nor the log.
	s, err := kv.New(kv.Options{DualSlotArray: true, Partitions: 4})
	if err != nil {
		log.Fatal(err)
	}

	// A small "users" table with unique keys (conditional semantics live in
	// the tree underneath: the index key is the hash of the full key),
	// loaded by parallel writers: each key's hash picks a partition, so the
	// writers' record persists overlap across the partitions' value logs
	// instead of serializing behind one log lock.
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 10_000; i += writers {
				key := fmt.Sprintf("user:%05d", i)
				val := fmt.Sprintf(`{"id":%d,"balance":%d}`, i, i*10)
				if err := s.Put([]byte(key), []byte(val)); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	st0 := s.Stats()
	fmt.Printf("loaded %d users with %d parallel writers over %d partitions\n",
		st0.LiveKeys, writers, st0.Partitions)
	v, err := s.Get([]byte("user:00042"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user:00042 = %s\n", v)

	// Churn: overwrite every balance five times, delete a tenth of users.
	for round := 0; round < 5; round++ {
		for i := 0; i < 10_000; i++ {
			key := fmt.Sprintf("user:%05d", i)
			val := fmt.Sprintf(`{"id":%d,"round":%d}`, i, round)
			if err := s.Put([]byte(key), []byte(val)); err != nil {
				log.Fatal(err)
			}
		}
	}
	for i := 0; i < 10_000; i += 10 {
		if err := s.Delete([]byte(fmt.Sprintf("user:%05d", i))); err != nil {
			log.Fatal(err)
		}
	}
	st := s.Stats()
	fmt.Printf("after churn: %d live keys, %d dead log records, %d persists, %d tree leaves\n",
		st.LiveKeys, st.DeadRecords, st.Persists, st.TreeLeaves)

	// Power loss hits all four partition arenas at once. Everything
	// acknowledged must survive; each partition recovers independently.
	imgs := s.Snapshot()
	s2, err := kv.Open(imgs, kv.Options{DualSlotArray: true})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s2.Get([]byte("user:00000")); err != kv.ErrNotFound {
		log.Fatal("deleted user resurrected after crash")
	}
	v, err = s2.Get([]byte("user:00042"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after crash recovery: %d live keys; user:00042 = %s\n", s2.Len(), v)

	// Reclaim the churned space.
	if err := s2.Compact(); err != nil {
		log.Fatal(err)
	}
	st = s2.Stats()
	fmt.Printf("after compaction: %d live keys, %d dead records\n", st.LiveKeys, st.DeadRecords)
}
