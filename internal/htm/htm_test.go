package htm

import (
	"sync"
	"testing"
	"testing/quick"

	"rntree/internal/pmem"
)

func newRegion(t *testing.T, size uint64, cfg Config) *Region {
	t.Helper()
	return NewRegion(pmem.New(pmem.Config{Size: size}), cfg)
}

func TestCommitPublishesWrites(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	err := r.Run(func(tx *Tx) {
		tx.Store8(pmem.DataStart+128, 7)
		tx.Store8(pmem.DataStart+136, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Arena().Read8(pmem.DataStart+128) != 7 || r.Arena().Read8(pmem.DataStart+136) != 8 {
		t.Fatal("committed writes not visible")
	}
	if s := r.Stats(); s.Commits != 1 {
		t.Fatalf("commits = %d", s.Commits)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	err := r.Run(func(tx *Tx) {
		tx.Store8(pmem.DataStart+128, 42)
		if tx.Load8(pmem.DataStart+128) != 42 {
			t.Error("did not read own write")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExplicitAbortDiscardsWrites(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	err := r.Run(func(tx *Tx) {
		tx.Store8(pmem.DataStart+128, 99)
		tx.Abort()
	})
	if err != ErrExplicitAbort {
		t.Fatalf("err = %v", err)
	}
	if r.Arena().Read8(pmem.DataStart+128) != 0 {
		t.Fatal("aborted write leaked")
	}
	if s := r.Stats(); s.ExplicitAborts != 1 || s.Commits != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCapacityAbortFallsBack(t *testing.T) {
	r := newRegion(t, 1<<20, Config{MaxLines: 4})
	out, err := r.RunOutcome(func(tx *Tx) {
		for i := uint64(0); i < 16; i++ {
			tx.Store8(pmem.DataStart+i*pmem.LineSize, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fallback {
		t.Fatal("capacity overflow should run in fallback")
	}
	if s := r.Stats(); s.CapacityAborts != 1 || s.Fallbacks != 1 {
		t.Fatalf("stats %+v", s)
	}
	for i := uint64(0); i < 16; i++ {
		if r.Arena().Read8(pmem.DataStart+i*pmem.LineSize) != i {
			t.Fatal("fallback writes lost")
		}
	}
}

func TestPersistInsideAborts(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	out, err := r.RunOutcome(func(tx *Tx) {
		tx.Store8(pmem.DataStart+128, 5)
		tx.Persist(pmem.DataStart+128, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fallback {
		t.Fatal("persist inside transaction must force fallback")
	}
	if r.Arena().NVMRead8(pmem.DataStart+128) != 5 {
		t.Fatal("fallback persist did not reach NVM")
	}
	if s := r.Stats(); s.PersistAborts != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestUncommittedWritesNeverInCrashImage(t *testing.T) {
	r := newRegion(t, 1<<16, Config{MaxLines: 4})
	// Abort mid-transaction: buffered stores must not be evictable.
	_ = r.Run(func(tx *Tx) {
		tx.Store8(pmem.DataStart+256, 0xbad)
		tx.Abort()
	})
	img := r.Arena().CrashImage(nil, 1.0) // evict everything dirty
	rec, err := pmem.Recover(img, pmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Read8(pmem.DataStart+256) != 0 {
		t.Fatal("uncommitted transactional store reached a crash image")
	}
}

func TestLineRoundTripInTx(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	var line [pmem.LineSize]byte
	for i := range line {
		line[i] = byte(i)
	}
	if err := r.Run(func(tx *Tx) { tx.StoreLine(640, &line) }); err != nil {
		t.Fatal(err)
	}
	var got [pmem.LineSize]byte
	if err := r.Run(func(tx *Tx) { tx.LoadLine(640, &got) }); err != nil {
		t.Fatal(err)
	}
	if got != line {
		t.Fatal("line mismatch through transactions")
	}
}

func TestLoadLineSeesBufferedStores(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	err := r.Run(func(tx *Tx) {
		tx.Store8(640, 0x1122334455667788)
		var got [pmem.LineSize]byte
		tx.LoadLine(640, &got)
		if got[0] != 0x88 || got[7] != 0x11 {
			t.Error("LoadLine missed buffered store")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomicCounterNoLostUpdates(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	const workers = 8
	const per = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := r.Run(func(tx *Tx) {
					tx.Store8(pmem.DataStart+128, tx.Load8(pmem.DataStart+128)+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Arena().Read8(pmem.DataStart + 128); got != workers*per {
		t.Fatalf("counter = %d, want %d (isolation violated)", got, workers*per)
	}
}

func TestMultiLineAtomicity(t *testing.T) {
	// Two words on different lines are always updated together; readers must
	// never observe them out of sync.
	r := newRegion(t, 1<<16, Config{})
	const a, b = uint64(pmem.DataStart + 128), uint64(pmem.DataStart + 1024)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.Run(func(tx *Tx) {
				tx.Store8(a, i)
				tx.Store8(b, i)
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 3000; i++ {
		var va, vb uint64
		if err := r.Run(func(tx *Tx) {
			va = tx.Load8(a)
			vb = tx.Load8(b)
		}); err != nil {
			t.Fatal(err)
		}
		if va != vb {
			close(stop)
			wg.Wait()
			t.Fatalf("torn read: %d != %d", va, vb)
		}
	}
	close(stop)
	wg.Wait()
}

func TestFallbackExcludesHardwarePath(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	var wg sync.WaitGroup
	// One goroutine hammers the fallback path (persist forces it), another
	// uses the hardware path on the same line; the counter must stay exact.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				err := r.Run(func(tx *Tx) {
					v := tx.Load8(pmem.DataStart + 128)
					if w == 0 {
						tx.Persist(pmem.DataStart+128, 8) // aborts -> fallback
					}
					tx.Store8(pmem.DataStart+128, v+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Arena().Read8(pmem.DataStart + 128); got != 600 {
		t.Fatalf("counter = %d, want 600", got)
	}
}

func TestOutcomeAttempts(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	out, err := r.RunOutcome(func(tx *Tx) { tx.Store8(pmem.DataStart+128, 1) })
	if err != nil || out.Attempts != 1 || out.Fallback {
		t.Fatalf("out=%+v err=%v", out, err)
	}
}

func TestReadOnlyTxCommits(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	r.Arena().Write8(pmem.DataStart+128, 77)
	var got uint64
	if err := r.Run(func(tx *Tx) { got = tx.Load8(pmem.DataStart + 128) }); err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("got %d", got)
	}
}

func TestResetStats(t *testing.T) {
	r := newRegion(t, 1<<16, Config{})
	_ = r.Run(func(tx *Tx) { tx.Store8(pmem.DataStart+128, 1) })
	r.ResetStats()
	if s := r.Stats(); s.Commits != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}

// Property: for any sequence of per-key increments spread across goroutines,
// the final state equals the sequential result.
func TestQuickSerializableIncrements(t *testing.T) {
	f := func(keys []uint8) bool {
		r := NewRegion(pmem.New(pmem.Config{Size: 1 << 16}), Config{})
		want := make(map[uint64]uint64)
		var wg sync.WaitGroup
		for shard := 0; shard < 4; shard++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				for i, k := range keys {
					if i%4 != shard {
						continue
					}
					off := pmem.DataStart + uint64(k)*8
					_ = r.Run(func(tx *Tx) { tx.Store8(off, tx.Load8(off)+1) })
				}
			}(shard)
		}
		wg.Wait()
		for _, k := range keys {
			want[pmem.DataStart+uint64(k)*8]++
		}
		for off, v := range want {
			if r.Arena().Read8(off) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
