package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"rntree/internal/pmem"
	"rntree/internal/tree"
)

// FuzzTreeOps interprets the fuzz input as an operation tape and checks the
// tree against a map model plus its structural invariants after every few
// ops. Run with `go test -fuzz=FuzzTreeOps ./internal/core/`; the seed
// corpus also runs under plain `go test`.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("insert-remove-insert"))
	f.Add(func() []byte {
		// Sequential inserts then removes over a small key space.
		var b []byte
		for i := 0; i < 64; i++ {
			b = append(b, 0, byte(i))
		}
		for i := 0; i < 32; i++ {
			b = append(b, 3, byte(i))
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		a := pmem.New(pmem.Config{Size: 16 << 20})
		tr, err := New(a, Options{LeafCapacity: 8, DualSlot: len(data)%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		model := map[uint64]uint64{}
		for i := 0; i+1 < len(data); i += 2 {
			op := data[i] % 5
			key := uint64(data[i+1]) % 128
			val := uint64(i)
			switch op {
			case 0:
				err := tr.Insert(key, val)
				if _, ok := model[key]; ok {
					if err != tree.ErrKeyExists {
						t.Fatalf("insert dup %d: %v", key, err)
					}
				} else if err != nil {
					t.Fatalf("insert %d: %v", key, err)
				} else {
					model[key] = val
				}
			case 1:
				err := tr.Update(key, val)
				if _, ok := model[key]; ok {
					if err != nil {
						t.Fatalf("update %d: %v", key, err)
					}
					model[key] = val
				} else if err != tree.ErrKeyNotFound {
					t.Fatalf("update absent %d: %v", key, err)
				}
			case 2:
				if err := tr.Upsert(key, val); err != nil {
					t.Fatalf("upsert %d: %v", key, err)
				}
				model[key] = val
			case 3:
				err := tr.Remove(key)
				if _, ok := model[key]; ok {
					if err != nil {
						t.Fatalf("remove %d: %v", key, err)
					}
					delete(model, key)
				} else if err != tree.ErrKeyNotFound {
					t.Fatalf("remove absent %d: %v", key, err)
				}
			case 4:
				v, ok := tr.Find(key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					t.Fatalf("find %d = (%d,%v) want (%d,%v)", key, v, ok, mv, mok)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		if tr.Len() != len(model) {
			t.Fatalf("len %d != model %d", tr.Len(), len(model))
		}
	})
}

// FuzzCrashImage drives the tree with the fuzz tape, crashes at an
// input-chosen persist boundary with input-chosen eviction, and requires
// recovery to produce a consistent prefix.
func FuzzCrashImage(f *testing.F) {
	seed := make([]byte, 40)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed, uint16(5), false)
	f.Add(seed, uint16(0), true)
	f.Fuzz(func(t *testing.T, data []byte, crashAt uint16, evictAll bool) {
		if len(data) < 2 || len(data) > 2048 {
			return
		}
		a := pmem.New(pmem.Config{Size: 16 << 20})
		tr, err := New(a, Options{LeafCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		committed := map[uint64]uint64{}
		var before, after map[uint64]uint64
		var img []uint64
		phase := 0
		var curKey, curVal uint64
		var curDel bool
		snap := func() {
			if img != nil || phase != int(crashAt) {
				phase++
				return
			}
			phase++
			prob := 0.0
			if evictAll {
				prob = 1.0
			}
			img = a.CrashImage(fuzzRng(data), prob)
			before = cloneMap(committed)
			after = cloneMap(committed)
			if curDel {
				delete(after, curKey)
			} else {
				after[curKey] = curVal
			}
		}
		a.SetHooks(&pmem.Hooks{
			BeforePersist: func(_, _ uint64) { snap() },
			AfterPersist:  func(_, _ uint64) { snap() },
		})
		for i := 0; i+1 < len(data); i += 2 {
			curKey = uint64(data[i]) % 64
			curVal = uint64(i) + 1
			curDel = data[i+1]%3 == 0
			if curDel {
				if _, ok := committed[curKey]; !ok {
					continue
				}
				if err := tr.Remove(curKey); err != nil {
					t.Fatal(err)
				}
				delete(committed, curKey)
			} else {
				if err := tr.Upsert(curKey, curVal); err != nil {
					t.Fatal(err)
				}
				committed[curKey] = curVal
			}
		}
		a.SetHooks(nil)
		if img == nil {
			img = a.CrashImage(nil, 0)
			before, after = committed, committed
		}
		rec, err := CrashRecover(reboot(t, img), Options{})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("recovered invariants: %v", err)
		}
		got := map[uint64]uint64{}
		rec.Scan(0, 0, func(k, v uint64) bool { got[k] = v; return true })
		if !mapsEqual(got, before) && !mapsEqual(got, after) {
			t.Fatalf("recovered state matches neither model: got=%d before=%d after=%d",
				len(got), len(before), len(after))
		}
	})
}

func cloneMap(m map[uint64]uint64) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// fuzzRng derives a deterministic RNG from the input.
func fuzzRng(data []byte) *rand.Rand {
	var seed uint64 = 1
	if len(data) >= 8 {
		seed = binary.LittleEndian.Uint64(data[:8]) | 1
	}
	return rand.New(rand.NewSource(int64(seed)))
}
