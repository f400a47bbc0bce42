package main

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"rntree/internal/forest"
	"rntree/internal/obj"
	"rntree/internal/pmem"
	"rntree/kv"
)

// recovered is the system reopened from its crash images: what a restart
// after power loss would serve. The traced ladder runs on it.
type recovered struct {
	forest   *forest.Forest
	treeImgs [][]uint64 // kept so the ladder can open a second, equally cold tree
	st       *kv.Store
	objs     *obj.Store
}

func crashImages(arenas []*pmem.Arena) [][]uint64 {
	imgs := make([][]uint64, len(arenas))
	for i, a := range arenas {
		// Probability 0: only lines that were flushed and fenced survive,
		// which is the guarantee an acknowledged write was given.
		imgs[i] = a.CrashImage(nil, 0)
	}
	return imgs
}

// crashCheck is the durability check behind lost_acked_writes. It cuts the
// power on every arena, discards the running system, reopens from the
// images alone, and counts acknowledged writes the reopened system does not
// return (at that value or a later-acknowledged one). writers are all
// workers that wrote: the served ones and the probe.
func crashCheck(e *env, in *inputs, ver *versions, writers []*worker) (lost int, rec *recovered, err error) {
	wl := in.wl
	rec = &recovered{}
	if wl.tree {
		imgs := e.forest.CrashImages(nil, 0)
		e.tearDown()
		releaseMemory()
		f, err := forest.Open(imgs, treeOptions(e.arenaSize, pmem.LatencyModel{}))
		if err != nil {
			return 0, nil, fmt.Errorf("reopen tree from crash image: %w", err)
		}
		for i := 0; i < in.nkeys; i++ {
			idx := uint32(i)
			val, ok := f.Find(in.treeKeyOf(idx))
			gotIdx, v := splitTreeValue(val)
			if !ok || gotIdx != idx || v < ver.acked[i].Load() || v > ver.issued[i].Load() {
				lost++
			}
		}
		rec.forest, rec.treeImgs = f, imgs
		return lost, rec, nil
	}

	primImgs := crashImages(e.primary.st.Arenas())
	var replImgs [][]uint64
	if e.replica != nil {
		replImgs = crashImages(e.replica.st.Arenas())
	}
	e.tearDown()
	releaseMemory()

	if replImgs != nil {
		st, err := kv.Open(replImgs, kvOptions(e.arenaSize))
		if err != nil {
			return 0, nil, fmt.Errorf("reopen replica from crash images: %w", err)
		}
		objs, err := obj.Attach(st, obj.Options{ReadOnly: true})
		if err != nil {
			return 0, nil, fmt.Errorf("attach objects to reopened replica: %w", err)
		}
		lost += countLost(st, objs, in, ver, writers)
		objs.Close()
		replImgs, st, objs = nil, nil, nil
		releaseMemory()
	}

	st, err := kv.Open(primImgs, kvOptions(e.arenaSize))
	if err != nil {
		return 0, nil, fmt.Errorf("reopen store from crash images: %w", err)
	}
	rec.st = st
	if wl.objs {
		if rec.objs, err = obj.Attach(st, obj.Options{}); err != nil {
			return 0, nil, fmt.Errorf("attach objects to reopened store: %w", err)
		}
	}
	lost += countLost(st, rec.objs, in, ver, writers)
	return lost, rec, nil
}

// countLost checks one reopened store against everything acknowledged.
func countLost(st *kv.Store, objs *obj.Store, in *inputs, ver *versions, writers []*worker) (lost int) {
	size := in.wl.valSize
	for i := 0; i < in.nkeys; i++ {
		val, err := st.Get(in.key(uint32(i)))
		v, ok := in.checkValue(val, uint64(i), size)
		if err != nil || !ok || v < ver.acked[i].Load() || v > ver.issued[i].Load() {
			lost++
		}
	}
	key := make([]byte, keyLen)
	for _, wk := range writers {
		for kind, ns := range map[opKind]int{opPutFresh: nsFlat, opPutDurable: nsDurable} {
			for ord := uint32(0); ord < wk.fresh[kind]; ord++ {
				if wk.freshFailed[mkOp(kind, ord)] {
					continue
				}
				id := in.freshID(ns, wk.id, ord)
				putHexKey(key, id)
				val, err := st.Get(key)
				if v, ok := in.checkValue(val, id, size); err != nil || !ok || v != 1 {
					lost++
				}
			}
		}
		for ord := uint32(0); ord < wk.fresh[opHSet]; ord++ {
			if wk.freshFailed[mkOp(opHSet, ord)] {
				continue
			}
			name, field, id := wk.hashField(ord)
			val, err := objs.HGet(name, field)
			if v, ok := in.checkValue(val, id, size); err != nil || !ok || v != 1 {
				lost++
			}
		}
	}
	return lost
}

// releaseMemory returns what the discarded system held to the OS, so the
// reopened one does not stack on top of it.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
