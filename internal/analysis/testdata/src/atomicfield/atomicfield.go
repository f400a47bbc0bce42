// Package atomicfield is the atomicfield golden fixture: fields that earn
// atomic status in one function (sync/atomic call on their address, method
// call on a declared atomic type) are seeded with plain accesses of every
// classified kind, next to the deliberate exemptions (composite-literal
// init, len/cap, index-only range, slice-header assignment, passing a
// *atomic.T around).
package atomicfield

import "sync/atomic"

type stats struct {
	hits  uint64        // atomic by address: &s.hits
	words []uint64      // atomic by element address: &s.words[i]
	seq   atomic.Uint64 // declared atomic value type
	fps   [4]atomic.Uint64
}

var global uint64 // package-level word, atomic by address

// atomicUses gives every field its atomic classification.
func atomicUses(s *stats) {
	atomic.AddUint64(&s.hits, 1)
	atomic.StoreUint64(&s.words[0], 7)
	s.seq.Add(1)
	s.fps[1].Store(2)
	atomic.AddUint64(&global, 1)
}

func plainReadWrite(s *stats) uint64 {
	s.hits = 0    // want `field atomicfield\.stats\.hits mixes atomic and plain access: plain write here`
	s.hits++      // want `field atomicfield\.stats\.hits mixes atomic and plain access: plain write here`
	return s.hits // want `field atomicfield\.stats\.hits mixes atomic and plain access: plain read here`
}

func plainElements(s *stats) uint64 {
	s.words[1] = 3    // want `field atomicfield\.stats\.words mixes atomic and plain access: plain element write here`
	return s.words[2] // want `field atomicfield\.stats\.words mixes atomic and plain access: plain element read here`
}

func aliasAndCopy(s *stats, dst []uint64) {
	_ = s.words[1:2]   // want `field atomicfield\.stats\.words mixes atomic and plain access: aliasing slice of atomic words here`
	copy(dst, s.words) // want `field atomicfield\.stats\.words mixes atomic and plain access: bulk copy over atomic words here`
}

func sink(p *uint64) { _ = p }

func escapedAddresses(s *stats) {
	p := &s.fps[0] // want `field atomicfield\.stats\.fps mixes atomic and plain access: address of atomic word element taken here`
	_ = p
	sink(&s.words[2]) // want `field atomicfield\.stats\.words mixes atomic and plain access: address of atomic word element escapes to sink here`
}

func declaredAtomicPlain(s *stats) {
	_ = s.seq               // want `field atomicfield\.stats\.seq mixes atomic and plain access: plain read \(value copy of atomic type\) here`
	s.seq = atomic.Uint64{} // want `field atomicfield\.stats\.seq mixes atomic and plain access: plain write here`
}

// arrayReset: assigning an ARRAY value rewrites its atomic elements — the
// slice-header exemption must not apply (regression for the slice/array
// distinction in classifyWrite).
func arrayReset(s *stats) {
	s.fps = [4]atomic.Uint64{} // want `field atomicfield\.stats\.fps mixes atomic and plain access: plain write here`
}

func packageLevel() uint64 {
	global = 9    // want `field atomicfield\.global mixes atomic and plain access: plain write here`
	return global // want `field atomicfield\.global mixes atomic and plain access: plain read here`
}

func rangeWithValue(s *stats) (sum uint64) {
	for _, w := range s.words { // want `field atomicfield\.stats\.words mixes atomic and plain access: plain element read \(range\) here`
		sum += w
	}
	return sum
}

// exemptPatterns must all stay silent: the object is unpublished, the
// access touches only the slice header, or the address flows into the
// sync/atomic method API.
func exemptPatterns(s *stats) {
	s2 := &stats{hits: 1, words: make([]uint64, 8)} // composite-literal init
	_ = s2
	_ = len(s.words)             // header only
	_ = cap(s.words)             // header only
	s.words = make([]uint64, 16) // slice-header assignment (grow)
	for i := range s.words {     // index-only range
		_ = i
	}
	var u *atomic.Uint64 = &s.seq // the method API takes *atomic.T
	u.Store(3)
}

// auditedRecovery: the escape hatch, with its audit comment.
func auditedRecovery(s *stats) {
	s.hits = 0 //rnvet:ignore atomicfield single-threaded recovery reset; no reader exists before the store is republished
}
