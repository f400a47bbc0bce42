package kv

import "rntree/internal/pmem"

// liveRec is one record Compact carries over. Kind and LSN are
// preserved verbatim: a rewritten record is the same logical commit, so its
// replication identity (and the recovered LSN watermark) must survive
// compaction.
type liveRec struct {
	kind int
	lsn  uint64
	key  []byte
	val  []byte
}

// collectLive walks a hash chain newest-first and returns the newest record
// of every distinct key, preserving chain order (newest first). With
// keepTombs false, tombstoned keys are dropped entirely; with keepTombs true
// (replicating stores) the newest record is kept even when it is a
// tombstone, so a subscriber resuming from an old LSN still hears about the
// delete.
func (p *kvPart) collectLive(off uint64, keepTombs bool) []liveRec {
	var live []liveRec
	seen := map[string]bool{}
	for off != 0 {
		kind, key, val, next := p.readRecord(off)
		if !seen[string(key)] {
			seen[string(key)] = true
			if kind == recPut || keepTombs {
				live = append(live, liveRec{kind, p.readLSN(off), key, val})
			}
		}
		off = next
	}
	return live
}

// rewriteChain re-appends records (given newest-first) into the partition's
// log, preserving their order, kinds and LSNs, and repoints the index.
// Caller holds p.mu.
func (p *kvPart) rewriteChain(hash uint64, live []liveRec) error {
	next := uint64(0)
	for i := len(live) - 1; i >= 0; i-- {
		off, err := p.appendRecord(live[i].kind, live[i].lsn, live[i].key, live[i].val, next)
		if err != nil {
			return err
		}
		next = off
	}
	return p.tree.Upsert(hash, next)
}

// Compact rewrites every live record into fresh chunks and frees the old
// ones, reclaiming space from overwritten values and tombstones. It works
// one partition at a time, holding only that partition's lock — its writers
// wait, but writers on the other partitions and all readers keep running, so
// compaction never stops the world.
//
// On a store with a commit hook installed (a replication primary or
// replica), each key's newest tombstone is preserved instead of dropped, so
// the log remains a complete replication history; see SetCommitHook.
func (s *Store) Compact() error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	keepTombs := s.commitHook() != nil
	for pi := range s.parts {
		if err := s.parts[pi].compact(keepTombs); err != nil {
			return err
		}
	}
	return nil
}

// compact rewrites the live records of every hash of the partition into
// fresh chunks, then cuts the old chunks out of the chain.
//
// Crash safety: the fresh chunks are stacked on top of the old chain, so
// at every instant the whole chain — old records still referenced by
// not-yet-rewritten hashes included — is reachable from the chain-head line
// and therefore allocator-protected across a crash. Only after every hash
// is repointed is the chain cut (one persisted pointer write).
//
// Reader safety: lock-free readers may still be walking the old records,
// so the cut chunks are freed only after the partition's grace period has
// drained every reader that entered before the cut (grace.go).
func (p *kvPart) compact(keepTombs bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	oldHead := p.arena.Read8(p.headOff)
	if err := p.newChunk(); err != nil {
		return err
	}
	cut := p.chunk // its next pointer is oldHead until the cut below

	var live, dead int64
	var fail error
	p.tree.Scan(0, 0, func(hash, off uint64) bool {
		recs := p.collectLive(off, keepTombs)
		if len(recs) == 0 {
			if err := p.tree.Remove(hash); err != nil {
				fail = err
				return false
			}
			return true
		}
		if err := p.rewriteChain(hash, recs); err != nil {
			fail = err
			return false
		}
		for _, r := range recs {
			if r.kind == recPut {
				live++
			} else {
				dead++ // preserved tombstone: still reclaimable garbage
			}
		}
		return true
	})
	if fail != nil {
		return fail
	}

	if oldHead != pmem.NullOff {
		p.arena.Write8(cut+chunkNextOff, pmem.NullOff)
		p.arena.Persist(cut+chunkNextOff, 8)
		p.readers.wait()
		for c := oldHead; c != pmem.NullOff; {
			nxt := p.arena.Read8(c + chunkNextOff)
			p.arena.Free(c, p.chunkSz)
			c = nxt
		}
	}
	p.live.Store(live)
	p.dead.Store(dead)
	return nil
}
