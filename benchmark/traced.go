package main

import (
	"fmt"
	"slices"

	"rntree/internal/pmem"
)

// modeledStallNs is the time the latency model charges for a number of
// persistent instructions covering a number of lines: pure arithmetic on
// counts, so it repeats exactly wherever the counts do.
func modeledStallNs(m pmem.LatencyModel, persists, lines float64) float64 {
	return persists*float64(m.Fence) + lines*float64(m.FlushPerLine+m.DrainPerLine)
}

// traced computes the per-layer metrics: window deltas of the layers' own
// counters, the ladder's rungs, and the probes.
func (r *report) traced(in *inputs, p *pass, win *window, rec *recovered, ver *versions, probes *probeResult, lagRecords, catchupMs float64) error {
	wl := r.wl
	t := tallyPass(p, wl)
	b, a := p.before, p.after
	d := func(x, y uint64) float64 { return float64(y - x) }
	v := r.vals

	// The window's traced slices against its untraced ones. The tree pass
	// records no spans, so tracing cannot have cost it anything.
	overhead, tracedSec, untracedSec := 1.0, 0.0, 0.0
	if !wl.tree {
		overhead, tracedSec, untracedSec = p.pacer.traceOverhead()
	}
	v["trace_overhead_ratio"] = overhead

	l := newLadder()
	l.micro(wl.latency)
	var err error
	if wl.tree {
		err = l.runTree(in, rec)
	} else {
		err = l.runServed(in, rec, ver)
	}
	if err != nil {
		return err
	}

	// pmem: what the window's writes cost the device.
	v["pmem.persists_per_write"] = ratio(d(b.pm.Persists, a.pm.Persists), t.writes)
	v["pmem.fences_per_write"] = ratio(d(b.pm.Fences, a.pm.Fences), t.writes)
	v["pmem.lines_per_write"] = ratio(d(b.pm.LinesFlushed, a.pm.LinesFlushed), t.writes)
	v["pmem.words_per_write"] = ratio(d(b.pm.WordsWritten, a.pm.WordsWritten), t.writes)
	v["pmem.allocs_per_write"] = ratio(d(b.pm.Allocs, a.pm.Allocs), t.writes)
	v["pmem.frees_per_write"] = ratio(d(b.pm.Frees, a.pm.Frees), t.writes)
	v["pmem.modeled_stall_us_per_write"] = modeledStallNs(wl.latency, v["pmem.persists_per_write"], v["pmem.lines_per_write"]) / 1e3
	v["pmem.persist_1line_ns"] = l.persist1
	v["pmem.persist_17line_ns"] = l.persist17
	v["pmem.flush_cpu_ns_per_line"] = l.flushCPUPerLine

	// htm: only the bare tree exposes its regions' outcome counters.
	hb, ha := b.tree.HTM, a.tree.HTM
	commits := d(hb.Commits, ha.Commits)
	aborts := d(hb.ConflictAborts, ha.ConflictAborts) + d(hb.CapacityAborts, ha.CapacityAborts) +
		d(hb.ExplicitAborts, ha.ExplicitAborts) + d(hb.PersistAborts, ha.PersistAborts) + d(hb.SpuriousAborts, ha.SpuriousAborts)
	v["htm.attempts_per_commit"] = ratio(commits+aborts, commits)
	v["htm.conflict_aborts_per_kop"] = perK(d(hb.ConflictAborts, ha.ConflictAborts), t.ops)
	v["htm.capacity_aborts_per_kop"] = perK(d(hb.CapacityAborts, ha.CapacityAborts), t.ops)
	v["htm.fallbacks_per_kop"] = perK(d(hb.Fallbacks, ha.Fallbacks), t.ops)
	v["htm.read_txn_ns"] = l.ns("htm.txn.read")
	v["htm.update_txn_ns"] = l.ns("htm.txn.update")

	v["core.find_ns"] = l.ns("core.find")
	v["core.upsert_ns"] = l.ns("core.upsert")
	v["core.persists_per_upsert"] = ratio(float64(l.upsertPersists), float64(l.upserts))
	v["core.read_retries_per_kop"] = perK(d(b.tree.ReadRetries, a.tree.ReadRetries), t.ops)
	v["core.leaves"] = float64(a.tree.Leaves + a.kv.TreeLeaves)
	v["core.depth"] = float64(l.coreDepth)

	v["forest.find_ns"] = max(l.ns("forest.find")-l.ns("core.find"), 0)
	v["forest.upsert_ns"] = max(l.ns("forest.upsert")-l.ns("core.upsert"), 0)
	var persists []float64
	for i := range a.arenas {
		persists = append(persists, d(b.arenas[i].Persists, a.arenas[i].Persists))
	}
	var sum float64
	for _, x := range persists {
		sum += x
	}
	v["forest.partition_skew"] = ratio(slices.Max(persists)*float64(len(persists)), sum)

	// server first: kv.putbatch is measured at the batch size it observed.
	sb, sa := b.srv, a.srv
	v["server.batch_mean"] = ratio(d(sb.BatchedPuts, sa.BatchedPuts), d(sb.Batches, sa.Batches))
	reqs := d(sb.Requests, sa.Requests)
	v["server.overloads_per_kreq"] = perK(d(sb.Overloads, sa.Overloads), reqs)
	cb, ca := sb.Cache, sa.Cache
	v["server.cache_hit_ratio"] = ratio(d(cb.Hits, ca.Hits), d(cb.Hits, ca.Hits)+d(cb.Misses, ca.Misses))
	v["server.cache_evictions_per_kop"] = perK(d(cb.Evictions, ca.Evictions), t.ops)
	v["server.cache_fill_aborts_per_kop"] = perK(d(cb.FillAborts, ca.FillAborts), t.ops)
	v["server.cache_invalidations_per_kop"] = perK(d(cb.Invalidations, ca.Invalidations), t.ops)
	v["server.cache_admit_rejects_per_kop"] = perK(d(cb.AdmitRejects, ca.AdmitRejects), t.ops)

	v["kv.put_ns"] = l.ns("kv.put")
	v["kv.get_ns"] = l.ns("kv.get")
	v["kv.putbatch_ns_per_rec"] = 0
	if !wl.tree {
		batch := max(int(v["server.batch_mean"]+0.5), 1)
		v["kv.putbatch_ns_per_rec"] = l.putBatches(in, rec, batch)
	}
	v["kv.persists_per_put"] = ratio(float64(l.putPersists), float64(l.puts))
	v["kv.lines_per_put"] = ratio(float64(l.putLines), float64(l.puts))
	v["kv.live_keys"] = float64(a.kv.LiveKeys)
	v["kv.dead_records"] = float64(a.kv.DeadRecords)

	whole := cutWindow(p.recorders(), p.from, win.to, 0, 1, win.weight)
	kindP := func(k opKind, q float64) float64 {
		return quantileUs(whole.latencies(func(x opKind) bool { return x == k }), q).median
	}
	v["obj.hset_p50_us"] = kindP(opHSet, 0.5)
	v["obj.hget_p50_us"] = kindP(opHGet, 0.5)
	v["obj.hset_ns"] = l.ns("obj.hset")
	v["obj.hget_ns"] = l.ns("obj.hget")
	v["obj.persists_per_hset"] = ratio(float64(l.hsetPersists), float64(l.hsets))
	v["obj.intents_undone"] = d(b.objs.IntentsUndone, a.objs.IntentsUndone)

	v["repl.put_durable_p50_us"] = kindP(opPutDurable, 0.5)
	v["repl.put_durable_p99_us"] = kindP(opPutDurable, 0.99)
	shipped := d(b.prim.Shipped, a.prim.Shipped)
	v["repl.shipped_per_write"] = ratio(shipped, t.writes)
	v["repl.acks_per_kshipped"] = perK(d(b.prim.Acks, a.prim.Acks), shipped)
	v["repl.lag_records_at_stop"] = lagRecords
	v["repl.catchup_ms"] = catchupMs
	v["repl.durable_timeouts"] = d(sb.DurableTimeouts, sa.DurableTimeouts)

	v["wire.encode_req_ns"] = l.ns("wire.encode_req")
	v["wire.decode_req_ns"] = l.ns("wire.decode_req")
	v["wire.encode_resp_ns"] = l.ns("wire.encode_resp")
	v["wire.decode_resp_ns"] = l.ns("wire.decode_resp")
	v["wire.bytes_per_op"] = ratio(float64(l.wireBytes), float64(l.wireOps))
	v["wire.allocs_per_decode"] = l.decodeAllocs
	wireNs := v["wire.encode_req_ns"] + v["wire.decode_req_ns"] + v["wire.encode_resp_ns"] + v["wire.decode_resp_ns"]

	v["client.ping_rtt_us"], v["server.self_us_unpipelined"] = 0, 0
	if probes != nil {
		v["client.ping_rtt_us"] = probes.pingP50Us
		v["server.self_us_unpipelined"] = max(probes.putP50Us-probes.pingP50Us-(wireNs+v["kv.put_ns"])/1e3, 0)
	}
	v["client.errors"] = float64(p.errs)
	for _, class := range []struct {
		name string
		pick func(opKind) bool
	}{{"read", isRead}, {"write", opKind.isWrite}} {
		v["client."+class.name+"_p99_us"] = quantileUs(win.latencies(class.pick), 0.99).median
	}

	v["runtime.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	v["runtime.gc_pause_ms"] = d(b.mem.PauseTotalNs, a.mem.PauseTotalNs) / 1e6
	v["runtime.mallocs_per_op"] = ratio(d(b.mem.Mallocs, a.mem.Mallocs), t.ops)

	// The ladder rows: a served p50 split into what each layer spent.
	r.say("ladder: %d sampled requests replayed single-threaded, clock pair %.0f ns subtracted per rung",
		len(in.streams[in.nworkers()]), l.clockNs)
	if wl.tree {
		r.say("trace_overhead_ratio 1: the tree pass makes no client calls and records no spans")
	} else {
		r.say("trace_overhead_ratio %.4f: the window's %d slices of equal operation count alternate untraced/traced (U T T U U T T U); the untraced ones took %.3fs, the traced ones %.3fs",
			overhead, traceSlices, untracedSec, tracedSec)
	}
	r.say("ladder rows, us: %-12s %9s = %9s + %7s + %8s + %9s + %8s + %7s + %9s", "", "served_p50", "remainder", "wire", "kv/obj", "forest", "core", "htm", "nvm_stall")
	// Both persists of a tree update cover one line each, so lines = persists
	// there; the same shorthand serves obj.hset's many small records.
	upsertStall := modeledStallNs(wl.latency, v["core.persists_per_upsert"], v["core.persists_per_upsert"])
	putStall := modeledStallNs(wl.latency, v["kv.persists_per_put"], v["kv.lines_per_put"])
	hsetStall := modeledStallNs(wl.latency, v["obj.persists_per_hset"], v["obj.persists_per_hset"])
	readStall := float64(recordLines(wl.valSize)) * float64(wl.latency.ReadPerLine)
	for kind := opKind(0); kind < numOpKinds; kind++ {
		if t.byKind[kind] == 0 {
			continue
		}
		top, forestRung, coreRung, htmRung := "kv.get", "forest.find", "core.find", "htm.txn.read"
		topStall, treeStall := readStall, 0.0
		if kind.isWrite() {
			top, forestRung, coreRung, htmRung = "kv.put", "forest.upsert", "core.upsert", "htm.txn.update"
			topStall, treeStall = putStall, upsertStall
		}
		switch kind {
		case opHSet:
			top, topStall = "obj.hset", hsetStall
		case opHGet:
			top = "obj.hget"
		}
		wire, topNs := wireNs, l.ns(top)
		if wl.tree {
			// Nothing above the forest exists: the forest rung is the top
			// and has no self time of its own beyond the forest column.
			wire, topNs, topStall = 0, l.ns(forestRung), treeStall
		}
		servedNs := kindP(kind, 0.5) * 1e3
		topSelf := topNs - l.ns(forestRung) - (topStall - treeStall)
		r.say("ladder row  %-12s %12.2f = %9.2f + %7.2f + %8.2f + %9.2f + %8.2f + %7.2f + %9.2f",
			opNames[kind], servedNs/1e3, (servedNs-wire-topNs)/1e3, wire/1e3, topSelf/1e3,
			(l.ns(forestRung)-l.ns(coreRung))/1e3, (l.ns(coreRung)-l.ns(htmRung)-treeStall)/1e3, l.ns(htmRung)/1e3, topStall/1e3)
	}
	if probes != nil {
		unloaded := probes.pingP50Us + (wireNs+v["kv.put_ns"])/1e3
		r.say("probe: depth-1 PUT p50 %.2f us = PING p50 %.2f + wire %.2f + kv.put %.2f + server self %.2f; the unloaded rungs account for %.0f%% of it, and under load remainder - PING is queueing",
			probes.putP50Us, probes.pingP50Us, wireNs/1e3, v["kv.put_ns"]/1e3, v["server.self_us_unpipelined"], 100*ratio(unloaded, probes.putP50Us))
	}

	var served []span
	for _, wk := range p.workers {
		served = append(served, wk.spans...)
	}
	path, err := writeTrace(r.cfg.outDir, wl, r.cfg.seed, l, served)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.say("trace: %d served client spans and %d ladder spans written to %s", len(served), len(l.spans), path)
	return nil
}
