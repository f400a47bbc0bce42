# Tier-1 verification and the race gate for the concurrent kv/tree paths.
GO ?= go

.PHONY: check build vet test lint lint-fixtures race bench-kv bench-heap faultcheck faultshort servercheck replcheck heapcheck treecheck objcheck stallcheck benchcheck benchpair fuzz-wire

check: build vet lint test faultshort servercheck replcheck heapcheck treecheck objcheck stallcheck benchcheck

# $(call run-tests,<go test flags>,<package>,<alt1|alt2|...>) is `go test
# -run` that fails when any alternative of the pattern selects no test:
# `go test` itself only warns "no tests to run" and exits 0, so a renamed or
# deleted test would silently drop out of its gate.
define run-tests
	@names=$$($(GO) test -list . $(2) | grep -E '^(Test|Fuzz|Example)') || exit 1; \
	for alt in $(subst |, ,$(3)); do \
		echo "$$names" | grep -Eq "$$alt" || \
			{ echo "$(2): -run alternative '$$alt' selects no test"; exit 1; }; \
	done
	$(GO) test $(1) $(2) -run '$(3)'
endef

build:
	$(GO) build ./...

# go vet plus a formatting gate: any .go file gofmt would rewrite (the
# benchmark's git-ignored build tree aside) fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
		test -z "$$out" || { echo "gofmt -l lists:"; echo "$$out"; exit 1; }

# rnvet: the repo's own pass suite (persistcheck, htmsafe, lockflush,
# fencecheck, undolog, atomicfield, lockorder, spinblock) machine-checks the
# NVM-persistence, HTM-safety and cross-package concurrency invariants over
# every production package. See DESIGN.md §11 and §16.
lint:
	$(GO) run ./cmd/rnvet ./...

# The golden-fixture suite standalone: every pass's seeded-bug fixture must
# keep producing exactly its want-comment findings (proves the passes still
# FIND bugs — `lint` alone only proves the tree is clean), plus the
# annotation-grammar and directive-parsing tests.
lint-fixtures:
	$(GO) test ./internal/analysis -run 'TestPersistCheck|TestHTMSafe|TestLockFlush|TestFenceCheck|TestUndoLog|TestAtomicField|TestLockOrder|TestSpinBlock|TestAnnotations|TestParseLockOrder|TestDirectivePasses|TestByName' -count=1

test:
	$(GO) test ./...

# The kv store's Stats/Put/Delete/Compact paths, the tree's HTM slot
# updates (including the DRAM fingerprint words) and hot-key cache, the
# forest's partition router, the HTM emulation's lock table, the server's
# stats snapshots, the client's pending-call table, the heap's grow
# cutover (committed-space gate vs concurrent readers), the crash-point
# explorer harness, and the drain scheduler are exercised concurrently;
# keep them race-clean.
race:
	$(GO) test -race -timeout 30m ./kv/... ./internal/core/... ./internal/forest/... ./internal/htm/... ./internal/server/... ./internal/repl/... ./client/... ./internal/pmem/... ./internal/obj/... ./internal/fault/... ./internal/drain/... ./internal/clock/...

bench-kv:
	$(GO) run ./cmd/rnbench -exp kvscale

# The network serving layer's gate: protocol/server/client tests under the
# race detector (the pipelined writer, committer, and drain paths are all
# concurrent) — all of them ("Test" selects every test, "Fuzz" the decoders'
# seed corpora), with the shared frame writer's tests (coalescing, Close
# delivers, one error callback, the backlog drains), the client's
# reconnect-without-stale-frames test, and the server's cross-verb
# write-order and two-goroutines-per-connection tests named so a rename
# drops out loudly — kv's hot-key cache tests (every commit route
# invalidates, routed keys never fill, a hit allocates nothing), plus a
# short fuzz smoke of each wire decoder on top of the committed seed corpus.
servercheck:
	$(call run-tests,-race,./internal/wire,Test|Fuzz|WriterCoalesces|WriterCloseDelivers|WriterErrorOnce|WriterBacklog)
	$(call run-tests,-race,./client,Test|ReconnectNoStaleFrames)
	$(GO) test -race ./internal/drain/...
	$(call run-tests,-race,./internal/server,Test|SameKeyWriteOrder|ConnGoroutines)
	$(call run-tests,,./kv,CacheBasic|CacheBounded|CacheCommitRoutesInvalidate|CacheRoutedKeysNeverFill|CacheGetAllocs)
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=3s
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzDecodeResponse -fuzztime=3s
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzReadFrame -fuzztime=3s

# Replication gate: the repl node/subscriber/applier under the race
# detector, the kv LSN/apply/backlog layer, the server's ship+drain and
# client-failover end-to-end tests, and the replicated fault targets (the
# pair crashed whole, the primary killed at every persist site, the replica
# killed mid-apply, a crash inside the promotion cutover) with the test
# that shows the survivor check catches a lost write. Zero
# acked-durable-write loss or the target fails.
replcheck:
	$(GO) test -race ./internal/repl/...
	$(call run-tests,,./kv,Repl|CommitHook)
	$(call run-tests,-race,./internal/server,Repl|Durable|Drain|Failover|AckAtDrain)
	$(call run-tests,,./internal/fault,Repl|Failover|PrimaryKill|ReplicaKill|Promotion|LostWriteCaught)

# Heap gate: the persistent allocator's crash matrix (every allocator-
# metadata persist site, including the segment-append cutover, plus a
# crash inside the kv reopen of a rebooted image), the heap unit tests
# with Recover's typed-error table, the simulator against its two-image
# reference model, a streamed range stored once, writers sharing lines
# twenty times under the race detector, the kv growth and OOM-retry tests,
# compaction freeing its chunks under live readers, the garbage-pointer and
# superseded-format images kv and core recovery must reject, and the rnvet
# undolog fixture that machine-checks the UndoBegin/MetaWrite8/UndoCommit
# protocol.
heapcheck:
	$(call run-tests,,./internal/fault,ExploreHeap|ExploreKVReopen)
	$(call run-tests,,./internal/pmem,Heap|Grow|Undo|Free|Recover|BadHeap|TwoImageModel|StreamStoredOnce)
	$(call run-tests,-race -count=20,./internal/pmem,SharedLine)
	$(call run-tests,,./kv,Grow|OOM|Garbage|CompactFreesAfterReaders)
	$(call run-tests,,./internal/core,Corrupt)
	$(call run-tests,,./internal/analysis,UndoLog)

# Leaf-image gate: a compaction persists nothing and frees exactly the log
# entries the slot array does not reference, a split persists exactly the
# right leaf's live prefix, the link and the trimmed slot line, leaves at
# most half live never split on updates (two persists each), a crash
# between a reused entry's persist and its publish recovers the old value,
# entry reuse at capacity 8 never hands a reader a value written for
# another key (under the race detector), a split crashed after its link
# recovers through the trim rule, a split on a full arena persists nothing
# on retry, and the tree crash explorer (splits and a compaction, both slot
# modes) stays at zero violations. The slot-array
# transactions: each HTM line op leaves the bytes and Stats of the Run body
# it replaces and allocates nothing, no reader of a line op sees a torn
# line under the race detector, and the htm and pmem counter blocks keep a
# line of padding from the fields every access reads.
treecheck:
	$(call run-tests,,./internal/core,CompactionPersistsNothing|SplitPersistsThreeRanges|UpdateOnlyNeverSplits|CrashBeforeReusedEntryPublish|SplitCrashAtTrimRecovers|InsertOOMMidSplitRetrySafe)
	$(call run-tests,-race,./internal/core,ReuseStressSmallLeaves)
	$(call run-tests,,./internal/fault,ExploreTreeAllSites)
	$(call run-tests,,./internal/htm,LineOpsMatchRun|LineOpsAllocateNothing|RegionCounterLayout)
	$(call run-tests,-race,./internal/htm,LineOpsNoTornLines)
	$(call run-tests,,./internal/pmem,HeapCounterLayout)

# Typed-object gate: the obj layer's unit tests under the race detector —
# all of them ("Test" selects every test), with the header-as-commit-point
# ones named so a rename drops out loudly: composites cut between their
# writes, the sweep against live writers, the reap of an object larger than
# a chunk, the hot path's allocations, every record in its name's partition,
# the reserved names, a replica's catch-up, an out-of-range TTL refused —
# then the reap against compaction, the expirer's timer reaping on its own
# and kv's chunk reclamation against lock-free readers, twenty times each
# under the race detector (a race report there is a bug, not a flake), kv's routed keys and locked step, the obj crash-point explorer
# (every persist site of the composites and the reap), the server-side
# verb/failover tests with the typed verbs' write order and connection
# goroutine count and a reaped key never served from the hot-key cache, and a
# short fuzz smoke of the object request decoding on the committed seeds.
objcheck:
	$(call run-tests,-race,./internal/obj,Test|Orphan|Sweep|ReapLarger|HSetHGetAllocs|CoLocated|ReservedNames|CatchUpObjectPrefix|ExpireHugeTTL)
	$(call run-tests,-race -count=20,./internal/obj,ExpirerVsCompaction|ExpirerReapsOnItsOwn)
	$(call run-tests,-race -count=20,./kv,CompactFreesAfterReaders)
	$(call run-tests,,./kv,RoutedKeys|UpdateStep|UpdateSerialises)
	$(call run-tests,,./internal/fault,ExploreObj)
	$(call run-tests,-race,./internal/server,Obj|SameKeyWriteOrder|ConnGoroutines|ReapedKeyNotServedFromCache)
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=3s

# Stall-engine gate: pmem's timing-adjacent tests (a persist never returns
# before its modeled time, a sub-pollTail stall never yields, drain lanes
# overlap and queue, Persist and PersistStream are charged alike, SetLatency
# under a persister) must hold twenty times running — a flake is a bug.
stallcheck:
	$(call run-tests,-count=20,./internal/pmem,Stall|Latency|PersistStream|Drain)

# The gating benchmark is a Go module of its own (benchmark/go.mod), so
# build/vet/test/lint above never see it: vet, test and rnvet it through
# its own script, which is what catches a kv/forest/pmem API it calls
# changing under it.
benchcheck:
	bash benchmark/run.sh --check

# Paired runs of the gating benchmark, this checkout (side b) against REF
# (side a): REF is checked out into a git worktree under .bench_build/, each
# side writes N full result sets, alternating which side goes first (a b,
# b a, ...), and --compare judges b against a. The sets stay in
# .bench_build/pair/{a,b}. About 5 minutes a pair.
N ?= 10
PAIR := $(CURDIR)/.bench_build/pair
benchpair:
	@test -n "$(REF)" || { echo "usage: make benchpair REF=<git-ref> [N=10]"; exit 2; }
	rm -rf $(PAIR) && git worktree prune && mkdir -p $(PAIR)/a $(PAIR)/b
	git worktree add --detach $(PAIR)/ref $(REF)
	@trap 'git worktree remove --force $(PAIR)/ref' EXIT; \
	for i in $$(seq $(N)); do \
		if [ $$((i % 2)) = 1 ]; then order="a b"; else order="b a"; fi; \
		for side in $$order; do \
			if [ $$side = a ]; then src=$(PAIR)/ref; else src=$(CURDIR); fi; \
			echo "== pair $$i of $(N), side $$side"; \
			bash $$src/benchmark/run.sh --out $(PAIR)/$$side || exit 1; \
		done; \
	done; \
	bash benchmark/run.sh --compare $(PAIR)/a $(PAIR)/b

# Sustained kv Put throughput while the partition heap appends segments
# under live load.
bench-heap:
	$(GO) run ./cmd/rnbench -exp heapgrow

# Longer fuzz session for the wire decoders.
fuzz-wire:
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=60s

# Crash-point exploration (internal/fault): one explorer crashes every
# persist site of every fault.Targets() entry (each layer, a primary/replica
# pair crashed whole, and one node of the pair killed while the other keeps
# running) under pre/evicted/torn image variants and checks the durability
# oracle, plus the survivor check on a node left running. Exits non-zero on
# any violation or harness error.
faultcheck:
	$(GO) run ./cmd/rnbench -exp faultmatrix

# Capped-site matrix folded into `check`: the same 14 targets, at most 20
# sites each, so every PR exercises the explorer end to end without the
# exhaustive sweep.
faultshort:
	$(GO) run ./cmd/rnbench -exp faultmatrix -fault-sites 20
