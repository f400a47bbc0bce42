package fault

import (
	"fmt"
	"math/rand"

	"rntree/internal/pmem"
)

// Config parameterises one exploration.
type Config struct {
	// Seed drives every random choice (eviction sets, torn-line subsets).
	// Per-site generators are derived from it, so a single logged seed
	// replays any site's images exactly. Zero means 1.
	Seed int64
	// MaxSites caps how many crash sites are replayed; 0 explores all.
	// When capped, sites are sampled evenly across the workload so early
	// formatting traffic does not crowd out late compaction traffic.
	MaxSites int
	// EvictProb adds, per site, an "evict" image in which each dirty cache
	// line has this probability of having been written back early (cache
	// eviction is legal at any moment). 0 disables the variant.
	EvictProb float64
	// Torn adds, per multi-line persist site, a "torn" image in which a
	// strict, non-empty subset of the in-flight persist's lines is durable
	// — the state when a crash lands between the line flushes of one
	// persist call. Single-line persists cannot tear: a line writeback is
	// atomic in the hardware model.
	Torn bool
}

// Violation is one durability-oracle failure: recovering the image
// synthesized at Site (variant Variant, in-flight op OpIndex) produced
// contents matching neither the pre- nor the post-op model.
type Violation struct {
	Site    int
	Variant string
	OpIndex int
	Detail  string
}

func (v Violation) String() string {
	return fmt.Sprintf("site %d (%s, op %d): %s", v.Site, v.Variant, v.OpIndex, v.Detail)
}

// Report summarises one exploration.
type Report struct {
	Target     string
	Sites      int // persist/fence sites the workload executes
	Explored   int // sites actually replayed (== Sites unless capped)
	Images     int // crash images synthesized, recovered, and checked
	Violations []Violation
	// ImageHash is an FNV-1a digest over every synthesized image (tagged
	// with site and variant). Identical Config+Target ⇒ identical hash;
	// a changed hash means the workload or the crash synthesis drifted.
	ImageHash uint64
}

// Ok reports whether the exploration found no violations.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// replayStop unwinds a replay at its crash site.
type replayStop struct{}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	siteGamma = int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64
)

func (r *Report) fold(v uint64) {
	r.ImageHash = (r.ImageHash ^ v) * fnvPrime
}

func (r *Report) foldImages(site int, variant string, imgs [][]uint64) {
	r.fold(uint64(site))
	for i := 0; i < len(variant); i++ {
		r.fold(uint64(variant[i]))
	}
	for i, img := range imgs {
		r.fold(uint64(i))
		for _, w := range img {
			r.fold(w)
		}
	}
}

// crashAll snapshots every arena at the same instant — a power loss takes
// out the whole machine, not one partition.
func crashAll(arenas []*pmem.Arena, rng *rand.Rand, evictProb float64) [][]uint64 {
	imgs := make([][]uint64, len(arenas))
	for i, a := range arenas {
		imgs[i] = a.CrashImage(rng, evictProb)
	}
	return imgs
}

// Explore enumerates every persistent-instruction site ops executes against
// tgt, replays the workload once per (sampled) site, crashes it there under
// each configured image variant, and checks the durability oracle on the
// recovered contents — and, for a target that crashes one node of several,
// the SurvivorChecker oracle on the nodes left running. The error return is
// for harness failures (a workload op erroring, a site not reached on
// replay — i.e. a non-deterministic target); oracle failures land in
// Report.Violations.
func Explore(tgt Target, ops []Op, cfg Config) (*Report, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rep := &Report{Target: tgt.Name(), ImageHash: fnvOffset}

	// Pass 1 — count the sites (one global ordinal across every arena) and
	// build the end-state model.
	arenas, base, err := tgt.Reset()
	if err != nil {
		return nil, err
	}
	sites := 0
	count := &pmem.Hooks{
		BeforePersist: func(_, _ uint64) { sites++ },
		OnFence:       func() { sites++ },
	}
	for _, a := range arenas {
		a.SetHooks(count)
	}
	full := cloneModel(base)
	_, _, err = runToCrash(tgt, ops, full)
	for _, a := range arenas {
		a.SetHooks(nil)
	}
	if err != nil {
		return nil, fmt.Errorf("fault: %s: counting pass %v", tgt.Name(), err)
	}
	rep.Sites = sites

	// No-crash check: completed operations are durable, so the image set
	// taken after the whole workload must recover to exactly the full model.
	rep.check(tgt, sites, len(ops)-1, []variantImage{{"final", crashAll(arenas, nil, 0)}}, full, full)

	// Pass 2 — replay once per sampled site.
	for _, site := range sampleSites(sites, cfg.MaxSites) {
		if err := exploreSite(tgt, ops, site, cfg, rep); err != nil {
			return rep, err
		}
		rep.Explored++
	}
	return rep, nil
}

// sampleSites returns the site ordinals to replay: all of them, or an even
// stride-sample of max of them.
func sampleSites(n, max int) []int {
	if n <= 0 {
		return nil
	}
	if max <= 0 || n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, max)
	last := -1
	for i := 0; i < max; i++ {
		s := i * n / max
		if s != last {
			out = append(out, s)
			last = s
		}
	}
	return out
}

// variantImage is one synthesized crash image set at a site.
type variantImage struct {
	name string
	imgs [][]uint64
}

// exploreSite replays ops against a fresh target, crashes at the site-th
// persistent instruction (counted globally across all arenas), and
// oracle-checks every image-set variant.
func exploreSite(tgt Target, ops []Op, site int, cfg Config, rep *Report) error {
	arenas, base, err := tgt.Reset()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ (int64(site)+1)*siteGamma))

	var images []variantImage
	seen := 0
	// crashNow fires from inside the pmem hooks: at the target site it
	// synthesizes the image sets the hardware model admits at this exact
	// instruction boundary — snapshotting every arena, since a power loss
	// is machine-wide — then unwinds the replay. hit is the arena whose
	// persist is in flight; only its image can tear.
	crashNow := func(hit int, isPersist bool, off, size uint64) {
		if seen != site {
			seen++
			return
		}
		seen++
		// "pre": the in-flight persist contributed nothing durable yet.
		pre := crashAll(arenas, nil, 0)
		images = append(images, variantImage{"pre", pre})
		if cfg.EvictProb > 0 {
			images = append(images, variantImage{"evict", crashAll(arenas, rng, cfg.EvictProb)})
		}
		if isPersist && cfg.Torn {
			if size == 0 {
				size = 1
			}
			first := off / pmem.LineSize
			nl := int((off+size-1)/pmem.LineSize - first + 1)
			if nl > 1 {
				// A strict non-empty subset of the persist's lines made it
				// to media before the crash — on the in-flight arena; the
				// other arenas have nothing in flight.
				torn := make([][]uint64, len(pre))
				for i := range pre {
					torn[i] = make([]uint64, len(pre[i]))
					copy(torn[i], pre[i])
				}
				k := 1 + rng.Intn(nl-1)
				for _, i := range rng.Perm(nl)[:k] {
					arenas[hit].OverlayCacheLine(torn[hit], (first+uint64(i))*pmem.LineSize)
				}
				images = append(images, variantImage{"torn", torn})
			}
		}
		panic(replayStop{})
	}
	for i, a := range arenas {
		i := i
		a.SetHooks(&pmem.Hooks{
			BeforePersist: func(off, size uint64) { crashNow(i, true, off, size) },
			OnFence:       func() { crashNow(i, false, 0, 0) },
		})
	}

	before := cloneModel(base)
	opIdx, stopped, err := runToCrash(tgt, ops, before)
	for _, a := range arenas {
		a.SetHooks(nil)
	}
	if err != nil {
		return fmt.Errorf("fault: %s: site %d: %v", tgt.Name(), site, err)
	}
	if !stopped {
		return fmt.Errorf("fault: %s: site %d not reached on replay (%d of %d events) — workload is not deterministic",
			tgt.Name(), site, seen, site+1)
	}
	after := cloneModel(before)
	tgt.ApplyModel(after, ops[opIdx])

	rep.check(tgt, site, opIdx, images, before, after)
	return nil
}

// check recovers each image set and reports the ones whose contents are
// neither before nor after, then checks the target's survivors, if any.
func (r *Report) check(tgt Target, site, opIdx int, images []variantImage, before, after Model) {
	violate := func(variant, detail string) {
		r.Violations = append(r.Violations, Violation{Site: site, Variant: variant, OpIndex: opIdx, Detail: detail})
	}
	for _, v := range images {
		r.Images++
		r.foldImages(site, v.name, v.imgs)
		got, err := safeRecover(tgt, v.imgs)
		if err != nil {
			violate(v.name, "recovery failed: "+err.Error())
		} else if !modelsEqual(got, before) && !modelsEqual(got, after) {
			violate(v.name, "recovered state matches neither pre- nor post-op model: vs after:"+modelsDiff(got, after))
		}
	}
	if sc, ok := tgt.(SurvivorChecker); ok {
		if err := sc.CheckSurvivors(before, after); err != nil {
			violate("survivor", err.Error())
		}
	}
}

// runToCrash applies ops, folding each completed op into committed, until
// the crash hook unwinds the replay (stopped=true, opIdx = in-flight op) or
// the workload finishes (stopped=false).
func runToCrash(tgt Target, ops []Op, committed Model) (opIdx int, stopped bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(replayStop); ok {
				stopped = true
				return
			}
			panic(p)
		}
	}()
	for i, op := range ops {
		opIdx = i
		if err := tgt.Apply(op); err != nil {
			return i, false, fmt.Errorf("op %d (%s %d): %v", i, op.Kind, op.K, err)
		}
		tgt.ApplyModel(committed, op)
	}
	return len(ops) - 1, false, nil
}

// safeRecover shields the explorer from panics inside recovery: a torn or
// evicted image that sends recovery through an unchecked code path (bad
// offsets, out-of-range persists) is an oracle violation, not a harness
// crash.
func safeRecover(tgt Target, imgs [][]uint64) (m Model, err error) {
	defer func() {
		if p := recover(); p != nil {
			m, err = nil, fmt.Errorf("recovery panicked: %v", p)
		}
	}()
	return tgt.Recover(imgs)
}
