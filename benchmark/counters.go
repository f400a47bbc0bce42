package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"

	"rntree/internal/core"
	"rntree/internal/obj"
	"rntree/internal/pmem"
	"rntree/internal/repl"
	"rntree/internal/server"
	"rntree/kv"
)

// counters is one reading of every counter the layers export. Per-layer
// metrics are differences of two readings taken at the window's edges: the
// benchmark measures the layers from outside and adds nothing to them.
type counters struct {
	arenas []pmem.Stats // one per arena, primary's first
	pm     pmem.Stats   // their sum
	bump   uint64       // sum of Arena.Bump()

	tree core.Stats // tree workload only

	kv   kv.Stats     // primary
	srv  server.Stats // primary
	prim repl.Stats
	objs obj.Stats

	mem runtime.MemStats
}

func snapshot(e *env) *counters {
	c := &counters{}
	for _, a := range e.arenas() {
		s := a.Stats()
		c.arenas = append(c.arenas, s)
		c.pm.Persists += s.Persists
		c.pm.LinesFlushed += s.LinesFlushed
		c.pm.Fences += s.Fences
		c.pm.WordsWritten += s.WordsWritten
		c.pm.Allocs += s.Allocs
		c.pm.Frees += s.Frees
		c.bump += a.Bump()
	}
	if e.forest != nil {
		c.tree = e.forest.Stats()
	}
	if e.primary != nil {
		c.kv = e.primary.st.Stats()
		c.srv = e.primary.srv.Stats()
		if e.primary.rnode != nil {
			c.prim = e.primary.rnode.NodeStats()
		}
		if e.primary.objs != nil {
			c.objs = e.primary.objs.Stats()
		}
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// perK is n per thousand of d.
func perK(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return 1000 * n / d
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
