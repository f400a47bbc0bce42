// Package procmem reads the process's memory high-water mark, so test
// binaries that run real arena sizes can assert a footprint budget.
package procmem

import (
	"os"
	"strconv"
	"strings"
)

// PeakRSS reads the process's resident-set high-water mark (VmHWM) in
// bytes; ok is false where /proc does not provide it.
func PeakRSS() (bytes uint64, ok bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseUint(f[1], 10, 64)
			return kb << 10, err == nil
		}
	}
	return 0, false
}
