//go:build race

// Package race reports whether the binary was built with the race detector,
// so tests that count allocations can skip themselves under it (the
// detector's instrumentation allocates).
package race

// Enabled is true in a -race build.
const Enabled = true
