package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"rntree/internal/procmem"
)

// TestMain holds the shell's footprint: after every test has run — crash
// and checkpoint each keep two trees live — the binary's resident high-water
// mark must stay under 4 GiB (it was ~10 GiB on the library's default
// arena size).
func TestMain(m *testing.M) {
	code := m.Run()
	if hwm, ok := procmem.PeakRSS(); ok && hwm > 4<<30 {
		fmt.Fprintf(os.Stderr, "FAIL: peak RSS %d MiB exceeds the shell's 4 GiB budget\n", hwm>>20)
		code = 1
	}
	os.Exit(code)
}

func runScript(t *testing.T, script string) string {
	t.Helper()
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, nil); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestShellPutGetDelScan(t *testing.T) {
	out := runScript(t, `
put 1 100
put 2 200
put 3 300
get 2
del 2
get 2
scan 0 10
quit
`)
	for _, want := range []string{"ok", "200", "(not found)", "1 = 100", "3 = 300"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "2 = 200") {
		t.Fatalf("deleted key still scanned:\n%s", out)
	}
}

func TestShellCrashRecover(t *testing.T) {
	out := runScript(t, `
put 7 70
put 8 80
crash 0.5
get 7
get 8
quit
`)
	if !strings.Contains(out, "crash-recovered: 2 records survived") {
		t.Fatalf("crash recovery summary missing:\n%s", out)
	}
	if !strings.Contains(out, "70") || !strings.Contains(out, "80") {
		t.Fatalf("values lost across crash:\n%s", out)
	}
}

func TestShellCheckpoint(t *testing.T) {
	out := runScript(t, `
put 1 1
checkpoint
get 1
quit
`)
	if !strings.Contains(out, "reconstruction: 1 records") {
		t.Fatalf("checkpoint summary missing:\n%s", out)
	}
}

func TestShellStatsAndErrors(t *testing.T) {
	out := runScript(t, `
put 1 1
stats
del 99
put
bogus
help
quit
`)
	for _, want := range []string{"persists=", "htm: commits=", "error:", "usage: put", "unknown command", "commands:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// A SIGINT mid-session must take the clean-shutdown path: checkpoint the
// tree and confirm it reopens by reconstruction.
func TestShellSignalCleanShutdown(t *testing.T) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	defer inW.Close()
	sig := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(inR, outW, sig)
		outW.Close()
	}()
	// Write from a goroutine: the shell blocks on its banner write until
	// this test starts reading the output pipe.
	go io.WriteString(inW, "put 1 100\nput 2 200\n")
	// Wait until both puts are acknowledged so the signal arrives while
	// the shell is idle at its prompt.
	br := bufio.NewReader(outR)
	for oks := 0; oks < 2; {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("waiting for acks: %v", err)
		}
		if strings.Contains(line, "ok") {
			oks++
		}
	}
	sig <- os.Interrupt
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(string(rest), "clean shutdown, 2 records checkpointed (reconstructed, not crash-recovered)") {
		t.Fatalf("clean-shutdown summary missing:\n%s", rest)
	}
}

// A signal during a long scan must interrupt the scan — not wait for it to
// finish — and then take the same clean-checkpoint path. The output pipe is
// read one row at a time so the scan is provably mid-flight when the signal
// lands.
func TestShellSignalInterruptsScan(t *testing.T) {
	const keys = 400
	var script strings.Builder
	for i := 1; i <= keys; i++ {
		fmt.Fprintf(&script, "put %d %d\n", i, i*10)
	}
	script.WriteString("scan 0 500\n")

	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	defer inW.Close()
	sig := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(inR, outW, sig)
		outW.Close()
	}()
	go io.WriteString(inW, script.String())

	// Consume acks, then a handful of scan rows — the scan's writer is now
	// blocked on this pipe, mid-scan by construction.
	br := bufio.NewReader(outR)
	rows := 0
	for rows < 5 {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("waiting for scan rows: %v", err)
		}
		if strings.Contains(line, " = ") {
			rows++
		}
	}
	sig <- os.Interrupt
	// Wait for the drain watcher to consume the signal (the flag store
	// follows immediately); only then resume reading so the very next
	// callback poll observes it.
	for len(sig) > 0 {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)

	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
	out := string(rest)
	if !strings.Contains(out, "(scan interrupted by signal)") {
		t.Fatalf("scan was not interrupted:\n...%s", tail(out, 400))
	}
	if got := strings.Count(out, " = "); got > keys-10 {
		t.Fatalf("scan printed %d rows after the signal; not truncated", got)
	}
	if !strings.Contains(out, "clean shutdown") || !strings.Contains(out, "reconstructed, not crash-recovered") {
		t.Fatalf("interrupted scan skipped the clean checkpoint path:\n...%s", tail(out, 400))
	}
	if !strings.Contains(out, fmt.Sprintf("%d records checkpointed", keys)) {
		t.Fatalf("checkpoint lost records:\n...%s", tail(out, 400))
	}
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
