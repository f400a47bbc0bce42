// Command rnkv is a small interactive durable key-value shell on top of
// RNTree, demonstrating the library's durability story end to end: mutate
// the tree, pull the power plug (crash), recover, and check what survived.
//
// Commands:
//
//	put <key> <value>     insert or update
//	get <key>             lookup
//	del <key>             remove
//	scan <start> <n>      range query
//	stats                 persistence / HTM counters and tree shape
//	crash [evictProb]     simulated power loss + crash recovery
//	checkpoint            clean shutdown + fast reconstruction
//	quit
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"rntree"
	"rntree/internal/drain"
)

// arenaSize is the shell's initial simulated NVM capacity, across its four
// partitions. The partitions still grow on demand (to 512 MiB in all), and
// the footprint is what matters here: capacity is reserved up front for both
// images of every live tree, and crash/checkpoint keep two trees live, so the
// library's 256 MiB default put a session at ~10 GiB resident.
const arenaSize = 64 << 20

func main() {
	// A SIGINT/SIGTERM mid-session takes the clean Close() path instead of
	// dying with an uncertified image: the next open of the checkpoint
	// reconstructs instead of running crash recovery.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Stdin, os.Stdout, sig); err != nil {
		fmt.Fprintf(os.Stderr, "rnkv: %v\n", err)
		os.Exit(1)
	}
}

// run drives the shell over the given streams; split out for testing. A
// value on sig (may be nil) triggers the clean-shutdown path — including
// mid-scan: the scan callback polls the drain watcher so a signal cuts a
// long range query short instead of waiting for it to finish.
func run(in io.Reader, out io.Writer, sig <-chan os.Signal) error {
	w := drain.New(sig)
	// Four partitions: the shell runs on a forest, so crash/recover and
	// stats exercise the multi-arena paths end to end.
	opts := rntree.Options{ArenaSize: arenaSize, DualSlotArray: true, Partitions: 4, Seed: 1}
	t, err := rntree.New(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "rnkv: RNTree-backed KV shell (type 'help')")

	// Feed input lines through a channel so the prompt loop can also wait
	// on signals. The done guard keeps the reader goroutine from leaking
	// when run returns while it holds an unconsumed line.
	lines := make(chan string)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(in)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-done:
				return
			}
		}
	}()

	for {
		fmt.Fprint(out, "> ")
		var line string
		select {
		case <-w.Done():
			return shutdown(t, opts, out)
		case l, ok := <-lines:
			if !ok {
				return nil
			}
			line = l
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "put":
			k, v, ok := twoInts(fields)
			if !ok {
				fmt.Fprintln(out, "usage: put <key> <value>")
				continue
			}
			if err := t.Upsert(k, v); err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintln(out, "ok")
		case "get":
			k, ok := oneInt(fields)
			if !ok {
				fmt.Fprintln(out, "usage: get <key>")
				continue
			}
			if v, found := t.Find(k); found {
				fmt.Fprintln(out, v)
			} else {
				fmt.Fprintln(out, "(not found)")
			}
		case "del":
			k, ok := oneInt(fields)
			if !ok {
				fmt.Fprintln(out, "usage: del <key>")
				continue
			}
			if err := t.Remove(k); err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintln(out, "ok")
		case "scan":
			k, n, ok := twoInts(fields)
			if !ok {
				fmt.Fprintln(out, "usage: scan <start> <n>")
				continue
			}
			interrupted := false
			t.Scan(k, int(n), func(key, val uint64) bool {
				if w.Triggered() {
					interrupted = true
					return false
				}
				fmt.Fprintf(out, "  %d = %d\n", key, val)
				return true
			})
			if interrupted {
				fmt.Fprintln(out, "  (scan interrupted by signal)")
				return shutdown(t, opts, out)
			}
		case "stats":
			s := t.Stats()
			fmt.Fprintf(out, "partitions=%d persists=%d linesFlushed=%d words=%d leaves=%d depth=%d readRetries=%d\n",
				s.Partitions, s.Persists, s.LinesFlushed, s.WordsWritten, s.Leaves, s.Depth, s.ReadRetries)
			fmt.Fprintf(out, "htm: commits=%d conflicts=%d capacity=%d persistAborts=%d fallbacks=%d\n",
				s.HTM.Commits, s.HTM.ConflictAborts, s.HTM.CapacityAborts, s.HTM.PersistAborts, s.HTM.Fallbacks)
		case "crash":
			p := 0.5
			if len(fields) > 1 {
				if f, err := strconv.ParseFloat(fields[1], 64); err == nil {
					p = f
				}
			}
			snap := t.Crash(p)
			nt, err := rntree.Recover(snap, opts)
			if err != nil {
				fmt.Fprintln(out, "recovery failed:", err)
				continue
			}
			t = nt
			fmt.Fprintf(out, "power lost (evictProb=%.2f); crash-recovered: %d records survived\n", p, t.Len())
		case "checkpoint":
			snap := t.Checkpoint()
			nt, err := rntree.Recover(snap, opts)
			if err != nil {
				fmt.Fprintln(out, "recovery failed:", err)
				continue
			}
			t = nt
			fmt.Fprintf(out, "clean shutdown + reconstruction: %d records\n", t.Len())
		case "help":
			fmt.Fprintln(out, "commands: put get del scan stats crash checkpoint quit")
		case "quit", "exit":
			return nil
		default:
			fmt.Fprintln(out, "unknown command (try 'help')")
		}
	}
}

// shutdown is the signal path: checkpoint (clean Close + snapshot) and
// verify the snapshot reopens via the fast reconstruction path before
// exiting, so an interrupted session never leaves crash recovery as the
// only way back in.
func shutdown(t *rntree.Tree, opts rntree.Options, out io.Writer) error {
	snap := t.Checkpoint()
	t2, err := rntree.Recover(snap, opts)
	if err != nil {
		return fmt.Errorf("clean shutdown: checkpoint did not reopen: %v", err)
	}
	fmt.Fprintf(out, "\nsignal: clean shutdown, %d records checkpointed (reconstructed, not crash-recovered)\n", t2.Len())
	return nil
}

func oneInt(f []string) (uint64, bool) {
	if len(f) != 2 {
		return 0, false
	}
	v, err := strconv.ParseUint(f[1], 10, 63)
	return v, err == nil
}

func twoInts(f []string) (uint64, uint64, bool) {
	if len(f) != 3 {
		return 0, 0, false
	}
	a, err1 := strconv.ParseUint(f[1], 10, 63)
	b, err2 := strconv.ParseUint(f[2], 10, 63)
	return a, b, err1 == nil && err2 == nil
}
