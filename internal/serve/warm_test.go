package serve

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ageguard/pkg/ageguard/api"
	"ageguard/pkg/ageguard/client"
)

// warmPath is a package-level disk cache holding exactly the files one
// cold guardband query writes; populateCache fills it once per package
// run and TestMain removes it.
var (
	warmOnce sync.Once
	warmPath string
	warmErr  error
)

// populateCache gives dir the library (and netlist) disk-cache files a
// restart would find after one guardband query. The query runs once,
// against a throwaway server over warmPath; every caller gets its own
// copy of the files it wrote, so a test may damage them.
func populateCache(t *testing.T, dir string) {
	t.Helper()
	warmOnce.Do(func() {
		if warmPath, warmErr = os.MkdirTemp("", "serve-test-warm-*"); warmErr != nil {
			return
		}
		cl, shutdown := startServer(t, quickConfig(warmPath))
		defer shutdown()
		_, warmErr = cl.Guardband(context.Background(), api.GuardbandRequest{
			Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10},
		})
	})
	if warmErr != nil {
		t.Fatal(warmErr)
	}
	ents, err := os.ReadDir(warmPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(warmPath, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// waitReady polls /readyz until it answers 200 (or the deadline hits).
func waitReady(t *testing.T, cl *client.Client) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := cl.Readyz(context.Background()); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func alibFiles(t *testing.T, dir string) []string {
	t.Helper()
	out, err := filepath.Glob(filepath.Join(dir, "*.alib"))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWarmStartServesRepeatQueryWithoutRecharacterizing(t *testing.T) {
	dir := t.TempDir()
	populateCache(t, dir)
	if n := len(alibFiles(t, dir)); n != 2 {
		t.Fatalf("expected 2 cached libraries (fresh + aged), found %d", n)
	}

	cfg := quickConfig(dir)
	cfg.WarmStart = true
	cl, shutdown := startServer(t, cfg)
	defer shutdown()
	waitReady(t, cl)

	if _, err := cl.Guardband(context.Background(), api.GuardbandRequest{
		Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWarmStartPrePopulatesLRU(t *testing.T) {
	dir := t.TempDir()
	populateCache(t, dir)

	cfg := quickConfig(dir)
	cfg.WarmStart = true
	s := New(cfg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(sctx, ln) }()
	defer func() { cancel(); <-done }()

	cl := client.New("http://" + ln.Addr().String())
	waitReady(t, cl)

	snap := s.Registry().Snapshot()
	if got := snap.Counters["serve.warm.loaded"]; got != 2 {
		t.Fatalf("warm.loaded = %d, want 2 (fresh + aged library)", got)
	}
	if _, err := cl.Guardband(context.Background(), api.GuardbandRequest{
		Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10},
	}); err != nil {
		t.Fatal(err)
	}
	// Both library lookups must hit the pre-populated LRU: the only
	// misses are the compiled netlist and the two timings.
	snap = s.Registry().Snapshot()
	if got := snap.Counters["serve.cache.misses"]; got != 3 {
		t.Errorf("cache misses = %d, want 3 (compiled netlist + 2 timings; libraries warm)", got)
	}
	if got := snap.Counters["serve.cache.hits"]; got < 2 {
		t.Errorf("cache hits = %d, want >= 2 (both libraries)", got)
	}
}

func TestWarmStartQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	populateCache(t, dir)
	files := alibFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("%d cached libraries, want the fresh and the aged one to corrupt", len(files))
	}
	// Flip one data-region byte of the first: its seal catches it even
	// though the file still parses as a structurally valid library. Flip
	// one byte of the second's seal marker: its library data is intact,
	// but a cache entry must carry its seal.
	for i, at := range []func(b []byte) int{
		func(b []byte) int { return len(b) / 2 },
		func(b []byte) int { return strings.LastIndex(string(b), "#SUM") + 1 },
	} {
		b, err := os.ReadFile(files[i])
		if err != nil {
			t.Fatal(err)
		}
		b[at(b)] ^= 0x04
		if err := os.WriteFile(files[i], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg := quickConfig(dir)
	cfg.WarmStart = true
	s := New(cfg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(sctx, ln) }()
	defer func() { cancel(); <-done }()

	cl := client.New("http://" + ln.Addr().String())
	waitReady(t, cl)

	snap := s.Registry().Snapshot()
	if got := snap.Counters["serve.warm.quarantined"]; got != 2 {
		t.Errorf("warm.quarantined = %d, want 2", got)
	}
	for _, f := range files[:2] {
		if _, err := os.Stat(f + quarantineSuffix); err != nil {
			t.Errorf("corrupt file not quarantined: %v", err)
		}
		if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("corrupt file %s still present under its cache name", filepath.Base(f))
		}
	}
	// The quarantined scenario re-characterizes cleanly on demand.
	if _, err := cl.Guardband(context.Background(), api.GuardbandRequest{
		Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartSkipsOldNamedEntries: a cache directory carried across
// the exact scenario key holds each library twice, under its current
// name and under the name it had before (no "_s<exact key>" segment).
// The warm start scans and loads only the current one.
func TestWarmStartSkipsOldNamedEntries(t *testing.T) {
	src := t.TempDir()
	populateCache(t, src)
	files := alibFiles(t, src)
	if len(files) == 0 {
		t.Fatal("no cached libraries")
	}
	name := filepath.Base(files[0])
	i, j := strings.Index(name, "_s"), strings.Index(name, "_g")
	if i < 0 || j < i {
		t.Fatalf("%s has no exact-key segment", name)
	}
	old := name[:i] + name[j:]
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, n := range []string{name, old} {
		if err := os.WriteFile(filepath.Join(dir, n), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg := quickConfig(dir)
	cfg.WarmStart = true
	s := New(cfg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(sctx, ln) }()
	defer func() { cancel(); <-done }()
	waitReady(t, client.New("http://"+ln.Addr().String()))

	snap := s.Registry().Snapshot()
	if scanned, loaded := snap.Counters["serve.warm.scanned"], snap.Counters["serve.warm.loaded"]; scanned != 1 || loaded != 1 {
		t.Errorf("warm.scanned = %d, warm.loaded = %d, want 1 and 1", scanned, loaded)
	}
}

func TestScrubberQuarantinesRottenFile(t *testing.T) {
	dir := t.TempDir()
	populateCache(t, dir)
	files := alibFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no cached libraries")
	}

	cfg := quickConfig(dir)
	cfg.ScrubInterval = 20 * time.Millisecond
	s := New(cfg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(sctx, ln) }()
	defer func() { cancel(); <-done }()

	cl := client.New("http://" + ln.Addr().String())
	waitReady(t, cl)

	// Rot a file while the daemon runs; the scrubber must notice.
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x10
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Wait for the quarantine AND a fully completed sweep — the rename
	// happens mid-pass, so checking passes right after spotting the
	// .corrupt file would race the tail of that sweep.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, statErr := os.Stat(files[0] + quarantineSuffix)
		passes := s.Registry().Snapshot().Counters["serve.scrub.passes"]
		if statErr == nil && passes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrubber: quarantined=%v passes=%d after 10s", statErr == nil, passes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["serve.scrub.quarantined"]; got != 1 {
		t.Errorf("scrub.quarantined = %d, want 1", got)
	}
	// The healthy file survived the sweeps.
	healthy := 0
	for _, f := range alibFiles(t, dir) {
		if !strings.HasSuffix(f, quarantineSuffix) {
			healthy++
		}
	}
	if healthy != len(files)-1 {
		t.Errorf("healthy files = %d, want %d", healthy, len(files)-1)
	}
}

// TestScrubPassQuarantinesCorruptNetlist: one scrub pass checks the
// seal of every cache file, netlists included: a cached netlist with one
// flipped byte is quarantined, and the libraries beside it are not.
func TestScrubPassQuarantinesCorruptNetlist(t *testing.T) {
	dir := t.TempDir()
	populateCache(t, dir)
	netls, err := filepath.Glob(filepath.Join(dir, "*.netl"))
	if err != nil || len(netls) != 1 {
		t.Fatalf("cached netlists %v (%v), want the one the guardband synthesized", netls, err)
	}
	b, err := os.ReadFile(netls[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(netls[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(quickConfig(dir), nil)
	s.scrubPass(context.Background())
	snap := s.Registry().Snapshot()
	if checked, quarantined := snap.Counters["serve.scrub.checked"], snap.Counters["serve.scrub.quarantined"]; checked != 3 || quarantined != 1 {
		t.Errorf("serve.scrub.checked = %d, quarantined = %d; want 3 (two libraries, one netlist) and 1", checked, quarantined)
	}
	if _, err := os.Stat(netls[0] + quarantineSuffix); err != nil {
		t.Errorf("the corrupt netlist was not quarantined: %v", err)
	}
	if n := len(alibFiles(t, dir)); n != 2 {
		t.Errorf("%d libraries left, want both", n)
	}
}

func TestReadinessLifecycle(t *testing.T) {
	// Readiness must go false -> true -> false across warm-up and drain
	// while liveness stays true throughout.
	dir := t.TempDir()
	cfg := quickConfig(dir)
	cfg.WarmStart = true
	cfg.DrainGrace = 200 * time.Millisecond
	s := New(cfg, nil)
	s.warmFence = make(chan struct{}) // hold the scan so warming is observable
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(sctx, ln) }()

	cl := client.New("http://" + ln.Addr().String())
	ctx := context.Background()

	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("liveness during warm-up: %v", err)
	}
	var apiErr *client.APIError
	if err := cl.Readyz(ctx); !errors.As(err, &apiErr) || apiErr.StatusCode != 503 {
		t.Fatalf("readiness during warm-up = %v, want 503", err)
	}

	close(s.warmFence)
	waitReady(t, cl)

	cancel() // begin the drain; the grace window keeps the listener open
	drainDeadline := time.Now().Add(150 * time.Millisecond)
	sawNotReady := false
	for time.Now().Before(drainDeadline) {
		if err := cl.Readyz(ctx); errors.As(err, &apiErr) && apiErr.StatusCode == 503 {
			sawNotReady = true
			if err := cl.Healthz(ctx); err != nil {
				t.Errorf("liveness during drain grace: %v", err)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawNotReady {
		t.Error("readiness never went false during the drain grace window")
	}
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}
