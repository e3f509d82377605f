package serve

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ageguard/internal/char"
	"ageguard/internal/core"
	"ageguard/pkg/ageguard/api"
	"ageguard/pkg/ageguard/client"
)

// testCircuit is the cheapest benchmark to synthesize (~1 s cold).
const testCircuit = "RISC-5P"

// sharedDir is a package-wide characterization/netlist disk cache: the
// first test pays the cold cost, later tests only re-parse. Tests that
// need genuinely slow cold work use their own t.TempDir instead.
var (
	sharedDirOnce sync.Once
	sharedDirPath string
)

func sharedDir(t *testing.T) string {
	sharedDirOnce.Do(func() {
		dir, err := os.MkdirTemp("", "serve-test-cache-*")
		if err != nil {
			t.Fatal(err)
		}
		sharedDirPath = dir
	})
	return sharedDirPath
}

func TestMain(m *testing.M) {
	code := m.Run()
	if sharedDirPath != "" {
		os.RemoveAll(sharedDirPath)
	}
	os.Exit(code)
}

// quickConfig builds a reduced-grid daemon config over the given cache
// directory.
func quickConfig(dir string) Config {
	charCfg := char.TestConfig()
	charCfg.CacheDir = dir
	return Config{
		Flow: core.New(core.WithCharConfig(charCfg), core.WithLifetime(10)),
	}
}

// startServer runs a Server for cfg on a loopback listener and returns
// a client plus a shutdown func that drains and waits.
func startServer(t *testing.T, cfg Config) (*client.Client, func()) {
	t.Helper()
	s := New(cfg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	cl := client.New("http://" + ln.Addr().String())
	return cl, func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v on drain", err)
		}
	}
}

func TestGuardbandEndToEnd(t *testing.T) {
	cfg := quickConfig(sharedDir(t))
	cl, shutdown := startServer(t, cfg)
	defer shutdown()
	ctx := context.Background()

	if err := cl.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Guardband(ctx, api.GuardbandRequest{
		Circuit:  testCircuit,
		Scenario: api.Scenario{Kind: "worst", Years: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != api.APIVersion {
		t.Errorf("version = %q", resp.Version)
	}
	if resp.FreshCPs <= 0 || resp.AgedCPs <= resp.FreshCPs {
		t.Errorf("implausible CPs: fresh=%g aged=%g", resp.FreshCPs, resp.AgedCPs)
	}
	if got := resp.AgedCPs - resp.FreshCPs; got != resp.GuardbandS {
		t.Errorf("guardband %g != aged-fresh %g", resp.GuardbandS, got)
	}

	// Warm repeat must hit the LRU and return the identical answer.
	again, err := cl.Guardband(ctx, api.GuardbandRequest{
		Circuit:  testCircuit,
		Scenario: api.Scenario{Kind: "worst", Years: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if *again != *resp {
		t.Errorf("warm answer differs: %+v vs %+v", again, resp)
	}
}

func TestCellTimingAndPathsEndpoints(t *testing.T) {
	cfg := quickConfig(sharedDir(t))
	cl, shutdown := startServer(t, cfg)
	defer shutdown()
	ctx := context.Background()

	ctr, err := cl.CellTiming(ctx, api.CellTimingRequest{
		Cell:     "INV_X1",
		Scenario: api.Scenario{Kind: "worst", Years: 10},
		InSlewS:  20e-12,
		LoadF:    2e-15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ctr.Arcs) == 0 {
		t.Fatal("no arcs reported for INV_X1")
	}
	for _, a := range ctr.Arcs {
		if a.DelayS <= 0 || a.OutSlewS == nil || *a.OutSlewS <= 0 {
			t.Errorf("non-positive timing in arc %+v", a)
		}
		if a.Edge != "rise" && a.Edge != "fall" {
			t.Errorf("bad edge %q", a.Edge)
		}
	}

	pr, err := cl.Paths(ctx, api.PathsRequest{
		Circuit:  testCircuit,
		Scenario: api.Scenario{Kind: "worst", Years: 10},
		K:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Paths) == 0 || len(pr.Paths) > 3 {
		t.Fatalf("got %d paths, want 1..3", len(pr.Paths))
	}
	for i := 1; i < len(pr.Paths); i++ {
		if pr.Paths[i].DelayS > pr.Paths[i-1].DelayS {
			t.Error("paths not sorted most-critical first")
		}
	}
	if len(pr.Paths[0].Steps) == 0 {
		t.Error("critical path has no steps")
	}
}

func TestRequestValidation(t *testing.T) {
	cfg := quickConfig(sharedDir(t))
	cl, shutdown := startServer(t, cfg)
	defer shutdown()
	ctx := context.Background()

	var apiErr *client.APIError
	_, err := cl.Guardband(ctx, api.GuardbandRequest{
		Version: "v99", Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst"},
	})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Errorf("wrong version: err = %v, want 400", err)
	}
	_, err = cl.Guardband(ctx, api.GuardbandRequest{
		Circuit: "NOPE", Scenario: api.Scenario{Kind: "worst"},
	})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Errorf("unknown circuit: err = %v, want 404", err)
	}
	_, err = cl.Guardband(ctx, api.GuardbandRequest{
		Circuit: testCircuit, Scenario: api.Scenario{Kind: "sideways"},
	})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Errorf("bad scenario: err = %v, want 400", err)
	}
	_, err = cl.CellTiming(ctx, api.CellTimingRequest{
		Cell: "NOPE_X9", Scenario: api.Scenario{Kind: "fresh"}, InSlewS: 1e-12, LoadF: 1e-15,
	})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Errorf("unknown cell: err = %v, want 404", err)
	}
}

func TestHerdCharacterizesOnce(t *testing.T) {
	// 100 identical guardband queries hit a cold server at once. The LRU +
	// singleflight must do the underlying work exactly once per key: two
	// libraries, one compiled netlist, two CPs = 5 misses total, everything
	// else served as a hit or an in-flight share. Runs under -race in
	// make verify, which is the real assertion on the cache's locking.
	cfg := quickConfig(sharedDir(t))
	cfg.MaxInflight = 16
	cfg.QueueDepth = 200
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
	req := api.GuardbandRequest{Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10}}

	var wg sync.WaitGroup
	errs := make([]error, 100)
	start := make(chan struct{})
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = cl.Guardband(context.Background(), req)
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["serve.cache.misses"]; got != 5 {
		t.Errorf("cache misses = %d, want exactly 5 (lib fresh, lib aged, compiled netlist, CP x2)", got)
	}
	if ok := snap.Counters["serve.guardband.ok"]; ok != 100 {
		t.Errorf("ok count = %d, want 100", ok)
	}
}

func TestDeadlineReports504WithoutCacheCorruption(t *testing.T) {
	// A genuinely cold query against a 50 ms deadline dies inside
	// characterization (whose solver checks ctx every time step) and must
	// report 504. Afterwards the cache directory holds no half-written
	// temp files, and a retry with a sane deadline succeeds from the same
	// directory.
	dir := t.TempDir()
	cfg := quickConfig(dir)
	cfg.RequestTimeout = 50 * time.Millisecond
	cl, shutdown := startServer(t, cfg)

	req := api.GuardbandRequest{Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10}}
	_, err := cl.Guardband(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 504 {
		t.Fatalf("err = %v, want 504", err)
	}
	shutdown()

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("partial cache file left behind: %s", e.Name())
		}
	}

	cfg2 := quickConfig(dir)
	cl2, shutdown2 := startServer(t, cfg2)
	defer shutdown2()
	if _, err := cl2.Guardband(context.Background(), req); err != nil {
		t.Fatalf("retry after timeout failed: %v", err)
	}
}

func TestBackpressure429WithRetryAfter(t *testing.T) {
	// One work slot, one queue ticket beyond it: a burst of cold queries
	// must see at least one immediate 429 carrying a Retry-After hint
	// while the admitted requests complete.
	dir := t.TempDir()
	cfg := quickConfig(dir)
	cfg.MaxInflight = 1
	cfg.QueueDepth = 1
	cl, shutdown := startServer(t, cfg)
	defer shutdown()

	req := api.GuardbandRequest{Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10}}
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = cl.Guardband(context.Background(), req)
		}()
	}
	close(start)
	wg.Wait()

	okN, shedN := 0, 0
	for _, err := range errs {
		var apiErr *client.APIError
		switch {
		case err == nil:
			okN++
		case errors.As(err, &apiErr) && apiErr.Saturated():
			shedN++
			if apiErr.RetryAfter != time.Second {
				t.Errorf("Retry-After = %v, want 1s", apiErr.RetryAfter)
			}
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if okN == 0 {
		t.Error("no request was admitted")
	}
	if shedN == 0 {
		t.Error("no request was shed with 429 despite a full queue")
	}
}

func TestDrainFinishesInflightRequests(t *testing.T) {
	// Cancel the serve context while a slow cold query is in flight: the
	// query must still complete with 200 (graceful drain), Serve must
	// return cleanly, and new connections must be refused afterwards.
	dir := t.TempDir()
	cfg := quickConfig(dir)
	s := New(cfg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(sctx, ln) }()

	cl := client.New("http://" + ln.Addr().String())
	req := api.GuardbandRequest{Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10}}

	resc := make(chan error, 1)
	go func() {
		_, err := cl.Guardband(context.Background(), req)
		resc <- err
	}()
	// Wait until the cold query is genuinely in flight — its cache fill
	// has started (a miss is counted) — rather than sleeping a fixed
	// interval and hoping the goroutine got that far.
	deadline := time.Now().Add(10 * time.Second)
	for s.Registry().Snapshot().Counters["serve.cache.misses"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cold query never started its cache fill")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel() // SIGTERM equivalent

	if err := <-resc; err != nil {
		t.Errorf("in-flight request failed during drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v", err)
	}
	if err := cl.Healthz(context.Background()); err == nil {
		t.Error("server still accepting connections after drain")
	}
}
