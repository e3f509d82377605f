package chaos_test

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ageguard/internal/atomicfile"
	"ageguard/internal/chaos"
	"ageguard/internal/char"
	"ageguard/internal/core"
	"ageguard/internal/serve"
	"ageguard/pkg/ageguard/api"
	"ageguard/pkg/ageguard/client"
)

const testCircuit = "RISC-5P"

// sharedDir is a package-wide characterization disk cache: the first
// test pays the cold cost (steep under -race), later tests re-parse.
// No test in this package mutates the cache files themselves.
var (
	sharedDirOnce sync.Once
	sharedDirPath string
)

func sharedDir(t *testing.T) string {
	sharedDirOnce.Do(func() {
		dir, err := os.MkdirTemp("", "chaos-test-cache-*")
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

// startDaemon runs an ageguardd over dir and returns its address plus
// a shutdown func.
func startDaemon(t *testing.T, dir string, warm bool) (string, *serve.Server, func()) {
	t.Helper()
	charCfg := char.TestConfig()
	charCfg.CacheDir = dir
	cfg := serve.Config{
		Flow:      core.New(core.WithCharConfig(charCfg), core.WithLifetime(10)),
		WarmStart: warm,
	}
	s := serve.New(cfg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	return ln.Addr().String(), s, func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v on drain", err)
		}
	}
}

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

// auditCacheDir fails the test if dir holds a partially-written temp
// file or an unquarantined cache file (char.CacheFiles) whose seal is
// broken.
func auditCacheDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("partial cache file left behind: %s", e.Name())
		}
	}
	files, err := char.CacheFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range files {
		if _, err := atomicfile.ReadSealed(p); err != nil {
			t.Errorf("unquarantined corrupt cache file %s: %v", filepath.Base(p), err)
		}
	}
}

// chaosRetry is an aggressive retry policy for driving through faults:
// the budget bounds total faults, so enough cheap attempts always
// reach a clean exchange.
func chaosRetry() client.RetryPolicy {
	return client.RetryPolicy{
		MaxAttempts: 100,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	}
}

// TestConvergesThroughChaosProxy drives a retrying, hedging client
// through a TCP proxy injecting resets, truncation, corruption and
// latency, and requires every query to converge to the bit-identical
// fault-free answer with no damage to the on-disk cache.
func TestConvergesThroughChaosProxy(t *testing.T) {
	dir := sharedDir(t)
	addr, _, stop := startDaemon(t, dir, false)
	defer stop()

	// Fault-free baseline, straight at the server.
	direct := client.New("http://" + addr)
	waitReady(t, direct)
	req := api.GuardbandRequest{Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10}}
	want, err := direct.Guardband(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctReq := api.CellTimingRequest{
		Cell: "INV_X1", Scenario: api.Scenario{Kind: "worst", Years: 10},
		InSlewS: 20e-12, LoadF: 2e-15,
	}
	wantCT, err := direct.CellTiming(context.Background(), ctReq)
	if err != nil {
		t.Fatal(err)
	}

	proxy, err := chaos.NewProxy(addr, chaos.Config{
		Seed:      42,
		Budget:    30,
		PReset:    0.15,
		PTruncate: 0.15,
		PCorrupt:  0.2,
		PDelay:    0.1,
		MaxDelay:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cl := client.New("http://"+proxy.Addr(),
		WithFreshConnections(),
		client.WithRetryPolicy(chaosRetry()),
		client.WithHedgePolicy(client.HedgePolicy{Delay: 250 * time.Millisecond}))

	for i := 0; i < 40; i++ {
		got, err := cl.Guardband(context.Background(), req)
		if err != nil {
			t.Fatalf("query %d never converged: %v", i, err)
		}
		if *got != *want {
			t.Fatalf("query %d: answer diverged under chaos:\n got %+v\nwant %+v", i, got, want)
		}
		gotCT, err := cl.CellTiming(context.Background(), ctReq)
		if err != nil {
			t.Fatalf("celltiming %d never converged: %v", i, err)
		}
		if !reflect.DeepEqual(gotCT, wantCT) {
			t.Fatalf("celltiming %d diverged under chaos", i)
		}
	}
	if proxy.Spent() == 0 {
		t.Error("proxy injected no faults — the run proved nothing")
	}
	t.Logf("proxy faults injected: %v", proxy.Injected())
	auditCacheDir(t, dir)
}

// TestConvergesThroughFaultyTransport exercises the HTTP-layer faults
// the proxy cannot fabricate precisely: clean 503s with Retry-After,
// whole-body corruption and truncation behind intact framing.
func TestConvergesThroughFaultyTransport(t *testing.T) {
	dir := sharedDir(t)
	addr, _, stop := startDaemon(t, dir, false)
	defer stop()

	direct := client.New("http://" + addr)
	waitReady(t, direct)
	req := api.GuardbandRequest{Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10}}
	want, err := direct.Guardband(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	tr := chaos.NewTransport(chaos.Config{
		Seed:      7,
		Budget:    25,
		PReset:    0.15,
		P5xx:      0.15,
		PTruncate: 0.15,
		PCorrupt:  0.15,
	}, nil)
	cl := client.New("http://"+addr,
		client.WithHTTPClient(&http.Client{Transport: tr}),
		client.WithRetryPolicy(chaosRetry()))

	for i := 0; i < 40; i++ {
		got, err := cl.Guardband(context.Background(), req)
		if err != nil {
			t.Fatalf("query %d never converged: %v", i, err)
		}
		if *got != *want {
			t.Fatalf("query %d diverged: got %+v want %+v", i, got, want)
		}
	}
	if tr.Spent() != 25 {
		t.Errorf("budget spent = %d, want all 25 (40 queries see plenty of decisions)", tr.Spent())
	}
	t.Logf("transport faults injected: %v", tr.Injected())
	auditCacheDir(t, dir)
}

// TestWarmRestartAfterChaos restarts the daemon over the cache
// directory a chaos run produced and requires the first repeat query
// to be served from the warm path — libraries from disk, zero
// re-characterization.
func TestWarmRestartAfterChaos(t *testing.T) {
	dir := sharedDir(t)
	addr, _, stop := startDaemon(t, dir, false)

	direct := client.New("http://" + addr)
	waitReady(t, direct)
	req := api.GuardbandRequest{Circuit: testCircuit, Scenario: api.Scenario{Kind: "worst", Years: 10}}
	want, err := direct.Guardband(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// A short chaos burst, then kill the daemon.
	proxy, err := chaos.NewProxy(addr, chaos.Config{
		Seed: 3, Budget: 10, PReset: 0.3, PCorrupt: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New("http://"+proxy.Addr(),
		WithFreshConnections(),
		client.WithRetryPolicy(chaosRetry()))
	for i := 0; i < 10; i++ {
		if _, err := cl.Guardband(context.Background(), req); err != nil {
			t.Fatalf("chaos query %d: %v", i, err)
		}
	}
	proxy.Close()
	stop()
	auditCacheDir(t, dir)

	// Restart warm: the scan must reload both libraries, and the first
	// repeat query must miss only on what is never persisted (netlist
	// parse + analyzer compilation), never on characterization.
	addr2, s2, stop2 := startDaemon(t, dir, true)
	defer stop2()
	cl2 := client.New("http://" + addr2)
	waitReady(t, cl2)

	snap := s2.Registry().Snapshot()
	if got := snap.Counters["serve.warm.loaded"]; got != 2 {
		t.Fatalf("warm.loaded = %d, want 2", got)
	}
	got, err := cl2.Guardband(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("answer changed across restart: got %+v want %+v", got, want)
	}
	snap = s2.Registry().Snapshot()
	if misses := snap.Counters["serve.cache.misses"]; misses != 3 {
		t.Errorf("cache misses = %d, want 3 (netlist + 2 analyzers; libraries warm)", misses)
	}
	if hits := snap.Counters["serve.cache.hits"]; hits < 2 {
		t.Errorf("cache hits = %d, want >= 2 (both libraries from the warm scan)", hits)
	}
}

// TestBatchConvergesThroughChaos drives a heterogeneous /v1/batch
// workload through the chaos proxy and requires every per-item answer
// to converge to the bit-identical fault-free single-request baseline,
// with no damage to the on-disk cache. This covers the whole batched
// read path under faults: the wire exchange (checksum + retry), the
// client's partial re-dispatch of failed items, and the server-side
// item path with its item and whole-reply memos — a memoized reply that
// diverged from the single-request answer by even one byte would fail
// here.
func TestBatchConvergesThroughChaos(t *testing.T) {
	dir := sharedDir(t)
	addr, _, stop := startDaemon(t, dir, false)
	defer stop()

	direct := client.New("http://" + addr)
	waitReady(t, direct)
	scen := api.Scenario{Kind: "worst", Years: 10}
	items := []api.BatchItem{
		api.GuardbandItem(api.GuardbandRequest{Circuit: testCircuit, Scenario: scen}),
		api.CellTimingItem(api.CellTimingRequest{
			Cell: "INV_X1", Scenario: scen, InSlewS: 20e-12, LoadF: 2e-15,
		}),
		api.PathsItem(api.PathsRequest{Circuit: testCircuit, Scenario: scen, K: 2}),
		api.GuardbandItem(api.GuardbandRequest{Circuit: testCircuit, Scenario: scen}),
	}

	// Fault-free baseline: the same items as single requests.
	want := make([]api.BatchItemResult, len(items))
	for i, it := range items {
		var err error
		switch it.Kind {
		case api.BatchGuardband:
			want[i].Guardband, err = direct.Guardband(context.Background(), *it.Guardband)
		case api.BatchCellTiming:
			want[i].CellTiming, err = direct.CellTiming(context.Background(), *it.CellTiming)
		default:
			want[i].Paths, err = direct.Paths(context.Background(), *it.Paths)
		}
		if err != nil {
			t.Fatalf("baseline item %d: %v", i, err)
		}
	}

	proxy, err := chaos.NewProxy(addr, chaos.Config{
		Seed:      11,
		Budget:    25,
		PReset:    0.15,
		PTruncate: 0.15,
		PCorrupt:  0.2,
		PDelay:    0.1,
		MaxDelay:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cl := client.New("http://"+proxy.Addr(),
		WithFreshConnections(),
		client.WithRetryPolicy(chaosRetry()))
	for i := 0; i < 25; i++ {
		got, err := cl.Batch(context.Background(), items)
		if err != nil {
			t.Fatalf("batch %d never converged: %v", i, err)
		}
		for j := range want {
			if e := got.Items[j].Error; e != nil {
				t.Fatalf("batch %d item %d failed under chaos: %d %s", i, j, e.Status, e.Message)
			}
			if !reflect.DeepEqual(got.Items[j], want[j]) {
				t.Fatalf("batch %d item %d diverged under chaos:\n got %+v\nwant %+v",
					i, j, got.Items[j], want[j])
			}
		}
	}
	if proxy.Spent() == 0 {
		t.Error("proxy injected no faults — the run proved nothing")
	}
	t.Logf("proxy faults injected: %v", proxy.Injected())
	auditCacheDir(t, dir)
}

// WithFreshConnections disables keep-alive pooling so every attempt
// dials the proxy anew — a mid-stream RST otherwise poisons a pooled
// connection and the next attempt can fail before the proxy sees it.
func WithFreshConnections() client.Option {
	return client.WithHTTPClient(&http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
	})
}
