package char

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
)

// TestCancelMidGrid interrupts a characterization after the first cell
// completes and verifies the three cancellation guarantees: the error
// matches both ErrCanceled and context.Canceled, no goroutines are
// leaked, and the cache directory holds no partial entries — no temp
// files and no half-complete .alib. Complete per-cell checkpoint shards
// (.ckpt) are allowed: they are the resume mechanism, written atomically,
// and each must parse as a valid single-cell library.
func TestCancelMidGrid(t *testing.T) {
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1", "NAND2_X1", "NOR2_X1", "AND2_X1", "OR2_X1"}
	cfg.CacheDir = dir
	cfg.Parallelism = 4

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Progress = func(done, total int) {
		if done == 1 {
			cancel() // first cell finished: interrupt the rest mid-grid
		}
	}
	_, err := cfg.Characterize(ctx, aging.WorstCase(10))
	if err == nil {
		t.Fatal("canceled characterization returned nil error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error %v does not match ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}

	// No partial cache entries: storeCache never ran (the characterize
	// error aborts first) and temp files are unlinked on every error path.
	// Checkpoint shards for cells that completed before the cancel may
	// remain — that is the resume guarantee — but each must be a complete,
	// parseable single-cell library.
	ents, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".ckpt") {
			t.Errorf("canceled run left cache file %s", name)
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, perr := liberty.Parse(data); perr != nil {
			t.Errorf("checkpoint shard %s is not a complete library: %v", name, perr)
		}
	}

	// All worker goroutines drain (poll: group teardown is asynchronous).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after cancel", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGoroutineFloodBounded: the parallel sweep must create at most
// O(limiter-cap x limiter-cap) goroutines, not one per grid point. An
// unbounded flood (tens of thousands of runnable goroutines) starves the
// scheduler on small-GOMAXPROCS hosts — most visibly the signal-watcher
// goroutine, which turns Ctrl-C latency from milliseconds into seconds.
// It also bounds the observed cancel latency generously.
func TestGoroutineFloodBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-size characterization for ~2s")
	}
	cfg := DefaultConfig()
	cfg.CacheDir = ""
	cfg.Parallelism = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := cfg.Characterize(ctx, aging.WorstCase(10))
		done <- err
	}()
	time.Sleep(2 * time.Second)
	// 4 cells in flight + 4 points each + runtime overhead; one-per-point
	// would be several thousand.
	if n := runtime.NumGoroutine(); n > 800 {
		t.Errorf("%d goroutines during full-size characterization, want bounded fan-out", n)
	}
	t0 := time.Now()
	cancel()
	err := <-done
	if lat := time.Since(t0); lat > 2*time.Second {
		t.Errorf("cancel latency %s, want < 2s", lat)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error %v does not match ErrCanceled", err)
	}
}

// TestCancelBeforeStart: an already-canceled context fails fast without
// simulating or writing anything.
func TestCancelBeforeStart(t *testing.T) {
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = dir
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cfg.Characterize(ctx, aging.WorstCase(10)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled context: got %v, want ErrCanceled", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("pre-canceled run wrote %d cache files", len(ents))
	}
}

// TestHashInvalidatesCache: changing any grid axis value (not just the
// axis length) must change the cache filename, so a pre-hash entry can
// never be silently reused for a different operating-condition grid.
func TestHashInvalidatesCache(t *testing.T) {
	a := TestConfig()
	b := TestConfig()
	b.Slews = append([]float64(nil), a.Slews...)
	b.Slews[1] *= 1.5 // same count, different value
	s := aging.WorstCase(10)
	a.CacheDir, b.CacheDir = "cache", "cache"
	if a.cachePath(s) == b.cachePath(s) {
		t.Fatalf("configs with different slew values share cache path %s", a.cachePath(s))
	}
	c := TestConfig()
	c.CacheDir = "cache"
	if a.cachePath(s) != c.cachePath(s) {
		t.Error("identical configs produced different cache paths")
	}
}

// TestStaleGridNotReused characterizes under one grid, then alters a grid
// value and verifies a fresh characterization happens (cache miss, two
// distinct files) instead of stale reuse.
func TestStaleGridNotReused(t *testing.T) {
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = dir
	s := aging.WorstCase(10)
	if _, err := cfg.Characterize(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Slews = append([]float64(nil), cfg.Slews...)
	cfg2.Slews[0] *= 2
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	if _, err := cfg2.Characterize(ctx, s); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter("char.cache.hits").Value(); hits != 0 {
		t.Errorf("changed grid produced %d cache hits, want 0", hits)
	}
	if misses := reg.Counter("char.cache.misses").Value(); misses != 1 {
		t.Errorf("char.cache.misses = %d, want 1", misses)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("cache holds %d entries after two distinct grids, want 2", len(ents))
	}
}

// TestErrNoCell: an unknown cell name surfaces as a wrapped ErrNoCell
// instead of a panic.
func TestErrNoCell(t *testing.T) {
	cfg := TestConfig()
	cfg.Cells = []string{"NOPE_X9"}
	_, err := cfg.Characterize(context.Background(), aging.Fresh())
	if !errors.Is(err, ErrNoCell) {
		t.Fatalf("got %v, want ErrNoCell", err)
	}
	if !strings.Contains(err.Error(), "NOPE_X9") {
		t.Errorf("error %q does not name the missing cell", err)
	}
}

// TestErrCacheCorrupt: a garbage cache entry is detected, counted, and
// transparently rebuilt (atomically replacing the bad file).
func TestErrCacheCorrupt(t *testing.T) {
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = dir
	s := aging.WorstCase(10)
	if err := os.WriteFile(cfg.cachePath(s), []byte("not a library"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.loadCache(s); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("loadCache on garbage: got %v, want ErrCacheCorrupt", err)
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	lib, err := cfg.Characterize(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lib.Cell("INV_X1"); !ok {
		t.Fatal("rebuilt library lacks INV_X1")
	}
	if n := reg.Counter("char.cache.corrupt").Value(); n != 1 {
		t.Errorf("char.cache.corrupt = %d, want 1", n)
	}
	// The corrupt entry was replaced: it now loads cleanly.
	if _, err := cfg.loadCache(s); err != nil {
		t.Errorf("cache entry still unreadable after rebuild: %v", err)
	}
	for _, e := range mustReadDir(t, dir) {
		if strings.Contains(e, ".tmp") {
			t.Errorf("stray temp file %s", e)
		}
	}
}

func mustReadDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, filepath.Base(e.Name()))
	}
	return names
}

// TestCharMetrics: a cold characterization populates the char and spice
// counters the run manifest is built from.
func TestCharMetrics(t *testing.T) {
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1", "NAND2_X1"}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	if _, err := cfg.Characterize(ctx, aging.WorstCase(10)); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("char.cells").Value(); n != 2 {
		t.Errorf("char.cells = %d, want 2", n)
	}
	if n := reg.Counter("spice.transients").Value(); n == 0 {
		t.Error("spice.transients = 0 after a cold characterization")
	}
	if n := reg.Counter("spice.newton.iterations").Value(); n == 0 {
		t.Error("spice.newton.iterations = 0 after a cold characterization")
	}
	if st := reg.Histogram("char.cell.seconds").Stat(); st.Count != 2 {
		t.Errorf("char.cell.seconds count = %d, want 2", st.Count)
	}
	snap := reg.Snapshot()
	if len(snap.Spans) == 0 {
		t.Error("no root spans recorded")
	}
}
