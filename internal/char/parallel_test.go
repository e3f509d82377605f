package char

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/internal/units"
)

// writeLib serializes a library for byte-level comparison.
func writeLib(t *testing.T, lib *liberty.Library) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := liberty.Write(&b, lib); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestParallelMatchesSerialByteIdentical(t *testing.T) {
	// The core determinism guarantee: a library characterized on 8 workers
	// serializes to exactly the bytes of the serial characterization.
	// The subset covers the tricky shapes: multi-arc (NAND), binate
	// (XOR, MUX) and sequential (DFF) cells.
	cfg := TestConfig()
	cfg.Cells = []string{"NAND2_X1", "XOR2_X1", "MUX2_X1", "DFF_X1"}
	s := aging.WorstCase(10)

	serial := cfg
	serial.Parallelism = 1
	libS, err := serial.Characterize(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.Parallelism = 8
	libP, err := par.Characterize(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	bs, bp := writeLib(t, libS), writeLib(t, libP)
	if !bytes.Equal(bs, bp) {
		t.Fatalf("parallel library differs from serial (serial %d bytes, parallel %d bytes)",
			len(bs), len(bp))
	}
}

// tinyGridConfig is the cheapest meaningful configuration: one cell over a
// 2x2 OPC grid (8 simulations per scenario).
func tinyGridConfig(dir string) Config {
	cfg := DefaultConfig()
	cfg.Slews = LogAxis(5*units.Ps, 947*units.Ps, 2)
	cfg.Loads = LogAxis(0.5*units.FF, 20*units.FF, 2)
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = dir
	cfg.Parallelism = 8
	return cfg
}

func TestGenerateGridConcurrentSharedCache(t *testing.T) {
	// Two CharacterizeAll runs over the full 121-scenario duty-cycle grid
	// (as two concurrent grid queries make them), started concurrently
	// against ONE cache directory. The per-scenario singleflight plus
	// atomic cache writes must yield: both succeed, each returns all 121
	// libraries in grid order, and the work is not done twice (every
	// .alib exists exactly once, no stray temp files).
	dir := t.TempDir()
	cfg := tinyGridConfig(dir)

	scens := aging.GridScenarios(10)
	run := func() ([]string, error) {
		libs, err := cfg.CharacterizeAll(context.Background(), scens)
		names := make([]string, len(libs))
		for i, l := range libs {
			names[i] = l.Name
		}
		return names, err
	}
	var wg sync.WaitGroup
	names := make([][]string, 2)
	errs := make([]error, 2)
	for k := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			names[k], errs[k] = run()
		}()
	}
	wg.Wait()
	for k := range errs {
		if errs[k] != nil {
			t.Fatalf("run %d: %v", k, errs[k])
		}
		if len(names[k]) != len(scens) {
			t.Fatalf("run %d visited %d libraries, want %d", k, len(names[k]), len(scens))
		}
		for i, s := range scens {
			if want := cfg.libName(s); names[k][i] != want {
				t.Fatalf("run %d visit %d = %s, want %s (grid order)", k, i, names[k][i], want)
			}
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	alibs := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".alib") {
			alibs++
		} else {
			t.Errorf("stray cache file %s", e.Name())
		}
	}
	if alibs != len(scens) {
		t.Errorf("cache holds %d .alib files, want %d", alibs, len(scens))
	}
	// Spot check: a cached library loads back with the right cell.
	lib, err := cfg.loadCache(scens[0])
	if err != nil {
		t.Fatalf("cache miss after CharacterizeAll: %v", err)
	}
	if _, ok := lib.Cell("INV_X1"); !ok {
		t.Error("cached library lacks INV_X1")
	}
}

func TestConcurrentCharacterizeSingleflight(t *testing.T) {
	// Two concurrent Characterize calls for the same scenario and cache
	// directory must characterize once: the per-cell Progress ticks across
	// both calls total exactly one run's worth.
	dir := t.TempDir()
	var mu sync.Mutex
	ticks := 0
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1", "NAND2_X1", "NOR2_X1"}
	cfg.CacheDir = dir
	cfg.Parallelism = 4
	cfg.Progress = func(done, total int) {
		mu.Lock()
		ticks++
		mu.Unlock()
	}
	s := aging.WorstCase(10)
	var wg sync.WaitGroup
	libs := make([]*liberty.Library, 2)
	errs := make([]error, 2)
	for k := range libs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			libs[k], errs[k] = cfg.Characterize(context.Background(), s)
		}()
	}
	wg.Wait()
	for k := range errs {
		if errs[k] != nil {
			t.Fatalf("call %d: %v", k, errs[k])
		}
	}
	if ticks != len(cfg.Cells) {
		t.Errorf("progress ticked %d times across both calls, want %d (work deduplicated)",
			ticks, len(cfg.Cells))
	}
	if !bytes.Equal(writeLib(t, libs[0]), writeLib(t, libs[1])) {
		t.Error("concurrent calls returned different libraries")
	}
}

func TestProgressSerialAndMonotonic(t *testing.T) {
	// The Progress contract: serial invocation with done strictly
	// increasing 1..total, even under parallelism. The callback writes to
	// unsynchronized state on purpose — the race detector fails this test
	// if the serialization guarantee is ever broken.
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1", "NAND2_X1", "NOR2_X1", "AND2_X1", "OR2_X1", "XOR2_X1"}
	cfg.Parallelism = 8
	var seen []int
	var totals []int
	cfg.Progress = func(done, total int) {
		seen = append(seen, done)
		totals = append(totals, total)
	}
	if _, err := cfg.Characterize(context.Background(), aging.WorstCase(10)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cfg.Cells) {
		t.Fatalf("progress called %d times, want %d", len(seen), len(cfg.Cells))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not monotonically increasing", seen)
		}
		if totals[i] != len(cfg.Cells) {
			t.Fatalf("progress total = %d, want %d", totals[i], len(cfg.Cells))
		}
	}
}

func TestStoreCacheErrorSurfaced(t *testing.T) {
	// A cache directory that cannot be created (its parent is a regular
	// file) must fail Characterize instead of silently dropping the store.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = filepath.Join(blocker, "cache")
	if _, err := cfg.Characterize(context.Background(), aging.WorstCase(10)); err == nil {
		t.Fatal("cache store failure was swallowed")
	}
}
