package char

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/cells"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
	"ageguard/internal/units"
)

// This file measures the transistor-level transient kernel — the hot path
// of every characterization run — and the cache loads that replace it:
//
//  1. one full per-arc characterization point (circuit build +
//     retry-ladder transient + delay/slew measurement) on a single-stage
//     INV_X1 and a multi-stage XOR2_X1 arc, with allocation tracking
//     (b.ReportAllocs);
//  2. a small Characterize run (wall clock), the unit of work the
//     121-library grid repeats;
//  3. one cache load of a daemon-size library (VerifyCacheFile), which
//     warm starts and Monte Carlo fills repeat;
//  4. the sensitivities of one daemon-size scenario around a held base
//     (SensitivitiesAround), the per-scenario cost of a Monte Carlo
//     miss: built from four cache loads, and read from the scenario's
//     sensitivity file.
//
// Run them with go test ./internal/char/ -run XXX -bench .
// The daemon-level benchmark is perfbench/ (see its README).

// benchArc returns a closure running one complete characterization point
// of the cell's first combinational arc: rise edge, 100 ps input slew,
// 4 fF load — the middle of the OPC grid.
func benchArc(tb testing.TB, cfg Config, cellName string) func() {
	tb.Helper()
	cell, ok := cells.ByName(cellName)
	if !ok {
		tb.Fatalf("no cell %s", cellName)
	}
	specs := DiscoverArcs(cell)
	if len(specs) == 0 {
		tb.Fatalf("no arcs for %s", cellName)
	}
	spec := specs[0]
	scen := aging.WorstCase(10)
	ctx := context.Background()
	pi := cell.PinIndex(spec.Pin)
	slew, load := 100*units.Ps, 4*units.FF
	return func() {
		p := Point{Cell: cell.Name, Pin: spec.Pin, Edge: liberty.Rise}
		m, err := cfg.simComb(ctx, cell, scen, spec, p, pi,
			spec.Sense.InputEdge(liberty.Rise), liberty.Rise, slew, load)
		if err != nil {
			tb.Fatal(err)
		}
		if m.delay <= 0 {
			tb.Fatalf("implausible delay %v", m.delay)
		}
	}
}

func benchArcRun(b *testing.B, cellName string) {
	run := benchArc(b, TestConfig(), cellName)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkArcTransientINVX1(b *testing.B)  { benchArcRun(b, "INV_X1") }
func BenchmarkArcTransientXOR2X1(b *testing.B) { benchArcRun(b, "XOR2_X1") }

// BenchmarkCharacterizeINVX1 measures the small Characterize unit
// (one cell, 3x3 grid, no cache) that scenario sweeps repeat 121 times.
func BenchmarkCharacterizeINVX1(b *testing.B) {
	cfg := TestConfig()
	cfg.CacheDir = ""
	cfg.Cells = []string{"INV_X1"}
	cfg.Parallelism = 1
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Characterize(ctx, aging.WorstCase(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// daemonLibrary returns a daemon-size library for s: every catalog cell
// with its real arcs over cfg's grid, with arbitrary full-precision
// table values in place of characterized ones, which parse alike.
func daemonLibrary(cfg Config, s aging.Scenario) *liberty.Library {
	rng := rand.New(rand.NewSource(1))
	table := func() *liberty.Table {
		t := liberty.NewTable(cfg.Slews, cfg.Loads)
		for _, row := range t.Values {
			for j := range row {
				row[j] = 1e-11 * (0.5 + 10*rng.Float64())
			}
		}
		return t
	}
	arc := func(pin string, sense liberty.Sense, when uint) liberty.Arc {
		return liberty.Arc{Pin: pin, Sense: sense, When: when,
			Delay: [2]*liberty.Table{table(), table()}, OutSlew: [2]*liberty.Table{table(), table()}}
	}
	lib := &liberty.Library{
		Name: cfg.libName(s), Scenario: s, Vdd: cfg.Tech.Vdd,
		Slews: cfg.Slews, Loads: cfg.Loads, Cells: map[string]*liberty.CellTiming{},
	}
	for _, c := range cells.All() {
		ct := &liberty.CellTiming{
			Name: c.Name, Base: c.Base, Drive: c.Drive, AreaUm2: c.AreaUm2,
			Inputs: c.Inputs, Output: c.Output, PinCap: map[string]float64{},
		}
		for _, p := range c.Inputs {
			ct.PinCap[p] = c.PinCap(cfg.Tech, p)
		}
		if c.Seq {
			ct.Seq, ct.Clock, ct.Data, ct.SetupPS, ct.HoldPS = true, c.Clock, c.Data, dffSetup, dffHold
			ct.Arcs = []liberty.Arc{arc(c.Clock, liberty.PositiveUnate, 0)}
		} else {
			for _, spec := range DiscoverArcs(c) {
				ct.Arcs = append(ct.Arcs, arc(spec.Pin, spec.Sense, spec.When))
			}
		}
		lib.Cells[c.Name] = ct
	}
	return lib
}

// BenchmarkVerifyCacheFile loads a daemon-size cache entry end to end —
// read, seal, parse — as the cache loader and the warm start do. The
// entry (daemonLibrary over DefaultConfig's 7×7 grid)
// is written to a temporary directory, not the repository cache.
func BenchmarkVerifyCacheFile(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheDir = b.TempDir()
	s := aging.WorstCase(10)
	if err := cfg.storeCache(s, daemonLibrary(cfg, s)); err != nil {
		b.Fatal(err)
	}
	path := cfg.cachePath(s)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := VerifyCacheFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivitiesAround takes a daemon-size scenario's
// sensitivities around a base library the caller holds, as an ageguardd
// Monte Carlo fill does. Each perturbed entry is daemonLibrary, written
// to a temporary directory at the path of its perturbed config,
// cfg.Perturb.Add(step), so every load hits.
//
//   - perturbed: no sensitivity file, what the first fill of a scenario
//     costs: the four perturbed loads, the interleaving of every base
//     table and the file's write. The file is removed, untimed, after
//     each iteration.
//   - file: a sensitivity file hit, what every later fill costs: one
//     read, its checks and the decoding of every table.
func BenchmarkSensitivitiesAround(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheDir = b.TempDir()
	s := aging.WorstCase(10)
	base := daemonLibrary(cfg, s)
	for _, step := range sensSteps {
		pcfg := cfg
		pcfg.Perturb = cfg.Perturb.Add(step)
		if err := pcfg.storeCache(s, base); err != nil {
			b.Fatal(err)
		}
	}
	fill := func(b *testing.B, ctx context.Context) {
		if _, err := cfg.SensitivitiesAround(ctx, s, base); err != nil {
			b.Fatal(err)
		}
	}
	// want fails b unless the registry counted n of the named event.
	want := func(b *testing.B, reg *obs.Registry, name string, n int) {
		if got := reg.Counter(name).Value(); got != int64(n) {
			b.Fatalf("%s = %d after %d fills", name, got, n)
		}
	}
	// A b.N loop: b.Loop times from the last StartTimer, so with the
	// timer stopped in every iteration it would never reach -benchtime.
	b.Run("perturbed", func(b *testing.B) {
		reg := obs.NewRegistry()
		ctx := obs.With(context.Background(), reg)
		b.ReportAllocs()
		for range b.N {
			fill(b, ctx)
			b.StopTimer()
			if err := os.Remove(cfg.sensPath(s)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		want(b, reg, "char.sens.misses", b.N)
	})
	b.Run("file", func(b *testing.B) {
		fill(b, context.Background())
		reg := obs.NewRegistry()
		ctx := obs.With(context.Background(), reg)
		b.ReportAllocs()
		n := 0
		for b.Loop() {
			fill(b, ctx)
			n++
		}
		want(b, reg, "char.sens.hits", n)
	})
}
