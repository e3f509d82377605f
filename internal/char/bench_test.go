package char

import (
	"context"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/cells"
	"ageguard/internal/liberty"
	"ageguard/internal/units"
)

// This file measures the transistor-level transient kernel — the hot path
// of every characterization run — at two levels:
//
//  1. one full per-arc characterization point (circuit build +
//     retry-ladder transient + delay/slew measurement) on a single-stage
//     INV_X1 and a multi-stage XOR2_X1 arc, with allocation tracking
//     (b.ReportAllocs);
//  2. a small Characterize run (wall clock), the unit of work the
//     121-library grid repeats.
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
