package sta

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
)

// This file measures the workloads the compiled engine exists for:
//
//  1. the synthesis inner loop — swap a handful of cells, re-query the
//     critical path, repeat — comparing Analyzer.Swap against a full
//     Analyze of the mutated netlist each round;
//  2. the 121-library duty-cycle grid fan-out — one netlist timed under
//     every grid library — comparing a BatchTimer (topology compiled
//     once, legs fanned out over all CPUs) against a serial full
//     analysis per library;
//  3. the Monte Carlo sample step — the fresh and aged critical paths of
//     one sample, timed from per-instance weights on two DeltaBindings,
//     at 400 and 3600 gates;
//  4. one /v1/paths miss — TopPaths k=10 on a netlist the size of the
//     paper's circuits: one-shot (compile, bind, propagate, trace), and
//     on a BatchTimer compiled outside the loop (bind, propagate, trace),
//     which is what the daemon pays per miss.
//
// Run them with go test ./internal/sta/ -run XXX -bench 'InnerLoop|Grid|MCSample|TopPaths';
// each pair (Incremental vs Full, Batch vs SerialFull) is one
// comparison. make bench-smoke runs each once, so a benchmark that stops
// running fails make verify. The daemon-level benchmark is perfbench/
// (see its README).

// benchSwaps picks footprint-preserving drive changes for n random
// combinational instances, paired with the swaps that undo them.
func benchSwaps(rng *rand.Rand, nl *netlist.Netlist, l *liberty.Library, n int) (do, undo []CellSwap) {
	for len(do) < n {
		in := nl.Insts[rng.Intn(len(nl.Insts))]
		ct := l.MustCell(in.Cell)
		if ct.Seq {
			continue
		}
		vars := variantCells(l, in.Cell)
		if len(vars) == 0 {
			continue
		}
		do = append(do, CellSwap{Inst: in.Name, Cell: vars[rng.Intn(len(vars))]})
		undo = append(undo, CellSwap{Inst: in.Name, Cell: in.Cell})
	}
	return do, undo
}

func BenchmarkInnerLoopIncremental(b *testing.B) {
	l := lib(b, aging.Fresh())
	rng := rand.New(rand.NewSource(7))
	nl := randNetlist(rng, 400)
	ctx := context.Background()
	a, err := NewAnalyzer(ctx, nl, l, Config{})
	if err != nil {
		b.Fatal(err)
	}
	do, undo := benchSwaps(rng, nl, l, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := do
		if i%2 == 1 {
			s = undo
		}
		if _, err := a.Swap(ctx, s...); err != nil {
			b.Fatal(err)
		}
		_ = a.CP()
	}
}

func BenchmarkInnerLoopFull(b *testing.B) {
	l := lib(b, aging.Fresh())
	rng := rand.New(rand.NewSource(7))
	nl := randNetlist(rng, 400)
	ctx := context.Background()
	do, undo := benchSwaps(rng, nl, l, 3)
	byName := map[string]*netlist.Inst{}
	for _, in := range nl.Insts {
		byName[in.Name] = in
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := do
		if i%2 == 1 {
			s = undo
		}
		for _, sw := range s {
			byName[sw.Inst].Cell = sw.Cell
		}
		res, err := Analyze(ctx, nl, l, Config{})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.CP
	}
}

func BenchmarkGridBatch(b *testing.B) {
	l := lib(b, aging.Fresh())
	nl := randNetlist(rand.New(rand.NewSource(7)), 400)
	libs := make([]*liberty.Library, 121)
	for i := range libs {
		libs[i] = l
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridCPs(ctx, nl, libs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridSerialFull(b *testing.B) {
	l := lib(b, aging.Fresh())
	nl := randNetlist(rand.New(rand.NewSource(7)), 400)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 121; j++ {
			if _, err := Analyze(ctx, nl, l, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMCSample times one Monte Carlo sample at 400 gates and at 3600
// gates, the size of the paper's circuits. The per-net state and the
// per-instance arrays grow with the netlist, so only the larger case
// shows the memory-bound regime.
func BenchmarkMCSample(b *testing.B) {
	for _, size := range []int{400, 3600} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			nl := randNetlist(rng, size)
			ctx := context.Background()
			var dbs []*DeltaBinding
			var bt *BatchTimer
			for _, s := range []aging.Scenario{aging.Fresh(), aging.WorstCase(10)} {
				fx := newDeltaFixture(rng, lib(b, s))
				var err error
				if bt == nil {
					if bt, err = NewBatchTimer(ctx, nl, fx.lib, Config{}); err != nil {
						b.Fatal(err)
					}
				}
				db, err := bt.BindDeltas(fx.lib, fx.shifts)
				if err != nil {
					b.Fatal(err)
				}
				dbs = append(dbs, db)
			}
			w := sampleWeights(rng, len(nl.Insts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, db := range dbs {
					if _, err := db.CP(ctx, w); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkTopPaths times TopPaths k=10 at 3600 gates one-shot
// (TopPaths/oneshot) and on a BatchTimer compiled outside the loop
// (TopPaths/compiled).
func BenchmarkTopPaths(b *testing.B) {
	l := lib(b, aging.Fresh())
	nl := randNetlist(rand.New(rand.NewSource(7)), 3600)
	ctx := context.Background()
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TopPaths(ctx, nl, l, Config{}, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		bt, err := NewBatchTimer(ctx, nl, l, Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bt.TopPaths(ctx, l, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}
