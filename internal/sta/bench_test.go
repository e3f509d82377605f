package sta

import (
	"context"
	"math/rand"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
)

// This file measures the two workloads the incremental engine exists for:
//
//  1. the synthesis inner loop — swap a handful of cells, re-query the
//     critical path, repeat — comparing Analyzer.Swap against a full
//     Analyze of the mutated netlist each round;
//  2. the 121-library duty-cycle grid fan-out — one netlist timed under
//     every grid library — comparing a BatchTimer (topology compiled
//     once, legs fanned out over all CPUs) against a serial full
//     analysis per library.
//
// Run them with go test ./internal/sta/ -run XXX -bench 'InnerLoop|Grid';
// each pair (Incremental vs Full, Batch vs SerialFull) is one
// comparison. The daemon-level benchmark is perfbench/ (see its README).

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
