package sta

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

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
// Besides the regular go-test benchmarks, TestBenchPR4Emit runs both
// comparisons head-to-head and writes the speedups to the JSON file
// named by BENCH_PR4_OUT ("make bench" points it at BENCH_PR4.json;
// "make verify" runs it once against a throwaway file as a smoke test).

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

// benchReport is the BENCH_PR4.json document.
type benchReport struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	CPUs       int      `json:"cpus"`
	Gates      int      `json:"gates"`
	Iterations int      `json:"iterations"`
	InnerLoop  benchCmp `json:"synth_inner_loop"`
	GridFanout benchCmp `json:"grid_fanout_121_libs"`
}

type benchCmp struct {
	BaselineMs    float64 `json:"baseline_ms"`
	OptimizedMs   float64 `json:"optimized_ms"`
	Speedup       float64 `json:"speedup"`
	Baseline      string  `json:"baseline"`
	Optimized     string  `json:"optimized"`
	RoundsPerIter int     `json:"rounds_per_iter"`
}

// medianOf runs f iters times and returns the median duration in ms.
func medianOf(iters int, f func()) float64 {
	times := make([]float64, iters)
	for i := range times {
		t0 := time.Now()
		f()
		times[i] = float64(time.Since(t0).Microseconds()) / 1e3
	}
	for i := range times {
		for j := i + 1; j < len(times); j++ {
			if times[j] < times[i] {
				times[i], times[j] = times[j], times[i]
			}
		}
	}
	return times[len(times)/2]
}

// TestBenchPR4Emit produces BENCH_PR4.json. Skipped unless BENCH_PR4_OUT
// names the output file; BENCH_PR4_ITERS overrides the per-measurement
// repetition count (1 = smoke mode, used by "make verify").
func TestBenchPR4Emit(t *testing.T) {
	out := os.Getenv("BENCH_PR4_OUT")
	if out == "" {
		t.Skip("set BENCH_PR4_OUT to emit the benchmark report")
	}
	iters := 5
	if s := os.Getenv("BENCH_PR4_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad BENCH_PR4_ITERS=%q", s)
		}
		iters = n
	}
	l := lib(t, aging.Fresh())
	ctx := context.Background()
	const gates, rounds = 400, 40

	rep := benchReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		Gates:      gates,
		Iterations: iters,
	}

	// Synthesis inner loop: `rounds` accept/reject probes of 3 swaps each.
	mkSwapPlan := func() (*netlist.Netlist, [][]CellSwap) {
		rng := rand.New(rand.NewSource(7))
		nl := randNetlist(rng, gates)
		plan := make([][]CellSwap, rounds)
		for i := range plan {
			do, undo := benchSwaps(rng, nl, l, 3)
			if i%2 == 0 {
				plan[i] = do
			} else {
				plan[i] = undo
			}
		}
		return nl, plan
	}
	fullMs := medianOf(iters, func() {
		nl, plan := mkSwapPlan()
		byName := map[string]*netlist.Inst{}
		for _, in := range nl.Insts {
			byName[in.Name] = in
		}
		for _, swaps := range plan {
			for _, sw := range swaps {
				byName[sw.Inst].Cell = sw.Cell
			}
			if _, err := Analyze(ctx, nl, l, Config{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	incrMs := medianOf(iters, func() {
		nl, plan := mkSwapPlan()
		a, err := NewAnalyzer(ctx, nl, l, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, swaps := range plan {
			if _, err := a.Swap(ctx, swaps...); err != nil {
				t.Fatal(err)
			}
			_ = a.CP()
		}
	})
	rep.InnerLoop = benchCmp{
		BaselineMs:    fullMs,
		OptimizedMs:   incrMs,
		Speedup:       fullMs / incrMs,
		Baseline:      fmt.Sprintf("full Analyze per round (%d rounds x 3 swaps)", rounds),
		Optimized:     "Analyzer.Swap incremental re-propagation",
		RoundsPerIter: rounds,
	}

	// Grid fan-out: one netlist under 121 libraries.
	nl := randNetlist(rand.New(rand.NewSource(7)), gates)
	libs := make([]*liberty.Library, 121)
	for i := range libs {
		libs[i] = l
	}
	serialMs := medianOf(iters, func() {
		for range libs {
			if _, err := Analyze(ctx, nl, l, Config{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	batchMs := medianOf(iters, func() {
		if _, err := gridCPs(ctx, nl, libs, 0); err != nil {
			t.Fatal(err)
		}
	})
	rep.GridFanout = benchCmp{
		BaselineMs:    serialMs,
		OptimizedMs:   batchMs,
		Speedup:       serialMs / batchMs,
		Baseline:      "serial Analyze per library",
		Optimized:     "BatchTimer.CP per library, shared topology, all CPUs",
		RoundsPerIter: len(libs),
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("inner loop: full %.2fms vs incremental %.2fms (%.1fx)",
		fullMs, incrMs, rep.InnerLoop.Speedup)
	t.Logf("grid fan-out: serial %.2fms vs batch %.2fms (%.1fx)",
		serialMs, batchMs, rep.GridFanout.Speedup)
	if iters > 1 {
		if rep.InnerLoop.Speedup < 2 {
			t.Errorf("inner-loop speedup %.2fx < 2x", rep.InnerLoop.Speedup)
		}
		if rep.GridFanout.Speedup < 2 {
			t.Errorf("grid fan-out speedup %.2fx < 2x", rep.GridFanout.Speedup)
		}
	}
}
