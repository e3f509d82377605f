package sta

import (
	"context"
	"errors"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
)

func TestBatchTimerMatchesAnalyze(t *testing.T) {
	fresh := lib(t, aging.Fresh())
	aged := lib(t, aging.WorstCase(10))
	nl := chain(4)
	ctx := context.Background()

	bt, err := NewBatchTimer(ctx, nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*liberty.Library{fresh, aged} {
		want, err := Analyze(ctx, nl, l, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := bt.CP(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		// The batch timer re-binds a precompiled topology; it must be
		// bit-identical to a standalone analysis, not merely close.
		if got != want.CP {
			t.Errorf("%s: batch CP %v != Analyze CP %v", l.Scenario, got, want.CP)
		}
	}
}

func TestBatchTimerConcurrent(t *testing.T) {
	fresh := lib(t, aging.Fresh())
	aged := lib(t, aging.WorstCase(10))
	nl := chain(3)
	ctx := context.Background()
	bt, err := NewBatchTimer(ctx, nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bt.CP(ctx, aged)
	if err != nil {
		t.Fatal(err)
	}
	// One timer, many goroutines, alternating libraries: every call must
	// reproduce its library's CP exactly (bindings and states are
	// per-call; the shared topology is immutable).
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				cp, err := bt.CP(ctx, aged)
				if err != nil {
					errs <- err
					return
				}
				if cp != ref {
					t.Errorf("concurrent CP %v != %v", cp, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBatchTimerMissingCell: a library missing a cell the topology was
// compiled against cannot be bound; CP must fail cleanly.
func TestBatchTimerMissingCell(t *testing.T) {
	fresh := lib(t, aging.Fresh())
	nl := chain(2)
	ctx := context.Background()
	bt, err := NewBatchTimer(ctx, nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	broken := &liberty.Library{
		Name:     "broken",
		Scenario: fresh.Scenario,
		Vdd:      fresh.Vdd,
		Slews:    fresh.Slews,
		Loads:    fresh.Loads,
		Cells:    map[string]*liberty.CellTiming{},
	}
	if _, err := bt.CP(ctx, broken); err == nil {
		t.Error("empty library produced a CP")
	}
}

// TestBatchTimerSelfContained: a BatchTimer keeps the instance names and
// cells it was compiled with, so renaming every instance and moving every
// instance that has another drive onto it after the compile changes
// nothing it reports. CP and TopPaths under fresh and worst-case
// libraries equal the reference on an untouched clone of the netlist,
// and Insts lists the clone's names.
func TestBatchTimerSelfContained(t *testing.T) {
	libs := []*liberty.Library{lib(t, aging.Fresh()), lib(t, aging.WorstCase(10))}
	nl := randNetlist(rand.New(rand.NewSource(21)), 150)
	ref := nl.Clone()
	ctx := context.Background()
	bt, err := NewBatchTimer(ctx, nl, libs[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, in := range nl.Insts {
		in.Name += "_renamed"
		if vars := variantCells(libs[0], in.Cell); len(vars) > 0 {
			in.Cell = vars[len(vars)-1]
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no instance has another drive")
	}
	for _, l := range libs {
		got, err := bt.CP(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		want, err := analyzeReference(ref, l, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want.CP {
			t.Errorf("CP under %s after the netlist edits: %v != reference %v", l.Name, got, want.CP)
		}
		paths, err := bt.TopPaths(ctx, l, 8)
		if err != nil {
			t.Fatal(err)
		}
		wantPaths, err := topPathsReference(ref, l, Config{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(paths, wantPaths) {
			t.Errorf("TopPaths under %s after the netlist edits differ from the reference", l.Name)
		}
	}
	var names []string
	for _, in := range ref.Insts {
		names = append(names, in.Name)
	}
	if !slices.Equal(bt.Insts(), names) {
		t.Error("Insts differs from the compiled netlist's instance names")
	}
}

// permuted returns a copy of l in which cell lists its input pins in
// reverse order: the same timing tables under a different footprint.
func permuted(l *liberty.Library, cell string) *liberty.Library {
	p := *l
	p.Name = l.Name + "_permuted"
	p.Cells = maps.Clone(l.Cells)
	ct := *l.Cells[cell]
	ct.Inputs = slices.Clone(ct.Inputs)
	slices.Reverse(ct.Inputs)
	p.Cells[cell] = &ct
	return &p
}

// TestArcFromNonInputRejected: the compiled engine resolves arc and data
// pins through an instance's input nets, so a cell whose arc starts at a
// pin that is not one of its inputs is an error, at compile time and as
// a swap target, and a rejected swap leaves the Analyzer and the netlist
// as they were.
func TestArcFromNonInputRejected(t *testing.T) {
	fresh := lib(t, aging.Fresh())
	bad := *fresh
	bad.Cells = maps.Clone(fresh.Cells)
	ct := *fresh.Cells["INV_X2"]
	ct.Arcs = slices.Clone(ct.Arcs)
	ct.Arcs[0].Pin = "ZN"
	bad.Cells["INV_X2"] = &ct
	ctx := context.Background()

	nl := chain(3)
	nl.Insts[1].Cell = "INV_X2"
	if _, err := NewAnalyzer(ctx, nl, &bad, Config{}); err == nil {
		t.Error("NewAnalyzer bound a cell with an arc from its output")
	}

	nl = chain(3)
	a, err := NewAnalyzer(ctx, nl, &bad, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cp := a.CP()
	if _, err := a.Swap(ctx, CellSwap{Inst: "inv0", Cell: "INV_X4"}, CellSwap{Inst: "inv1", Cell: "INV_X2"}); err == nil {
		t.Error("Swap onto a cell with an arc from its output accepted")
	}
	if nl.Insts[1].Cell != "INV_X1" || nl.Insts[2].Cell != "INV_X1" {
		t.Error("rejected swap mutated the netlist")
	}
	if a.CP() != cp {
		t.Error("rejected swap changed engine state")
	}
}

// TestFootprintMismatchRecompiles: a library whose cell lists its inputs
// in another order than the compiled topology cannot be bound to it.
// BatchTimer.CP and TopPaths under that library fail with the footprint
// error and count no fallback, and the timer still times the template
// library. Analyzer.Swap onto that cell must compile a topology of its
// own, match the reference bit for bit, and count each fallback once in
// sta.incremental.fallbacks.
func TestFootprintMismatchRecompiles(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	fallbacks := func() int64 { return reg.Counter("sta.incremental.fallbacks").Value() }
	fresh := lib(t, aging.Fresh())
	nl := randNetlist(rand.New(rand.NewSource(9)), 80)

	// Permute the cell of one multi-input instance, and pick an instance
	// of another drive of the same base to swap onto it.
	var cell, inst string
	for _, in := range nl.Insts {
		ct := fresh.MustCell(in.Cell)
		if len(ct.Inputs) < 2 || ct.Seq {
			continue
		}
		for _, other := range nl.Insts {
			if other.Cell != in.Cell && fresh.MustCell(other.Cell).Base == ct.Base {
				cell, inst = in.Cell, other.Name
			}
		}
		if cell != "" {
			break
		}
	}
	if cell == "" {
		t.Fatal("netlist has no two drives of one multi-input base")
	}
	perm := permuted(fresh, cell)

	bt, err := NewBatchTimer(ctx, nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*liberty.Library{perm, fresh, perm} {
		got, err := bt.CP(ctx, l)
		_, perr := bt.TopPaths(ctx, l, 3)
		if l == perm {
			if !errors.Is(err, errFootprint) || !errors.Is(perr, errFootprint) {
				t.Fatalf("CP, TopPaths under %s: errors %v, %v, want the footprint error", l.Name, err, perr)
			}
			continue
		}
		if err != nil || perr != nil {
			t.Fatal(err, perr)
		}
		want, err := analyzeReference(nl, l, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want.CP {
			t.Fatalf("CP under %s: %v != reference %v", l.Name, got, want.CP)
		}
	}
	if n := fallbacks(); n != 0 {
		t.Fatalf("after the BatchTimer calls: fallbacks = %d, want 0", n)
	}

	a, err := NewAnalyzer(ctx, nl, perm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	undo, err := a.Swap(ctx, CellSwap{Inst: inst, Cell: cell})
	if err != nil {
		t.Fatal(err)
	}
	if n := fallbacks(); n != 1 {
		t.Fatalf("after swap onto %s: fallbacks = %d, want 1", cell, n)
	}
	want, err := analyzeReference(nl, perm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "after swap onto "+cell, a.Result(), want)
	if _, err := a.Swap(ctx, undo...); err != nil {
		t.Fatal(err)
	}
	if n := fallbacks(); n != 2 {
		t.Fatalf("after undo: fallbacks = %d, want 2", n)
	}
	want, err = analyzeReference(nl, perm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "after undo", a.Result(), want)
}

// deltaFixture is a library prepared for the delta-binding tests: a copy
// of a characterized library with one arc edge removed and a few tiny or
// negative table entries, and every cell's tables interleaved with
// synthetic sensitivities, some parameters without one.
type deltaFixture struct {
	lib    *liberty.Library
	shifts map[string][]liberty.ArcShift
}

func newDeltaFixture(rng *rand.Rand, base *liberty.Library) deltaFixture {
	l := *base
	l.Cells = maps.Clone(base.Cells)
	clone := func(tb *liberty.Table) *liberty.Table {
		if tb == nil {
			return nil
		}
		c := liberty.NewTable(tb.Slews, tb.Loads)
		for i, row := range tb.Values {
			copy(c.Values[i], row)
		}
		return c
	}
	// NAND2_X1's first arc loses its rise edge; about a quarter of the
	// entries of INV_X1's and DFF_X1's tables become tiny or negative, so
	// large draws hit the zero floor there, and an unshifted lookup that
	// floored anyway would show.
	for _, name := range []string{"NAND2_X1", "INV_X1", "DFF_X1"} {
		ct := *l.Cells[name]
		ct.Arcs = slices.Clone(ct.Arcs)
		for ai := range ct.Arcs {
			a := &ct.Arcs[ai]
			for e := 0; e < 2; e++ {
				a.Delay[e], a.OutSlew[e] = clone(a.Delay[e]), clone(a.OutSlew[e])
				if name == "NAND2_X1" {
					continue
				}
				for _, tb := range []*liberty.Table{a.Delay[e], a.OutSlew[e]} {
					if tb == nil {
						continue
					}
					for _, row := range tb.Values {
						for j := range row {
							switch r := rng.Float64(); {
							case r < 0.1:
								row[j] = 1e-15
							case r < 0.25:
								row[j] *= -0.05
							}
						}
					}
				}
			}
		}
		if name == "NAND2_X1" {
			ct.Arcs[0].Delay[liberty.Rise], ct.Arcs[0].OutSlew[liberty.Rise] = nil, nil
		}
		l.Cells[name] = &ct
	}
	shifts := make(map[string][]liberty.ArcShift, len(l.Cells))
	for _, name := range slices.Sorted(maps.Keys(l.Cells)) {
		ct := l.Cells[name]
		sh := make([]liberty.ArcShift, len(ct.Arcs))
		for ai := range ct.Arcs {
			a := &ct.Arcs[ai]
			for e := 0; e < 2; e++ {
				var delay, slew [liberty.NumDeltaParams]*liberty.Table
				for p := range delay {
					delay[p] = perturbedTable(rng, a.Delay[e], fixtureSteps[p], p == 1 && e == 0)
					slew[p] = perturbedTable(rng, a.OutSlew[e], fixtureSteps[p], p == 3)
				}
				sh[ai].Delay[e] = a.Delay[e].Interleave(delay, fixtureSteps)
				sh[ai].OutSlew[e] = a.OutSlew[e].Interleave(slew, fixtureSteps)
			}
		}
		shifts[name] = sh
	}
	return deltaFixture{lib: &l, shifts: shifts}
}

// fixtureSteps are the finite-difference steps of the fixture's
// perturbed tables, the signs of char's: positive for Vth, negative for
// mobility.
var fixtureSteps = [liberty.NumDeltaParams]float64{0.01, 0.01, -0.05, -0.05}

// perturbedTable draws base perturbed by step, so that its sensitivity
// (q − base)/step is about a tenth of base's entries in magnitude; nil
// when base is nil or skip is set.
func perturbedTable(rng *rand.Rand, base *liberty.Table, step float64, skip bool) *liberty.Table {
	if base == nil || skip {
		return nil
	}
	q := liberty.NewTable(base.Slews, base.Loads)
	for i, row := range base.Values {
		for j, v := range row {
			q.Values[i][j] = v + step*0.1*math.Abs(v)*rng.NormFloat64()
		}
	}
	return q
}

// sampleWeights draws per-instance weights: a quarter all zero, a tenth
// large enough (up to ±30 units) to drive many shifted entries below
// zero, the rest of unit scale with a random parameter left at zero.
func sampleWeights(rng *rand.Rand, n int) []liberty.DeltaWeights {
	w := make([]liberty.DeltaWeights, n)
	for k := range w {
		switch r := rng.Float64(); {
		case r < 0.25:
		case r < 0.35:
			for p := range w[k] {
				w[k][p] = 30 * (2*rng.Float64() - 1)
			}
		default:
			for p := range w[k] {
				w[k][p] = rng.NormFloat64()
			}
			w[k][rng.Intn(liberty.NumDeltaParams)] = 0
		}
	}
	return w
}

// shiftedLibraryCP is the reference for DeltaBinding.CP: the
// instance-variant netlist (instance k on cell "<cell>@<inst>") timed by
// BatchTimer.CP under a library whose variant cells carry
// liberty.ShiftTable.Shifted of every table, or share the base cell for
// an all-zero draw.
func shiftedLibraryCP(t *testing.T, nl *netlist.Netlist, fx deltaFixture, w []liberty.DeltaWeights) float64 {
	t.Helper()
	vnl := nl.Clone()
	vlib := *fx.lib
	vlib.Cells = make(map[string]*liberty.CellTiming, len(nl.Insts))
	for k, in := range vnl.Insts {
		ct := *fx.lib.Cells[in.Cell]
		if w[k] != (liberty.DeltaWeights{}) {
			sh := fx.shifts[in.Cell]
			ct.Arcs = slices.Clone(ct.Arcs)
			for ai := range ct.Arcs {
				a := &ct.Arcs[ai]
				for e := liberty.Rise; e <= liberty.Fall; e++ {
					a.Delay[e] = sh[ai].Delay[e].Shifted(&w[k])
					a.OutSlew[e] = sh[ai].OutSlew[e].Shifted(&w[k])
				}
			}
		}
		in.Cell += "@" + in.Name
		ct.Name = in.Cell
		vlib.Cells[in.Cell] = &ct
	}
	ctx := context.Background()
	bt, err := NewBatchTimer(ctx, vnl, &vlib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := bt.CP(ctx, &vlib)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestDeltaBindingMatchesShiftedLibrary is the bit-identity contract of
// the Monte Carlo sample step: DeltaBinding.CP on per-instance weights
// equals BatchTimer.CP under the library of shifted tables, bit for bit,
// on random registered netlists (flops, multi-arc cells, an arc edge
// without tables, parameters without a sensitivity, all-zero and
// floor-hitting draws), with samples timed concurrently on shared
// bindings.
func TestDeltaBindingMatchesShiftedLibrary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var fxs []deltaFixture
	for _, s := range []aging.Scenario{aging.Fresh(), aging.WorstCase(10)} {
		fxs = append(fxs, newDeltaFixture(rng, lib(t, s)))
	}
	ctx := context.Background()
	for _, size := range []int{30, 120} {
		nl := randNetlist(rng, size)
		bt, err := NewBatchTimer(ctx, nl, fxs[0].lib, Config{})
		if err != nil {
			t.Fatal(err)
		}
		const samples = 12
		ws := make([][]liberty.DeltaWeights, samples)
		want := make([][]float64, samples)
		for i := range ws {
			ws[i] = sampleWeights(rng, len(nl.Insts))
			for _, fx := range fxs {
				want[i] = append(want[i], shiftedLibraryCP(t, nl, fx, ws[i]))
			}
		}
		var dbs []*DeltaBinding
		for _, fx := range fxs {
			db, err := bt.BindDeltas(fx.lib, fx.shifts)
			if err != nil {
				t.Fatal(err)
			}
			dbs = append(dbs, db)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < samples; i += 4 {
					for j, db := range dbs {
						got, err := db.CP(ctx, ws[i])
						if err != nil {
							t.Error(err)
							return
						}
						if math.Float64bits(got) != math.Float64bits(want[i][j]) {
							t.Errorf("%s sample %d lib %d: DeltaBinding.CP %v != shifted-library CP %v",
								nl.Name, i, j, got, want[i][j])
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestDeltaBindingRejectsMisalignedInputs: a cell without shifted tables
// for every arc cannot be bound, and a weight slice of the wrong length
// cannot be timed.
func TestDeltaBindingRejectsMisalignedInputs(t *testing.T) {
	fx := newDeltaFixture(rand.New(rand.NewSource(3)), lib(t, aging.Fresh()))
	nl := chain(2)
	ctx := context.Background()
	bt, err := NewBatchTimer(ctx, nl, fx.lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	short := maps.Clone(fx.shifts)
	short["INV_X1"] = short["INV_X1"][:len(short["INV_X1"])-1]
	if _, err := bt.BindDeltas(fx.lib, short); err == nil {
		t.Error("bound a cell with a missing shifted arc")
	}
	db, err := bt.BindDeltas(fx.lib, fx.shifts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CP(ctx, make([]liberty.DeltaWeights, len(nl.Insts)-1)); err == nil {
		t.Error("timed a sample with too few weights")
	}
}

// TestDeltaBindingAllocs: a sample reuses the propagation state of an
// earlier one and reads loads computed at bind time, so it allocates at
// most once (the state free list growing), at any netlist size.
func TestDeltaBindingAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fx := newDeltaFixture(rng, lib(t, aging.Fresh()))
	ctx := context.Background()
	for _, size := range []int{40, 400} {
		nl := randNetlist(rng, size)
		bt, err := NewBatchTimer(ctx, nl, fx.lib, Config{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := bt.BindDeltas(fx.lib, fx.shifts)
		if err != nil {
			t.Fatal(err)
		}
		w := sampleWeights(rng, len(nl.Insts))
		n := testing.AllocsPerRun(20, func() {
			if _, err := db.CP(ctx, w); err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Errorf("allocations per sample = %v at %d gates, want at most 1", n, size)
		}
	}
}

// TestNewBatchTimerAllocs: compiling a topology allocates a fixed number
// of flat arrays, not a map or slice per instance or per net, so ten
// times the gates costs at most twice the allocations (map growth and
// append doubling are logarithmic).
func TestNewBatchTimerAllocs(t *testing.T) {
	l := lib(t, aging.Fresh())
	ctx := context.Background()
	var counts []float64
	for _, size := range []int{400, 4000} {
		nl := randNetlist(rand.New(rand.NewSource(11)), size)
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := NewBatchTimer(ctx, nl, l, Config{}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[1] > 2*counts[0] {
		t.Errorf("NewBatchTimer allocations = %v at 400 and 4000 gates, want at most twice as many at 4000", counts)
	}
}
