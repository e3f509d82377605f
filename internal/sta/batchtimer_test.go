package sta

import (
	"context"
	"maps"
	"math"
	"math/rand"
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
// BatchTimer.CP under that library, and Analyzer.Swap onto that cell,
// must compile a topology of their own, match the reference bit for bit,
// and count each fallback once in sta.incremental.fallbacks.
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
	for i, l := range []*liberty.Library{perm, fresh, perm} {
		got, err := bt.CP(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		want, err := analyzeReference(nl, l, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want.CP {
			t.Fatalf("CP under %s: %v != reference %v", l.Name, got, want.CP)
		}
		if n, wantN := fallbacks(), int64(i/2+1); n != wantN {
			t.Fatalf("after CP %d under %s: fallbacks = %d, want %d", i, l.Name, n, wantN)
		}
	}

	a, err := NewAnalyzer(ctx, nl, perm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	undo, err := a.Swap(ctx, CellSwap{Inst: inst, Cell: cell})
	if err != nil {
		t.Fatal(err)
	}
	if n := fallbacks(); n != 3 {
		t.Fatalf("after swap onto %s: fallbacks = %d, want 3", cell, n)
	}
	want, err := analyzeReference(nl, perm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "after swap onto "+cell, a.Result(), want)
	if _, err := a.Swap(ctx, undo...); err != nil {
		t.Fatal(err)
	}
	if n := fallbacks(); n != 4 {
		t.Fatalf("after undo: fallbacks = %d, want 4", n)
	}
	want, err = analyzeReference(nl, perm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "after undo", a.Result(), want)
}

// deltaFixture is a library prepared for the delta-binding tests: a copy
// of a characterized library with one arc edge removed and a few tiny or
// negative table entries, and synthetic per-arc delta tables for every
// cell, some of them nil.
type deltaFixture struct {
	lib    *liberty.Library
	deltas map[string][]liberty.ArcDelta
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
	deltas := make(map[string][]liberty.ArcDelta, len(l.Cells))
	for _, name := range slices.Sorted(maps.Keys(l.Cells)) {
		ct := l.Cells[name]
		ds := make([]liberty.ArcDelta, len(ct.Arcs))
		for ai := range ct.Arcs {
			for p := 0; p < liberty.NumDeltaParams; p++ {
				for e := 0; e < 2; e++ {
					ds[ai].Delay[p][e] = deltaTable(rng, ct.Arcs[ai].Delay[e], p == 1 && e == 0)
					ds[ai].OutSlew[p][e] = deltaTable(rng, ct.Arcs[ai].OutSlew[e], p == 3)
				}
			}
		}
		deltas[name] = ds
	}
	return deltaFixture{lib: &l, deltas: deltas}
}

// deltaTable draws a derivative table of magnitude about a tenth of
// base's entries; nil when base is nil or skip is set.
func deltaTable(rng *rand.Rand, base *liberty.Table, skip bool) *liberty.Table {
	if base == nil || skip {
		return nil
	}
	d := liberty.NewTable(base.Slews, base.Loads)
	for i, row := range base.Values {
		for j, v := range row {
			d.Values[i][j] = 0.1 * math.Abs(v) * rng.NormFloat64()
		}
	}
	return d
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
// liberty.Table.Shift of every table, or share the base cell for an
// all-zero draw.
func shiftedLibraryCP(t *testing.T, nl *netlist.Netlist, fx deltaFixture, w []liberty.DeltaWeights) float64 {
	t.Helper()
	vnl := nl.Clone()
	vlib := *fx.lib
	vlib.Cells = make(map[string]*liberty.CellTiming, len(nl.Insts))
	for k, in := range vnl.Insts {
		ct := *fx.lib.Cells[in.Cell]
		if w[k] != (liberty.DeltaWeights{}) {
			ds := fx.deltas[in.Cell]
			ct.Arcs = slices.Clone(ct.Arcs)
			for ai := range ct.Arcs {
				a := &ct.Arcs[ai]
				for e := liberty.Rise; e <= liberty.Fall; e++ {
					a.Delay[e] = a.Delay[e].Shift(&ds[ai].Delay, e, &w[k])
					a.OutSlew[e] = a.OutSlew[e].Shift(&ds[ai].OutSlew, e, &w[k])
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
// without tables, nil delta tables, all-zero and floor-hitting draws),
// with samples timed concurrently on shared bindings.
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
			db, err := bt.BindDeltas(fx.lib, fx.deltas)
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

// TestDeltaBindingRejectsMisalignedInputs: a cell without delta tables
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
	short := maps.Clone(fx.deltas)
	short["INV_X1"] = short["INV_X1"][:len(short["INV_X1"])-1]
	if _, err := bt.BindDeltas(fx.lib, short); err == nil {
		t.Error("bound a cell with a missing delta arc")
	}
	db, err := bt.BindDeltas(fx.lib, fx.deltas)
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
		db, err := bt.BindDeltas(fx.lib, fx.deltas)
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
