package sta

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"ageguard/internal/aging"
	"ageguard/internal/char"
	"ageguard/internal/conc"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
	"ageguard/internal/units"
)

// TestConfigFillDefaults pins the filled defaults to the values the doc
// comments on Config promise, so comments and code cannot drift apart
// silently again (they did once: the comments claimed 1.5fF/0.25fF/0.12fF
// while fill() applied 4fF/2fF/0.5fF).
func TestConfigFillDefaults(t *testing.T) {
	var c Config
	c.fill()
	want := Config{
		InputSlew:  20 * units.Ps,
		ClockSlew:  20 * units.Ps,
		OutputLoad: 4 * units.FF,
		WireCap:    2 * units.FF,
		WireCapFan: 0.5 * units.FF,
	}
	if c != want {
		t.Errorf("fill() = %+v, want %+v", c, want)
	}
	// Explicit values survive fill untouched.
	c = Config{InputSlew: 1 * units.Ps, ClockSlew: 2 * units.Ps,
		OutputLoad: 3 * units.FF, WireCap: 4 * units.FF, WireCapFan: 5 * units.FF}
	want = c
	c.fill()
	if c != want {
		t.Errorf("fill() overwrote explicit values: %+v, want %+v", c, want)
	}
}

// gateKind describes one combinational cell footprint usable by the
// random netlist generator.
type gateKind struct {
	base   string
	inputs []string
	output string
	drives []int
}

var gateKinds = []gateKind{
	{"INV", []string{"A"}, "ZN", []int{1, 2, 4, 8}},
	{"BUF", []string{"A"}, "Z", []int{1, 2, 4, 8}},
	{"NAND2", []string{"A1", "A2"}, "ZN", []int{1, 2, 4}},
	{"NOR2", []string{"A1", "A2"}, "ZN", []int{1, 2, 4}},
	{"AND2", []string{"A1", "A2"}, "Z", []int{1, 2, 4}},
	{"OR2", []string{"A1", "A2"}, "Z", []int{1, 2, 4}},
	{"XOR2", []string{"A", "B"}, "Z", []int{1, 2, 4}},
	{"AOI21", []string{"A1", "A2", "B"}, "ZN", []int{1, 2, 4}},
	{"MUX2", []string{"A", "B", "S"}, "Z", []int{1, 2, 4}},
}

// randNetlist builds a random registered DAG with nGates combinational
// gates of mixed kinds and drives. Construction is topological (gate
// inputs are drawn from already-driven nets), so the result always
// levelizes.
func randNetlist(rng *rand.Rand, nGates int) *netlist.Netlist {
	nl := netlist.New(fmt.Sprintf("rand%d", nGates))
	var pool []string
	for i := 0; i < 3; i++ {
		pi := fmt.Sprintf("pi%d", i)
		nl.Inputs = append(nl.Inputs, pi)
		pool = append(pool, pi)
	}
	for i := 0; i < 2; i++ {
		q := fmt.Sprintf("r%d", i)
		nl.AddInst(fmt.Sprintf("rin%d", i), "DFF_X1", map[string]string{
			"D": pool[rng.Intn(len(pool))], "CK": netlist.ClockNet, "Q": q})
		pool = append(pool, q)
	}
	for g := 0; g < nGates; g++ {
		k := gateKinds[rng.Intn(len(gateKinds))]
		pins := map[string]string{}
		for _, in := range k.inputs {
			pins[in] = pool[rng.Intn(len(pool))]
		}
		out := fmt.Sprintf("n%d", g)
		pins[k.output] = out
		cell := fmt.Sprintf("%s_X%d", k.base, k.drives[rng.Intn(len(k.drives))])
		nl.AddInst(fmt.Sprintf("g%d", g), cell, pins)
		pool = append(pool, out)
	}
	for i := 0; i < 2; i++ {
		q := fmt.Sprintf("cq%d", i)
		nl.AddInst(fmt.Sprintf("cap%d", i), "DFF_X1", map[string]string{
			"D": pool[len(pool)-1-rng.Intn(4)], "CK": netlist.ClockNet, "Q": q})
	}
	// Primary outputs: the deepest net plus a couple of random picks
	// (distinct), so both PO and register endpoints exist.
	nl.Outputs = []string{pool[len(pool)-1]}
	for i := 0; i < 2; i++ {
		cand := pool[rng.Intn(len(pool))]
		dup := false
		for _, o := range nl.Outputs {
			dup = dup || o == cand
		}
		if !dup {
			nl.Outputs = append(nl.Outputs, cand)
		}
	}
	return nl
}

// mustEqualResults fails unless a and b are deeply (bit-for-bit) equal.
func mustEqualResults(t *testing.T, ctxt string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		if got.CP != want.CP {
			t.Fatalf("%s: CP %v != reference %v", ctxt, got.CP, want.CP)
		}
		for net, w := range want.Arrival {
			if g := got.Arrival[net]; g != w {
				t.Fatalf("%s: arrival[%s] %v != reference %v", ctxt, net, g, w)
			}
		}
		t.Fatalf("%s: results differ (beyond CP/arrivals — slews, loads, slacks or path)", ctxt)
	}
}

// TestAnalyzeContextMatchesReference locks the compiled one-shot engine to
// the straight-line reference implementation, bit for bit, across
// structured and random netlists and both fresh and aged libraries.
func TestAnalyzeContextMatchesReference(t *testing.T) {
	libs := []*liberty.Library{lib(t, aging.Fresh()), lib(t, aging.WorstCase(10))}
	rng := rand.New(rand.NewSource(7))
	nls := []*netlist.Netlist{chain(2), chain(6), randNetlist(rng, 40), randNetlist(rng, 150)}
	for _, l := range libs {
		for _, nl := range nls {
			got, err := Analyze(context.Background(), nl, l, Config{})
			if err != nil {
				t.Fatalf("%s/%s: %v", nl.Name, l.Name, err)
			}
			want, err := analyzeReference(nl, l, Config{})
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, nl.Name+"/"+l.Name, got, want)
		}
	}
	// Non-default config too (the synthesis threading depends on it).
	cfg := Config{OutputLoad: 12 * units.FF, WireCap: 1 * units.FF, InputSlew: 35 * units.Ps}
	got, err := Analyze(context.Background(), nls[3], libs[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := analyzeReference(nls[3], libs[0], cfg)
	mustEqualResults(t, "nondefault-cfg", got, want)
}

// TestShuffledNetlistMatchesReference: the compiled engine orders
// instances by levelization but sums sink loads and scans register
// endpoints in n.Insts order, like the reference. On netlists whose
// n.Insts order is shuffled, so that neither order follows from the
// other, Analyze and TopPaths must still match the reference bit for bit.
func TestShuffledNetlistMatchesReference(t *testing.T) {
	libs := []*liberty.Library{lib(t, aging.Fresh()), lib(t, aging.WorstCase(10))}
	rng := rand.New(rand.NewSource(13))
	ctx := context.Background()
	for _, size := range []int{60, 400} {
		nl := randNetlist(rng, size)
		rng.Shuffle(len(nl.Insts), func(i, j int) { nl.Insts[i], nl.Insts[j] = nl.Insts[j], nl.Insts[i] })
		for _, l := range libs {
			what := nl.Name + "/" + l.Name
			got, err := Analyze(ctx, nl, l, Config{})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want, err := analyzeReference(nl, l, Config{})
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, what, got, want)
			paths, err := TopPaths(ctx, nl, l, Config{}, -1)
			if err != nil {
				t.Fatal(err)
			}
			wantPaths, err := topPathsReference(nl, l, Config{}, -1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(paths, wantPaths) {
				t.Fatalf("%s: TopPaths differs from the reference retrace", what)
			}
		}
	}
}

// variantCells returns the drive variants of in's current cell present in
// lib, excluding the current cell itself.
func variantCells(l *liberty.Library, cur string) []string {
	base := l.MustCell(cur).Base
	var out []string
	for _, d := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("%s_X%d", base, d)
		if _, ok := l.Cell(name); ok && name != cur {
			out = append(out, name)
		}
	}
	return out
}

// TestIncrementalSwapBitIdentical is the differential property test the
// tentpole hangs on: after every randomized footprint-preserving cell
// swap (single and batched, including undo), the incremental engine's
// result must be bit-identical to a fresh reference analysis of the
// mutated netlist. Run under -race in tier-1.
func TestIncrementalSwapBitIdentical(t *testing.T) {
	l := lib(t, aging.WorstCase(10))
	cfg := Config{OutputLoad: 6 * units.FF}
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := randNetlist(rng, 60+rng.Intn(120))
		a, err := NewAnalyzer(ctx, nl, l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string) {
			t.Helper()
			want, err := analyzeReference(nl, l, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: reference: %v", seed, what, err)
			}
			if a.CP() != want.CP {
				t.Fatalf("seed %d %s: CP() %v != reference %v", seed, what, a.CP(), want.CP)
			}
			mustEqualResults(t, fmt.Sprintf("seed %d %s", seed, what), a.Result(), want)
		}
		check("initial")
		insts := nl.Insts
		for it := 0; it < 30; it++ {
			// Draw 1–3 distinct instances with available variants.
			var swaps []CellSwap
			seen := map[string]bool{}
			for len(swaps) < 1+rng.Intn(3) {
				in := insts[rng.Intn(len(insts))]
				vars := variantCells(l, in.Cell)
				if seen[in.Name] || len(vars) == 0 {
					continue
				}
				seen[in.Name] = true
				swaps = append(swaps, CellSwap{Inst: in.Name, Cell: vars[rng.Intn(len(vars))]})
			}
			undo, err := a.Swap(ctx, swaps...)
			if err != nil {
				t.Fatalf("seed %d it %d: swap: %v", seed, it, err)
			}
			check(fmt.Sprintf("it %d after swap %v", it, swaps))
			if it%3 == 0 {
				// Reject the move: undo must restore the previous state
				// bit-for-bit too.
				if _, err := a.Swap(ctx, undo...); err != nil {
					t.Fatalf("seed %d it %d: undo: %v", seed, it, err)
				}
				check(fmt.Sprintf("it %d after undo", it))
			}
		}
	}
}

// TestSwapValidation: unknown instances or cells must error without
// disturbing the engine state.
func TestSwapValidation(t *testing.T) {
	l := lib(t, aging.Fresh())
	nl := chain(3)
	ctx := context.Background()
	a, err := NewAnalyzer(ctx, nl, l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cp := a.CP()
	if _, err := a.Swap(ctx, CellSwap{Inst: "nope", Cell: "INV_X2"}); err == nil {
		t.Error("unknown instance not rejected")
	}
	if _, err := a.Swap(ctx, CellSwap{Inst: "inv0", Cell: "INV_X99"}); err == nil {
		t.Error("unknown cell not rejected")
	}
	if a.CP() != cp {
		t.Error("failed swap changed engine state")
	}
	if nl.Insts[1].Cell != "INV_X1" {
		t.Error("failed swap mutated the netlist")
	}
}

// TestSwapUndoSameInstanceTwice: when one call swaps the same instance
// twice, the returned undo must restore the original cell, not the
// intermediate one, and the result must come back bit-identical.
func TestSwapUndoSameInstanceTwice(t *testing.T) {
	l := lib(t, aging.Fresh())
	nl := chain(3)
	ctx := context.Background()
	a, err := NewAnalyzer(ctx, nl, l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := a.Result()
	undo, err := a.Swap(ctx, CellSwap{Inst: "inv1", Cell: "INV_X2"}, CellSwap{Inst: "inv1", Cell: "INV_X4"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Swap(ctx, undo...); err != nil {
		t.Fatal(err)
	}
	if got := nl.Insts[2].Cell; got != "INV_X1" {
		t.Fatalf("inv1 after undo = %s, want INV_X1", got)
	}
	mustEqualResults(t, "after undo", a.Result(), before)
}

// TestSwapMetrics checks the obs wiring: queries and cone sizes are
// recorded.
func TestSwapMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	l := lib(t, aging.Fresh())
	a, err := NewAnalyzer(ctx, chain(6), l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range []string{"INV_X4", "INV_X1", "INV_X8"} {
		if _, err := a.Swap(ctx, CellSwap{Inst: "inv2", Cell: cell}); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	if got := reg.Counter("sta.incremental.queries").Value(); got != 3 {
		t.Errorf("queries = %d, want 3", got)
	}
	if got := reg.Histogram("sta.incremental.cone_size").Stat().Count; got != 3 {
		t.Errorf("cone_size observations = %d, want 3", got)
	}
}

// gridCPs times nl under every library with one BatchTimer, fanning the
// libraries out over workers the way core's duty-cycle grid does.
func gridCPs(ctx context.Context, nl *netlist.Netlist, libs []*liberty.Library, workers int) ([]float64, error) {
	bt, err := NewBatchTimer(ctx, nl, libs[0], Config{})
	if err != nil {
		return nil, err
	}
	cps := make([]float64, len(libs))
	err = conc.ParFor(ctx, workers, len(libs), func(i int) error {
		cp, err := bt.CP(ctx, libs[i])
		cps[i] = cp
		return err
	})
	return cps, err
}

// TestBatchTimerMatchesReference locks the multi-library fan-out to
// per-library reference analyses, in order, bit for bit.
func TestBatchTimerMatchesReference(t *testing.T) {
	libs := []*liberty.Library{
		lib(t, aging.Fresh()),
		lib(t, aging.BalanceCase(10)),
		lib(t, aging.WorstCase(10)),
		lib(t, aging.Fresh()), // repeats are legal
	}
	rng := rand.New(rand.NewSource(11))
	nl := randNetlist(rng, 120)
	for _, workers := range []int{1, 4} {
		got, err := gridCPs(context.Background(), nl, libs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range libs {
			want, err := analyzeReference(nl, l, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want.CP {
				t.Fatalf("workers=%d leg %d (%s): CP %v != reference %v", workers, i, l.Name, got[i], want.CP)
			}
		}
	}
}

// TestBatchTimerCancellation: canceling mid-grid must stop the remaining
// legs, return an error matching conc.ErrCanceled, and leave no worker
// goroutines behind.
func TestBatchTimerCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(obs.With(context.Background(), reg))
	defer cancel()
	l := lib(t, aging.Fresh())
	rng := rand.New(rand.NewSource(3))
	nl := randNetlist(rng, 2500)
	libs := make([]*liberty.Library, 600)
	for i := range libs {
		libs[i] = l
	}
	before := runtime.NumGoroutine()
	go func() {
		// Cancel as soon as the first leg has started analysing.
		for reg.Counter("sta.analyses").Value() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	_, err := gridCPs(ctx, nl, libs, 4)
	if !errors.Is(err, conc.ErrCanceled) {
		t.Fatalf("err = %v, want conc.ErrCanceled", err)
	}
	// Every worker goroutine must have exited before the call returned;
	// allow a short grace period for the canceler goroutine itself.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d > %d before", n, before)
	}
	// A pre-canceled context fails fast with the same sentinel, both at
	// construction and per library.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := gridCPs(done, nl, libs, 4); !errors.Is(err, conc.ErrCanceled) {
		t.Errorf("pre-canceled err = %v, want conc.ErrCanceled", err)
	}
	bt, err := NewBatchTimer(context.Background(), nl, l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bt.CP(done, l); !errors.Is(err, conc.ErrCanceled) {
		t.Errorf("pre-canceled CP err = %v, want conc.ErrCanceled", err)
	}
}

// TestPreCanceledMatchesErrCanceled: every entry point of the package
// fails fast under a canceled context with an error matching
// conc.ErrCanceled, so a caller (cli.Diagnose) reports an interrupted run
// as interrupted, not as a failure.
func TestPreCanceledMatchesErrCanceled(t *testing.T) {
	l := lib(t, aging.Fresh())
	nl := chain(3)
	ctx := context.Background()
	a, err := NewAnalyzer(ctx, nl, l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewBatchTimer(ctx, nl, l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fx := newDeltaFixture(rand.New(rand.NewSource(1)), l)
	db, err := bt.BindDeltas(fx.lib, fx.shifts)
	if err != nil {
		t.Fatal(err)
	}
	worst := a.Result().Worst
	done, cancel := context.WithCancel(ctx)
	cancel()
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Analyze", func() error { _, err := Analyze(done, nl, l, Config{}); return err }},
		{"NewAnalyzer", func() error { _, err := NewAnalyzer(done, nl, l, Config{}); return err }},
		{"Analyzer.Swap", func() error { _, err := a.Swap(done, CellSwap{Inst: "inv1", Cell: "INV_X2"}); return err }},
		{"PathDelayUnder", func() error { _, err := PathDelayUnder(done, nl, worst, l, Config{}); return err }},
		{"TopPaths", func() error { _, err := TopPaths(done, nl, l, Config{}, 3); return err }},
		{"NewBatchTimer", func() error { _, err := NewBatchTimer(done, nl, l, Config{}); return err }},
		{"BatchTimer.CP", func() error { _, err := bt.CP(done, l); return err }},
		{"BatchTimer.TopPaths", func() error { _, err := bt.TopPaths(done, l, 3); return err }},
		{"DeltaBinding.CP", func() error {
			_, err := db.CP(done, make([]liberty.DeltaWeights, len(nl.Insts)))
			return err
		}},
	} {
		if err := c.call(); !errors.Is(err, conc.ErrCanceled) {
			t.Errorf("%s under a canceled context: err = %v, want conc.ErrCanceled", c.name, err)
		}
	}
	if nl.Insts[2].Cell != "INV_X1" {
		t.Error("a canceled Swap changed the netlist")
	}
}

// ownAxes returns a copy of l in which the named cells' tables sit on
// axes of their own, shared with no other cell: each arc's delay tables
// on a rescaled copy of the library axes, its output-slew tables on
// shorter axes of another range, and every arc on different ones, so a
// lookup that trusted a position located on another table's axis would
// read the wrong grid points. The entries are the original tables'
// values at the new axis points.
func ownAxes(l *liberty.Library, cells ...string) *liberty.Library {
	out := *l
	out.Cells = maps.Clone(l.Cells)
	regrid := func(tb *liberty.Table, slews, loads []float64) *liberty.Table {
		if tb == nil {
			return nil
		}
		g := liberty.NewTable(slews, loads)
		for i, s := range slews {
			for j, c := range loads {
				g.Values[i][j] = tb.At(s, c)
			}
		}
		return g
	}
	scaled := func(axis []float64, k float64) []float64 {
		out := make([]float64, len(axis))
		for i, v := range axis {
			out[i] = v * k
		}
		return out
	}
	for _, name := range cells {
		ct := *l.Cells[name]
		ct.Arcs = slices.Clone(ct.Arcs)
		for ai := range ct.Arcs {
			a := &ct.Arcs[ai]
			k := 1 + 0.15*float64(ai+1)
			dSlews, dLoads := scaled(l.Slews, 1/k), scaled(l.Loads, k)
			sSlews := char.LogAxis(2*units.Ps*k, 1200*units.Ps, 5)
			sLoads := char.LogAxis(0.3*units.FF, 25*units.FF/k, 4)
			for e := liberty.Rise; e <= liberty.Fall; e++ {
				a.Delay[e] = regrid(a.Delay[e], dSlews, dLoads)
				a.OutSlew[e] = regrid(a.OutSlew[e], sSlews, sLoads)
			}
		}
		out.Cells[name] = &ct
	}
	return &out
}

// TestTablesOnOwnAxesMatchReference: a lookup reuses a net's load
// position and an arc edge's slew position only on the axis they were
// located on, and locates the value again on any other. On libraries
// where several cells' tables sit on axes of their own (ownAxes), the
// analyzer, TopPaths and Monte Carlo samples match the references bit
// for bit.
func TestTablesOnOwnAxesMatchReference(t *testing.T) {
	cells := []string{"INV_X1", "NAND2_X1", "AOI21_X1", "MUX2_X1", "DFF_X1"}
	libs := []*liberty.Library{ownAxes(lib(t, aging.Fresh()), cells...), ownAxes(lib(t, aging.WorstCase(10)), cells...)}
	rng := rand.New(rand.NewSource(29))
	ctx := context.Background()
	for _, size := range []int{40, 200} {
		nl := randNetlist(rng, size)
		for _, l := range libs {
			what := nl.Name + "/" + l.Name
			a, err := NewAnalyzer(ctx, nl.Clone(), l, Config{})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want, err := analyzeReference(nl, l, Config{})
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, what, a.Result(), want)
			paths, err := TopPaths(ctx, nl, l, Config{}, -1)
			if err != nil {
				t.Fatal(err)
			}
			wantPaths, err := topPathsReference(nl, l, Config{}, -1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(paths, wantPaths) {
				t.Fatalf("%s: TopPaths differs from the reference retrace", what)
			}
		}
		fx := newDeltaFixture(rng, libs[1])
		bt, err := NewBatchTimer(ctx, nl, fx.lib, Config{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := bt.BindDeltas(fx.lib, fx.shifts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			w := sampleWeights(rng, len(nl.Insts))
			got, err := db.CP(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			if want := shiftedLibraryCP(t, nl, fx, w); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s sample %d: DeltaBinding.CP %v != shifted-library CP %v", nl.Name, i, got, want)
			}
		}
	}
}
