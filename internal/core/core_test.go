package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/internal/units"
)

func TestBenchmarkLookup(t *testing.T) {
	for _, name := range BenchmarkCircuits() {
		a, err := Benchmark(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.NumNodes() == 1+a.NumInputs() {
			t.Errorf("%s: empty network", name)
		}
	}
	if _, err := Benchmark("NOPE"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if len(BenchmarkCircuits()) != 7 {
		t.Error("paper evaluates 7 circuits")
	}
}

// TestNetlistCachePathExactScenario: netlists synthesized with libraries
// whose names round together — worst case at 10 and at 10.04 years, duty
// cycles 0.25/0.75 and 0.2/0.8 — are cached under distinct paths, so
// neither is read back as the other.
func TestNetlistCachePathExactScenario(t *testing.T) {
	f := Default()
	worst := aging.WorstCase(10)
	for _, pair := range [][2]aging.Scenario{
		{worst, aging.WorstCase(10.04)},
		{worst.WithLambda(0.25, 0.75), worst.WithLambda(0.2, 0.8)},
	} {
		var paths [2]string
		for i, s := range pair {
			lib := &liberty.Library{Name: "aged_y10.0_" + pair[0].Key(), Scenario: s}
			paths[i] = f.netlistCachePath("RISC-5P", lib)
		}
		if paths[0] == paths[1] {
			t.Errorf("%#v and %#v share netlist cache path %s", pair[0], pair[1], paths[0])
		}
	}
}

func TestDeltaPctGuard(t *testing.T) {
	if got := deltaPct(10*units.Ps, 11*units.Ps); math.Abs(got-10) > 1e-9 {
		t.Errorf("deltaPct = %v, want 10", got)
	}
	// Near-zero fresh delay must not explode.
	if got := deltaPct(0.01*units.Ps, 1*units.Ps); got > 100 {
		t.Errorf("guarded deltaPct = %v, want <= 100", got)
	}
}

func TestScaleFactorClamped(t *testing.T) {
	if f := scaleFactor(10*units.Ps, 12*units.Ps); math.Abs(f-1.2) > 1e-9 {
		t.Errorf("factor = %v, want 1.2", f)
	}
	if f := scaleFactor(-5*units.Ps, 100*units.Ps); f > 10 {
		t.Errorf("factor = %v, want clamped <= 10", f)
	}
	if f := scaleFactor(10*units.Ps, 0); f < 0.2 {
		t.Errorf("factor = %v, want clamped >= 0.2", f)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{-100, -5, 0, 5, 14.9, 15, 400, 1000}, -60, 400, 23)
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 8 {
		t.Errorf("histogram lost values: %v", h)
	}
	if h[0] == 0 {
		t.Error("below-range value not clamped into first bin")
	}
	if h[22] == 0 {
		t.Error("above-range value not clamped into last bin")
	}
}

func TestImprovedFraction(t *testing.T) {
	d := &Distribution{Multi: []float64{-1, -2, 3, 4}, Single: []float64{1, 2}}
	if f := d.ImprovedFractionMulti(); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("multi improved = %v", f)
	}
	if f := d.ImprovedFractionSingle(); f != 0 {
		t.Errorf("single improved = %v", f)
	}
}

func TestSingleOPCLibraryStructure(t *testing.T) {
	f := Default()
	fresh, err := f.FreshLibrary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	aged, err := f.WorstLibrary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	single := SingleOPCLibrary(fresh, aged)
	if len(single.Cells) != len(fresh.Cells) {
		t.Fatalf("cell count %d != %d", len(single.Cells), len(fresh.Cells))
	}
	// Every scaled arc delay must be fresh * constant factor; spot check:
	fc := fresh.MustCell("NAND2_X1")
	sc := single.MustCell("NAND2_X1")
	si := len(fresh.Slews) / 2
	want := sc.Arcs[0].Delay[liberty.Rise].Values[si][0] / fc.Arcs[0].Delay[liberty.Rise].Values[si][0]
	got := sc.Arcs[0].Delay[liberty.Rise].Values[0][3] / fc.Arcs[0].Delay[liberty.Rise].Values[0][3]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("non-uniform scaling: %v vs %v", got, want)
	}
	if want <= 1 {
		t.Errorf("NAND2 single-OPC factor = %v, want > 1", want)
	}
	// The original library must be untouched.
	if fresh.MustCell("NAND2_X1").Arcs[0].Delay[liberty.Rise].Values[0][0] !=
		fc.Arcs[0].Delay[liberty.Rise].Values[0][0] {
		t.Error("SingleOPCLibrary mutated its input")
	}
}

func TestAgingSurfaceShape(t *testing.T) {
	f := Default()
	s, err := f.AgingSurface(context.Background(), "NAND2_X1", liberty.Rise)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.DeltaPct) != len(s.Slews) || len(s.DeltaPct[0]) != len(s.Loads) {
		t.Fatal("surface dimensions wrong")
	}
	n := len(s.Slews) - 1
	// Paper Fig. 1(a): impact grows with slew at small load, and the
	// slow-slew/small-load corner far exceeds the nominal corner.
	if s.DeltaPct[n][0] <= s.DeltaPct[0][0] {
		t.Error("NAND aging should grow with input slew")
	}
	if s.DeltaPct[n][0] < 100 {
		t.Errorf("slow-slew corner = %v%%, expected >100%%", s.DeltaPct[n][0])
	}
	if s.Format() == "" {
		t.Error("empty Format")
	}
}

func TestLibraryVariants(t *testing.T) {
	f := Default()
	fresh, err := f.FreshLibrary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vth, err := f.VthOnlyLibrary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	worst, err := f.WorstLibrary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Vth-only aged delays must sit between fresh and fully aged.
	pick := func(l *liberty.Library) float64 {
		return l.MustCell("INV_X1").Arcs[0].Delay[liberty.Rise].Values[1][1]
	}
	df, dv, dw := pick(fresh), pick(vth), pick(worst)
	if !(df < dv && dv < dw) {
		t.Errorf("delay ordering wrong: fresh=%v vthonly=%v worst=%v", df, dv, dw)
	}
}

func TestCompleteLibraryScenarios(t *testing.T) {
	f := Default()
	scens := []aging.Scenario{
		aging.WorstCase(10).WithLambda(0.3, 0.7),
		aging.WorstCase(10).WithLambda(1, 1),
	}
	m, err := f.CompleteLibrary(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Cell("INV_X1_0.3_0.7"); !ok {
		t.Error("missing lambda-indexed cell")
	}
	if _, ok := m.Cell("INV_X1_1.0_1.0"); !ok {
		t.Error("missing worst-case cell")
	}
}

func TestGuardbandGridWorstAndFormat(t *testing.T) {
	g := &GuardbandGrid{
		Circuit: "DSP",
		FreshCP: 100 * units.Ps,
		Lambdas: []float64{0.0, 0.5, 1.0},
		AgedCP: [][]float64{
			{100 * units.Ps, 104 * units.Ps, 108 * units.Ps},
			{103 * units.Ps, 110 * units.Ps, 118 * units.Ps},
			{106 * units.Ps, 119 * units.Ps, 131 * units.Ps},
		},
	}
	if gb := g.Guardband(0, 0); gb != 0 {
		t.Errorf("Guardband(0,0) = %v, want 0", gb)
	}
	lp, ln, gb := g.Worst()
	if lp != 1.0 || ln != 1.0 {
		t.Errorf("Worst at lambdaP=%.1f lambdaN=%.1f, want 1.0/1.0", lp, ln)
	}
	if got, want := gb, 31*units.Ps; math.Abs(got-want) > 1e-18 {
		t.Errorf("worst guardband = %v, want %v", got, want)
	}
	s := g.Format()
	for _, want := range []string{"DSP", "lP\\lN", "worst 31.00ps at lambdaP=1.0 lambdaN=1.0"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format() missing %q:\n%s", want, s)
		}
	}
	if rows := strings.Count(s, "\n"); rows != 6 {
		t.Errorf("Format() has %d lines, want 6 (header, axis, 3 rows, worst):\n%s", rows, s)
	}
}
