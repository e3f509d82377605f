package char

import (
	"context"
	"math"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/cells"
	"ageguard/internal/liberty"
	"ageguard/internal/units"
)

func TestLogAxis(t *testing.T) {
	a := LogAxis(5*units.Ps, 947*units.Ps, 7)
	if len(a) != 7 {
		t.Fatalf("len = %d", len(a))
	}
	if a[0] != 5*units.Ps || a[6] != 947*units.Ps {
		t.Errorf("endpoints = %v %v", a[0], a[6])
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatal("axis not ascending")
		}
	}
	// Log spacing: constant ratio.
	r0 := a[1] / a[0]
	r5 := a[6] / a[5]
	if math.Abs(r0/r5-1) > 1e-6 {
		t.Errorf("ratios differ: %v vs %v", r0, r5)
	}
	if one := LogAxis(3, 9, 1); len(one) != 1 || one[0] != 3 {
		t.Errorf("n=1 axis = %v", one)
	}
}

// catalogCell returns the catalog cell of that name.
func catalogCell(t *testing.T, name string) *cells.Cell {
	t.Helper()
	c, ok := cells.ByName(name)
	if !ok {
		t.Fatalf("no catalog cell %q", name)
	}
	return c
}

func TestDiscoverArcs(t *testing.T) {
	nand := catalogCell(t, "NAND2_X1")
	arcs := DiscoverArcs(nand)
	if len(arcs) != 2 {
		t.Fatalf("NAND2 arcs = %d, want 2", len(arcs))
	}
	for _, a := range arcs {
		if a.Sense != liberty.NegativeUnate {
			t.Errorf("NAND2 arc %s sense = %v, want negative", a.Pin, a.Sense)
		}
	}
	// NAND2 A1 arc: side input A2 must be 1 (non-controlling).
	if arcs[0].Pin != "A1" || arcs[0].When != 2 {
		t.Errorf("NAND2 A1 arc = %+v", arcs[0])
	}

	xor := catalogCell(t, "XOR2_X1")
	xa := DiscoverArcs(xor)
	if len(xa) != 4 {
		t.Fatalf("XOR2 arcs = %d, want 4 (2 pins x 2 senses)", len(xa))
	}

	mux := catalogCell(t, "MUX2_X1")
	ma := DiscoverArcs(mux)
	// A (1 arc), B (1 arc), S (2 arcs).
	if len(ma) != 4 {
		t.Fatalf("MUX2 arcs = %d, want 4", len(ma))
	}

	inv := catalogCell(t, "INV_X1")
	ia := DiscoverArcs(inv)
	if len(ia) != 1 || ia[0].Sense != liberty.NegativeUnate {
		t.Fatalf("INV arcs = %+v", ia)
	}
}

// charSubset characterizes a small cell subset on the reduced grid.
func charSubset(t *testing.T, names []string, s aging.Scenario) *liberty.Library {
	t.Helper()
	cfg := TestConfig()
	cfg.Cells = names
	lib, err := cfg.Characterize(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestCharacterizeInverterFresh(t *testing.T) {
	lib := charSubset(t, []string{"INV_X1"}, aging.Fresh())
	ct := lib.MustCell("INV_X1")
	if len(ct.Arcs) != 1 {
		t.Fatalf("arcs = %d", len(ct.Arcs))
	}
	a := ct.Arcs[0]
	for _, e := range []liberty.Edge{liberty.Rise, liberty.Fall} {
		d := a.Delay[e]
		if d == nil {
			t.Fatalf("missing %v delay table", e)
		}
		// Delay must increase with load at fixed (smallest) slew.
		row := d.Values[0]
		for j := 1; j < len(row); j++ {
			if row[j] <= row[j-1] {
				t.Errorf("%v delay not increasing with load: %v", e, row)
			}
		}
		// All delays plausible for an inverter. Slightly negative values
		// are legitimate at very slow input ramps (the output crosses 50%
		// before the input midpoint), as in real NLDM libraries.
		for i, r := range d.Values {
			for _, v := range r {
				if v < -200*units.Ps || v > 500*units.Ps {
					t.Errorf("%v delay %s out of range", e, units.PsString(v))
				}
				if i == 0 && v <= 0 {
					t.Errorf("%v delay %s at fastest slew should be positive", e, units.PsString(v))
				}
			}
		}
		// Output slew grows with load.
		s0 := a.OutSlew[e].Values[0]
		if s0[len(s0)-1] <= s0[0] {
			t.Errorf("%v out slew not increasing with load: %v", e, s0)
		}
	}
}

func TestAgedNANDDelayShape(t *testing.T) {
	// The paper's Fig. 1(a): NAND delay increase under worst-case aging
	// grows with input slew and shrinks with output load.
	fresh := charSubset(t, []string{"NAND2_X1"}, aging.Fresh())
	aged := charSubset(t, []string{"NAND2_X1"}, aging.WorstCase(10))
	fArc := fresh.MustCell("NAND2_X1").Arcs[0]
	aArc := aged.MustCell("NAND2_X1").Arcs[0]
	// Output rise (input fall): the pull-up fights the still-on nMOS.
	e := liberty.Rise
	incr := func(i, j int) float64 {
		f := fArc.Delay[e].Values[i][j]
		return (aArc.Delay[e].Values[i][j] - f) / f * 100
	}
	ni, nj := len(fresh.Slews)-1, len(fresh.Loads)-1
	slowSlewSmallLoad := incr(ni, 0)
	fastSlewSmallLoad := incr(0, 0)
	slowSlewBigLoad := incr(ni, nj)
	if slowSlewSmallLoad <= fastSlewSmallLoad {
		t.Errorf("aging impact should grow with slew: slow=%v%% fast=%v%%",
			slowSlewSmallLoad, fastSlewSmallLoad)
	}
	if slowSlewBigLoad >= slowSlewSmallLoad {
		t.Errorf("aging impact should shrink with load: big=%v%% small=%v%%",
			slowSlewBigLoad, slowSlewSmallLoad)
	}
	if fastSlewSmallLoad <= 0 {
		t.Errorf("NAND should age positive at fast slew: %v%%", fastSlewSmallLoad)
	}
}

func TestAgedNORFallImproves(t *testing.T) {
	// The paper's Fig. 1(b): under aging the NOR's fall delay *improves*
	// at large input slews because the weakened pMOS pull-up opposes the
	// pull-down less during the overlap.
	fresh := charSubset(t, []string{"NOR2_X1"}, aging.Fresh())
	aged := charSubset(t, []string{"NOR2_X1"}, aging.WorstCase(10))
	fArc := fresh.MustCell("NOR2_X1").Arcs[0]
	aArc := aged.MustCell("NOR2_X1").Arcs[0]
	ni := len(fresh.Slews) - 1
	f := fArc.Delay[liberty.Fall].Values[ni][0]
	a := aArc.Delay[liberty.Fall].Values[ni][0]
	if a >= f {
		t.Errorf("NOR fall delay at slow slew should improve with aging: fresh=%s aged=%s",
			units.PsString(f), units.PsString(a))
	}
	// But its rise delay (through the aged pMOS stack) must degrade.
	fr := fArc.Delay[liberty.Rise].Values[0][0]
	ar := aArc.Delay[liberty.Rise].Values[0][0]
	if ar <= fr {
		t.Errorf("NOR rise delay should degrade: fresh=%s aged=%s",
			units.PsString(fr), units.PsString(ar))
	}
}

func TestVthOnlyUnderestimates(t *testing.T) {
	// Fig. 5(a) mechanism: ignoring mu degradation underestimates delay.
	full := charSubset(t, []string{"INV_X1"}, aging.WorstCase(10))
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.VthOnly = true
	vth, err := cfg.Characterize(context.Background(), aging.WorstCase(10))
	if err != nil {
		t.Fatal(err)
	}
	fArc := full.MustCell("INV_X1").Arcs[0]
	vArc := vth.MustCell("INV_X1").Arcs[0]
	fd := fArc.Delay[liberty.Rise].Values[0][1]
	vd := vArc.Delay[liberty.Rise].Values[0][1]
	if vd >= fd {
		t.Errorf("Vth-only rise delay %s should be below full-degradation %s",
			units.PsString(vd), units.PsString(fd))
	}
}

func TestDFFClockArc(t *testing.T) {
	lib := charSubset(t, []string{"DFF_X1"}, aging.Fresh())
	ct := lib.MustCell("DFF_X1")
	if !ct.Seq || ct.SetupPS <= 0 {
		t.Fatal("DFF metadata missing")
	}
	a := ct.Arcs[0]
	if a.Pin != "CK" {
		t.Fatalf("clock arc pin = %s", a.Pin)
	}
	for _, e := range []liberty.Edge{liberty.Rise, liberty.Fall} {
		d := a.Delay[e].Values[0][0]
		if d <= 0 || d > 300*units.Ps {
			t.Errorf("CK->Q %v delay %s implausible", e, units.PsString(d))
		}
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = dir
	s := aging.WorstCase(10)
	lib1, err := cfg.Characterize(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// Second call must hit the cache and return identical values.
	lib2, err := cfg.Characterize(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	v1 := lib1.MustCell("INV_X1").Arcs[0].Delay[liberty.Rise].Values
	v2 := lib2.MustCell("INV_X1").Arcs[0].Delay[liberty.Rise].Values
	for i := range v1 {
		for j := range v1[i] {
			if math.Abs(v1[i][j]-v2[i][j]) > 1e-18 {
				t.Fatalf("cache mismatch at %d,%d", i, j)
			}
		}
	}
	// Vth-only must use a distinct cache entry.
	cfg2 := cfg
	cfg2.VthOnly = true
	if cfg.cachePath(s) == cfg2.cachePath(s) {
		t.Error("VthOnly shares cache path with full model")
	}
}

func TestMultiStageAndCell(t *testing.T) {
	// AND2 = NAND2 + output inverter: positive unate, internal slope real.
	lib := charSubset(t, []string{"AND2_X1"}, aging.Fresh())
	a := lib.MustCell("AND2_X1").Arcs[0]
	if a.Sense != liberty.PositiveUnate {
		t.Errorf("AND2 sense = %v", a.Sense)
	}
	d := a.Delay[liberty.Rise].Values[0][0]
	inv := charSubset(t, []string{"INV_X1"}, aging.Fresh())
	di := inv.MustCell("INV_X1").Arcs[0].Delay[liberty.Rise].Values[0][0]
	if d <= di {
		t.Errorf("AND2 (two stage) delay %s should exceed INV %s",
			units.PsString(d), units.PsString(di))
	}
}
