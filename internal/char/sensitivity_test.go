package char

import (
	"context"
	"math"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/device"
	"ageguard/internal/liberty"
)

// sensConfig is a reduced-grid config over two cells with a test-local
// cache so the five sensitivity characterizations stay cheap.
func sensConfig(t *testing.T) Config {
	t.Helper()
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1", "NAND2_X1"}
	cfg.CacheDir = t.TempDir()
	return cfg
}

func TestSensitivitiesFiniteAndAligned(t *testing.T) {
	cfg := sensConfig(t)
	sn, err := cfg.Sensitivities(context.Background(), aging.WorstCase(10))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Base == nil || len(sn.Base.Cells) != 2 {
		t.Fatalf("base library = %+v", sn.Base)
	}
	for name, ct := range sn.Base.Cells {
		sens, ok := sn.arcs[name]
		if !ok || len(sens) != len(ct.Arcs) {
			t.Fatalf("%s: %d sensitivity arcs for %d base arcs", name, len(sens), len(ct.Arcs))
		}
		for ai := range ct.Arcs {
			for p := 0; p < numSensParams; p++ {
				for e := 0; e < 2; e++ {
					base, s := ct.Arcs[ai].Delay[e], sens[ai].Delay[p][e]
					if (base == nil) != (s == nil) {
						t.Fatalf("%s arc %d param %d edge %d: nil mismatch", name, ai, p, e)
					}
					if s == nil {
						continue
					}
					for i, row := range s.Values {
						for j, v := range row {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("%s arc %d param %d: non-finite dD/dp at [%d][%d]", name, ai, p, i, j)
							}
						}
					}
				}
			}
		}
	}

	// A raised Vth slows the cell, so the Vth sensitivities must be
	// positive on average over the grid (either polarity drives at least
	// half of each cell's arcs).
	for name, sens := range sn.arcs {
		var sum float64
		for ai := range sens {
			for _, p := range []int{sensVthP, sensVthN} {
				for e := 0; e < 2; e++ {
					if tb := sens[ai].Delay[p][e]; tb != nil {
						for _, row := range tb.Values {
							for _, v := range row {
								sum += v
							}
						}
					}
				}
			}
		}
		if sum <= 0 {
			t.Errorf("%s: mean dDelay/dVth = %v, want positive", name, sum)
		}
	}
}

func TestSampleLibraryZeroDrawSharesBase(t *testing.T) {
	cfg := sensConfig(t)
	sn, err := cfg.Sensitivities(context.Background(), aging.Fresh())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := sn.SampleLibrary("zero", []InstDraw{
		{Inst: "u1", Cell: "INV_X1"},
		{Inst: "u2", Cell: "NAND2_X1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(lib.Cells))
	}
	v, ok := lib.Cells[VariantCell("INV_X1", "u1")]
	if !ok {
		t.Fatalf("variant cell missing; have %v", lib.Cells)
	}
	base := sn.Base.Cells["INV_X1"]
	// A zero draw must share the nominal tables outright, not copy them:
	// same Arcs backing array (the cell is immutable), same table pointers.
	if &v.Arcs[0] != &base.Arcs[0] {
		t.Error("zero draw copied the Arcs slice instead of sharing it")
	}
	if v.Arcs[0].Delay[liberty.Rise] != base.Arcs[0].Delay[liberty.Rise] {
		t.Error("zero draw did not share the base delay table pointer")
	}
	if v.PinCap["A"] != base.PinCap["A"] {
		t.Error("pin caps not shared")
	}
}

func TestSampleLibraryAppliesDelta(t *testing.T) {
	cfg := sensConfig(t)
	sn, err := cfg.Sensitivities(context.Background(), aging.Fresh())
	if err != nil {
		t.Fatal(err)
	}
	pb := device.Perturb{DVthP: 0.02, DVthN: 0.02}
	lib, err := sn.SampleLibrary("slow", []InstDraw{{Inst: "u1", Cell: "INV_X1", Pb: pb}})
	if err != nil {
		t.Fatal(err)
	}
	v := lib.Cells[VariantCell("INV_X1", "u1")]
	base := sn.Base.Cells["INV_X1"]
	var dsum float64
	for ai := range base.Arcs {
		for e := 0; e < 2; e++ {
			bt, vt := base.Arcs[ai].Delay[e], v.Arcs[ai].Delay[e]
			if (bt == nil) != (vt == nil) {
				t.Fatalf("arc %d edge %d: nil mismatch", ai, e)
			}
			if bt == nil {
				continue
			}
			for i, row := range vt.Values {
				for j, val := range row {
					if val < 0 || math.IsNaN(val) {
						t.Fatalf("arc %d edge %d [%d][%d]: bad delay %v", ai, e, i, j, val)
					}
					dsum += val - bt.Values[i][j]
				}
			}
		}
	}
	if dsum <= 0 {
		t.Errorf("raised-Vth instance not slower: total delta %v", dsum)
	}
	// The base library must be untouched.
	if sn.Base.Cells["INV_X1"] != base {
		t.Error("SampleLibrary replaced the base cell")
	}

	if _, err := sn.SampleLibrary("bad", []InstDraw{{Inst: "u9", Cell: "NOPE_X1"}}); err == nil {
		t.Error("unknown cell accepted")
	}
}

// TestCharacterizeCellPerturbedMatchesSensitivityStep: characterizing
// one cell perturbed by exactly the finite-difference step, as core's
// exact Monte Carlo reference does (Perturb and Cells set, no cache),
// must land on the perturbed library the sensitivities were derived
// from, so the first-order reconstruction base + step*S reproduces it.
func TestCharacterizeCellPerturbedMatchesSensitivityStep(t *testing.T) {
	cfg := sensConfig(t)
	ctx := context.Background()
	s := aging.Fresh()
	sn, err := cfg.Sensitivities(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Perturb = device.Perturb{DVthP: SensStepVth}
	pcfg.Cells = []string{"INV_X1"}
	pcfg.CacheDir = ""
	lib, err := pcfg.Characterize(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	ct := lib.Cells["INV_X1"]
	base := sn.Base.Cells["INV_X1"]
	sens := sn.arcs["INV_X1"]
	for ai := range base.Arcs {
		for e := 0; e < 2; e++ {
			bt, st := base.Arcs[ai].Delay[e], sens[ai].Delay[sensVthP][e]
			if bt == nil {
				continue
			}
			got := ct.Arcs[ai].Delay[e]
			for i, row := range bt.Values {
				for j, v := range row {
					want := v + SensStepVth*st.Values[i][j]
					if math.Abs(got.Values[i][j]-want) > 1e-9*math.Abs(want)+1e-18 {
						t.Fatalf("arc %d edge %d [%d][%d]: exact %v vs reconstructed %v",
							ai, e, i, j, got.Values[i][j], want)
					}
				}
			}
		}
	}
}

func TestDiffTableAndApplyDelta(t *testing.T) {
	base := liberty.NewTable([]float64{1, 2}, []float64{1, 2})
	pert := liberty.NewTable([]float64{1, 2}, []float64{1, 2})
	for i := range base.Values {
		for j := range base.Values[i] {
			base.Values[i][j] = 10
			pert.Values[i][j] = 12
		}
	}
	d := diffTable(pert, base, 0.5)
	if d.Values[0][0] != 4 {
		t.Errorf("diffTable = %v, want 4", d.Values[0][0])
	}
	if diffTable(nil, base, 1) != nil || diffTable(pert, nil, 1) != nil {
		t.Error("nil input did not propagate")
	}

	// SampleLibrary's shift (liberty.Table.Shift) on the sensitivity
	// tables: weighted sum, floored at zero, nil base stays nil.
	var sens [numSensParams][2]*liberty.Table
	sens[sensVthP][liberty.Rise] = d
	w := Weights(device.Perturb{DVthP: -10})
	out := base.Shift(&sens, liberty.Rise, &w)
	if out.Values[0][0] != 0 {
		t.Errorf("shift floor: %v, want 0", out.Values[0][0])
	}
	w = Weights(device.Perturb{DVthP: 0.5})
	out = base.Shift(&sens, liberty.Rise, &w)
	if out.Values[1][1] != 12 {
		t.Errorf("shift = %v, want 12", out.Values[1][1])
	}
	if out = base.Shift(&sens, liberty.Fall, &w); out.Values[1][1] != 10 {
		t.Errorf("shift with only nil deltas = %v, want 10", out.Values[1][1])
	}
	var none *liberty.Table
	if none.Shift(&sens, liberty.Rise, &w) != nil {
		t.Error("nil base did not propagate")
	}
}

// TestSensitivitiesAroundMatchesSensitivities: sensitivities built
// around a separately loaded base library equal Sensitivities' in every
// bit of every delta table, and share that base. A base that is not
// this config's library for the scenario is rejected: one for another
// scenario, and one on another grid, whose tables would not pair grid
// point for grid point with the perturbed ones (a larger grid would
// index past them).
func TestSensitivitiesAroundMatchesSensitivities(t *testing.T) {
	cfg := sensConfig(t)
	ctx := context.Background()
	s := aging.WorstCase(10)
	want, err := cfg.Sensitivities(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cfg.Characterize(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cfg.SensitivitiesAround(ctx, s, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base != base {
		t.Error("SensitivitiesAround did not keep the given base")
	}
	if len(got.arcs) != len(want.arcs) {
		t.Fatalf("%d cells with deltas, want %d", len(got.arcs), len(want.arcs))
	}
	tables := 0
	for name, wa := range want.arcs {
		ga := got.arcs[name]
		if len(ga) != len(wa) {
			t.Fatalf("%s: %d arcs, want %d", name, len(ga), len(wa))
		}
		for ai := range wa {
			for p := 0; p < numSensParams; p++ {
				for e := 0; e < 2; e++ {
					for _, pair := range [][2]*liberty.Table{
						{ga[ai].Delay[p][e], wa[ai].Delay[p][e]},
						{ga[ai].OutSlew[p][e], wa[ai].OutSlew[p][e]},
					} {
						g, w := pair[0], pair[1]
						if (g == nil) != (w == nil) {
							t.Fatalf("%s arc %d param %d edge %d: nil mismatch", name, ai, p, e)
						}
						if w == nil {
							continue
						}
						tables++
						for i, row := range w.Values {
							for j, v := range row {
								if math.Float64bits(g.Values[i][j]) != math.Float64bits(v) {
									t.Fatalf("%s arc %d param %d edge %d [%d][%d]: %v, want %v",
										name, ai, p, e, i, j, g.Values[i][j], v)
								}
							}
						}
					}
				}
			}
		}
	}
	if tables == 0 {
		t.Fatal("no delta tables compared")
	}

	fresh, err := cfg.Characterize(ctx, aging.Fresh())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.SensitivitiesAround(ctx, s, fresh); err == nil {
		t.Error("the fresh library was accepted as the worst-case base")
	}
	wide := cfg
	wide.Slews = LogAxis(cfg.Slews[0], cfg.Slews[len(cfg.Slews)-1], len(cfg.Slews)+1)
	wide.Loads = LogAxis(cfg.Loads[0], cfg.Loads[len(cfg.Loads)-1], len(cfg.Loads)+1)
	other, err := wide.Characterize(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if other.Name != base.Name {
		t.Fatalf("the grid is not in the library name (%s vs %s): the test needs a base that differs only in its grid", other.Name, base.Name)
	}
	if _, err := cfg.SensitivitiesAround(ctx, s, other); err == nil {
		t.Error("a base on a 4x4 grid was accepted for a 3x3 config")
	}
	if _, err := cfg.SensitivitiesAround(ctx, s, nil); err == nil {
		t.Error("a nil base was accepted")
	}
}
