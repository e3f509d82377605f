package char

import (
	"context"
	"maps"
	"math"
	"reflect"
	"slices"
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

// stepShifted returns st shifted by one finite-difference step along
// parameter p: to first order the perturbed library's table, floored at
// zero like every shifted table.
func stepShifted(st *liberty.ShiftTable, p int) *liberty.Table {
	var w liberty.DeltaWeights
	w[p] = sensStepSize[p]
	return st.Shifted(&w)
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
		sh, ok := sn.arcs[name]
		if !ok || len(sh) != len(ct.Arcs) {
			t.Fatalf("%s: %d shifted arcs for %d base arcs", name, len(sh), len(ct.Arcs))
		}
		// A raised Vth slows the cell, so the Vth sensitivities must be
		// positive on average over the grid (either polarity drives at
		// least half of each cell's arcs). An entry the zero floor
		// reaches, in the base or shifted, says nothing about the slope.
		var vthSum float64
		for ai := range ct.Arcs {
			for e := 0; e < 2; e++ {
				base := ct.Arcs[ai].Delay[e]
				for p := 0; p < numSensParams; p++ {
					s := stepShifted(&sh[ai].Delay[e], p)
					if (base == nil) != (s == nil) {
						t.Fatalf("%s arc %d param %d edge %d: nil mismatch", name, ai, p, e)
					}
					if s == nil {
						continue
					}
					for i, row := range s.Values {
						for j, v := range row {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("%s arc %d param %d: non-finite shifted delay at [%d][%d]", name, ai, p, i, j)
							}
							if b := base.Values[i][j]; (p == sensVthP || p == sensVthN) && b > 0 && v > 0 {
								vthSum += (v - b) / sensStepSize[p]
							}
						}
					}
				}
			}
		}
		if vthSum <= 0 {
			t.Errorf("%s: mean dDelay/dVth = %v, want positive", name, vthSum)
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
	sh := sn.arcs["INV_X1"]
	for ai := range base.Arcs {
		for e := 0; e < 2; e++ {
			rec := stepShifted(&sh[ai].Delay[e], sensVthP)
			if rec == nil {
				continue
			}
			got := ct.Arcs[ai].Delay[e]
			for i, row := range rec.Values {
				for j, r := range row {
					// The reconstruction is floored at zero, so the
					// exact entry is floored for the comparison too.
					want := max(got.Values[i][j], 0)
					if math.Abs(r-want) > 1e-9*math.Abs(want)+1e-18 {
						t.Fatalf("arc %d edge %d [%d][%d]: exact %v vs reconstructed %v",
							ai, e, i, j, got.Values[i][j], r)
					}
				}
			}
		}
	}
}

// TestInterleavedSensitivityByHand: a table interleaved with four
// perturbed ones holds the quotients (q − b)/step, which Weights shift
// along the parameter each perturbation moves: a weighted sum floored at
// zero, and nil for a nil base.
func TestInterleavedSensitivityByHand(t *testing.T) {
	table := func(v float64) *liberty.Table {
		tb := liberty.NewTable([]float64{1, 2}, []float64{1, 2})
		for _, row := range tb.Values {
			for j := range row {
				row[j] = v
			}
		}
		return tb
	}
	base := table(10)
	q := [numSensParams]*liberty.Table{table(12), table(11), table(10), table(9)}
	step := [numSensParams]float64{0.5, 1, 1, -0.5}
	st := base.Interleave(q, step) // sensitivities (12-10)/0.5, (11-10)/1, 0, (9-10)/-0.5 = 4, 1, 0, 2
	for _, c := range []struct {
		pb   device.Perturb
		want float64
	}{
		{device.Perturb{DVthP: 0.5}, 12},
		{device.Perturb{DVthP: -10}, 0}, // floored
		{device.Perturb{DVthN: 2}, 12},
		{device.Perturb{DMuP: 3}, 10},
		{device.Perturb{DMuN: -0.5}, 9},
		{device.Perturb{DVthP: 0.25, DVthN: 1, DMuP: 7, DMuN: 0.5}, 13},
	} {
		w := Weights(c.pb)
		if got := st.Shifted(&w).Values[1][1]; got != c.want {
			t.Errorf("%+v: shifted = %v, want %v", c.pb, got, c.want)
		}
		if got := st.At(&w, 1.5, 1.5); got != c.want {
			t.Errorf("%+v: At = %v, want %v", c.pb, got, c.want)
		}
	}
	var none *liberty.Table
	st = none.Interleave(q, step)
	if st.Shifted(&liberty.DeltaWeights{1}) != nil {
		t.Error("nil base did not propagate")
	}
}

// TestSensitivitiesAroundRejectsOtherTables: every interleaved table has
// a sensitivity to each parameter, so the perturbed libraries must have
// exactly the base's tables. SensitivitiesAround rejects a base that
// lacks a table the perturbed libraries have, and a perturbed library
// (here a cache entry with one table removed) that lacks a table the
// base has.
func TestSensitivitiesAroundRejectsOtherTables(t *testing.T) {
	cfg := sensConfig(t)
	ctx := context.Background()
	s := aging.WorstCase(10)
	base, err := cfg.Characterize(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.SensitivitiesAround(ctx, s, base); err != nil {
		t.Fatal(err)
	}
	without := func(l *liberty.Library) *liberty.Library {
		out := *l
		out.Cells = maps.Clone(l.Cells)
		ct := *l.Cells["NAND2_X1"]
		ct.Arcs = slices.Clone(ct.Arcs)
		if ct.Arcs[1].OutSlew[liberty.Fall] == nil {
			t.Fatal("NAND2_X1's second arc has no fall output-slew table to remove")
		}
		ct.Arcs[1].OutSlew[liberty.Fall] = nil
		out.Cells[ct.Name] = &ct
		return &out
	}
	if _, err := cfg.SensitivitiesAround(ctx, s, without(base)); err == nil {
		t.Error("accepted a base without a table the perturbed libraries have")
	}
	pcfg := cfg
	pcfg.Perturb = cfg.Perturb.Add(sensSteps[sensMuN])
	pert, err := pcfg.Characterize(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcfg.storeCache(s, without(pert)); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.SensitivitiesAround(ctx, s, base); err == nil {
		t.Error("accepted a perturbed library without a table the base has")
	}
}

// TestSensitivitiesAroundMatchesSensitivities: sensitivities built
// around a separately loaded base library equal Sensitivities' in every
// interleaved table, also bit for bit in every table shifted one step
// along each parameter, and share that base. A base that is not
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
	if !reflect.DeepEqual(got.arcs, want.arcs) {
		t.Fatal("the interleaved tables differ")
	}
	tables := 0
	for name, wa := range want.arcs {
		ga := got.arcs[name]
		for ai := range wa {
			for e := 0; e < 2; e++ {
				for _, pair := range [][2]*liberty.ShiftTable{
					{&ga[ai].Delay[e], &wa[ai].Delay[e]},
					{&ga[ai].OutSlew[e], &wa[ai].OutSlew[e]},
				} {
					for p := 0; p < numSensParams; p++ {
						g, w := stepShifted(pair[0], p), stepShifted(pair[1], p)
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
		t.Fatal("no shifted tables compared")
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
