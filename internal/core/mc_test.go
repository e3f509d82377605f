package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/char"
	"ageguard/internal/device"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/sta"
	"ageguard/internal/units"
)

// mcCacheDir is the characterization cache shared by every MC test; it
// outlives individual tests (unlike t.TempDir) and TestMain removes it.
var mcCacheDir string

func TestMain(m *testing.M) {
	code := m.Run()
	if mcCacheDir != "" {
		os.RemoveAll(mcCacheDir)
	}
	os.Exit(code)
}

// mcNetlist builds the small registered pipeline the Monte Carlo tests
// time: two capture flops feeding a NAND/INV cone into a launch flop.
func mcNetlist() *netlist.Netlist {
	nl := netlist.New("mcchain")
	nl.Inputs = []string{"a", "b"}
	nl.Outputs = []string{"y"}
	nl.AddInst("rin", "DFF_X1", map[string]string{"D": "a", "CK": netlist.ClockNet, "Q": "w0"})
	nl.AddInst("rb", "DFF_X1", map[string]string{"D": "b", "CK": netlist.ClockNet, "Q": "w1"})
	nl.AddInst("g0", "NAND2_X1", map[string]string{"A1": "w0", "A2": "w1", "ZN": "w2"})
	nl.AddInst("g1", "INV_X1", map[string]string{"A": "w2", "ZN": "w3"})
	nl.AddInst("g2", "INV_X1", map[string]string{"A": "w3", "ZN": "w4"})
	nl.AddInst("rout", "DFF_X1", map[string]string{"D": "w4", "CK": netlist.ClockNet, "Q": "y"})
	return nl
}

var (
	mcFlowOnce sync.Once
	mcFlowVal  Flow
)

// mcFlow returns a flow with a reduced characterization grid restricted
// to the cells mcNetlist uses, sharing one cache directory across every
// MC test so the ten sensitivity characterizations run once.
func mcFlow(t *testing.T) Flow {
	t.Helper()
	mcFlowOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ageguard-mc-test-*")
		if err != nil {
			t.Fatal(err)
		}
		mcCacheDir = dir
		cfg := char.TestConfig()
		cfg.Cells = []string{"DFF_X1", "NAND2_X1", "INV_X1"}
		cfg.CacheDir = dir
		mcFlowVal = New(WithCharConfig(cfg), WithLifetime(10))
	})
	return mcFlowVal
}

func TestMCGuardbandDeterministicAcrossParallelism(t *testing.T) {
	f := mcFlow(t)
	ctx := context.Background()
	nl := mcNetlist()
	s := aging.WorstCase(10)
	mc := MCConfig{Samples: 24, Seed: 7, Variation: device.DefaultVariation()}

	mc.Parallelism = 1
	serial, err := f.MCGuardbandNetlist(ctx, "mcchain", nl, s, mc)
	if err != nil {
		t.Fatal(err)
	}
	mc.Parallelism = 8
	par, err := f.MCGuardbandNetlist(ctx, "mcchain", nl, s, mc)
	if err != nil {
		t.Fatal(err)
	}

	for i := range serial.Guardbands {
		if serial.Guardbands[i] != par.Guardbands[i] {
			t.Fatalf("sample %d: serial %v != parallel %v",
				i, serial.Guardbands[i], par.Guardbands[i])
		}
	}
	if serial.MeanS != par.MeanS || serial.StdS != par.StdS ||
		serial.P50S != par.P50S || serial.P95S != par.P95S ||
		serial.P999S != par.P999S || serial.MinS != par.MinS ||
		serial.MaxS != par.MaxS {
		t.Errorf("statistics differ across parallelism:\nserial %+v\npar    %+v", serial, par)
	}

	// The distribution is genuinely spread and ordered sanely.
	if serial.StdS <= 0 {
		t.Error("default variation produced a degenerate distribution")
	}
	if !(serial.MinS <= serial.P50S && serial.P50S <= serial.P95S &&
		serial.P95S <= serial.P999S && serial.P999S <= serial.MaxS) {
		t.Errorf("quantiles out of order: %+v", serial)
	}
	total := 0
	for _, c := range serial.Hist.Counts {
		total += c
	}
	if total != serial.Samples {
		t.Errorf("histogram holds %d of %d samples", total, serial.Samples)
	}
}

func TestMCGuardbandZeroVariationIsNominal(t *testing.T) {
	f := mcFlow(t)
	res, err := f.MCGuardbandNetlist(context.Background(), "mcchain", mcNetlist(),
		aging.WorstCase(10), MCConfig{Samples: 4, Seed: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	nominal := res.AgedCPS - res.FreshCPS
	if nominal <= 0 {
		t.Fatalf("nominal guardband %v not positive", nominal)
	}
	for i, g := range res.Guardbands {
		if g != nominal {
			t.Errorf("sample %d: zero-variation guardband %v != nominal %v", i, g, nominal)
		}
	}
	if res.StdS != 0 || res.MinS != nominal || res.MaxS != nominal {
		t.Errorf("zero-variation statistics not degenerate: %+v", res)
	}
}

func TestMCGuardbandSensitivityMatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPICE re-characterization in -short mode")
	}
	f := mcFlow(t)
	ctx := context.Background()
	s := aging.WorstCase(10)
	mc := MCConfig{Samples: 3, Seed: 3, Variation: device.DefaultVariation()}

	sens, err := f.MCGuardbandNetlist(ctx, "mcchain", mcNetlist(), s, mc)
	if err != nil {
		t.Fatal(err)
	}
	exact, exactCPs := exactGuardbands(t, f, mcNetlist(), s, mc)

	// First-order sensitivity truncation error, measured against the full
	// per-sample SPICE re-characterization, must stay a small fraction of
	// the nominal guardband on every sample.
	nominal := sens.AgedCPS - sens.FreshCPS
	for i := range exact {
		diff := math.Abs(sens.Guardbands[i] - exact[i])
		if diff > 0.05*nominal+0.05*units.Ps {
			t.Errorf("sample %d: sensitivity %v vs exact %v (diff %s, nominal %s)",
				i, sens.Guardbands[i], exact[i],
				units.PsString(diff), units.PsString(nominal))
		}
	}

	// The guardband check above cannot see the sensitivities' scale: the
	// same draws shift the fresh and the aged timing, so the shifts
	// cancel in each guardband. Each critical path's own shift from its
	// nominal value must match the exact shift.
	nominalCPs := [2]float64{sens.FreshCPS, sens.AgedCPS}
	sensCPs := sensitivityCPs(t, f, mcNetlist(), s, mc)
	for i := range exactCPs {
		for j, name := range []string{"fresh", "aged"} {
			want := exactCPs[i][j] - nominalCPs[j]
			got := sensCPs[i][j] - nominalCPs[j]
			t.Logf("sample %d %s: sensitivity shift %s, exact %s, relative error %.3g",
				i, name, units.PsString(got), units.PsString(want), math.Abs(got-want)/math.Abs(want))
			if math.Abs(got-want) > mcShiftTolerance*math.Abs(want) {
				t.Errorf("sample %d %s: sensitivity shift %s vs exact %s (relative error %.3g, bound %g)",
					i, name, units.PsString(got), units.PsString(want), math.Abs(got-want)/math.Abs(want), mcShiftTolerance)
			}
		}
	}
}

// mcShiftTolerance bounds the relative error of a sample's first-order
// critical-path shift against the exact (re-characterized) one. The six
// shifts TestMCGuardbandSensitivityMatchesExact checks are a few tenths
// of a picosecond, sums of per-instance shifts that partly cancel, so
// the truncation error is a sizeable fraction of them: 0.08 to 0.39 on
// amd64. Sensitivities twice too large read about 1, and so do ones a
// thousand times too small.
const mcShiftTolerance = 0.5

// sensitivityCPs times each sample's draws on the sensitivities, fresh
// and aged: the critical paths the sample loop of MCGuardbandTimer
// subtracts (sta.BatchTimer.BindDeltas and DeltaBinding.CP).
func sensitivityCPs(t *testing.T, f Flow, nl *netlist.Netlist, s aging.Scenario, mc MCConfig) [][2]float64 {
	t.Helper()
	ctx := context.Background()
	var dbs []*sta.DeltaBinding
	var bt *sta.BatchTimer
	for _, sc := range []aging.Scenario{aging.Fresh(), s} {
		sn, err := f.Char.Sensitivities(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if bt == nil {
			if bt, err = sta.NewBatchTimer(ctx, nl, sn.Base, f.STA); err != nil {
				t.Fatal(err)
			}
		}
		db, err := bt.BindDeltas(sn.Base, sn.Shifts())
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	cps := make([][2]float64, mc.Samples)
	w := make([]liberty.DeltaWeights, len(nl.Insts))
	for i := range cps {
		for k, inst := range bt.Insts() {
			w[k] = char.Weights(mc.Variation.Sample(mc.Seed, uint64(i), inst))
		}
		for j, db := range dbs {
			cp, err := db.CP(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			cps[i][j] = cp
		}
	}
	return cps
}

// exactGuardbands is the exact Monte Carlo reference: per sample it
// re-characterizes every instance's cell with the instance's full drawn
// perturbation through the SPICE sweep (char.Config.Characterize with
// Perturb and Cells set, no cache), fresh and aged, and times the
// instance-variant netlist (every instance on its own cell, named
// char.VariantCell) under the resulting libraries. It returns each
// sample's guardband and its fresh and aged critical paths.
func exactGuardbands(t *testing.T, f Flow, nl *netlist.Netlist, s aging.Scenario, mc MCConfig) ([]float64, [][2]float64) {
	t.Helper()
	ctx := context.Background()
	vnl := nl.Clone()
	for _, in := range vnl.Insts {
		in.Cell = char.VariantCell(in.Cell, in.Name)
	}
	gbs := make([]float64, mc.Samples)
	cps := make([][2]float64, mc.Samples)
	for i := range gbs {
		cp := &cps[i]
		for j, sc := range []aging.Scenario{aging.Fresh(), s} {
			lib := &liberty.Library{Name: fmt.Sprintf("mc_exact_%d_%d", j, i), Cells: map[string]*liberty.CellTiming{}}
			for _, in := range nl.Insts {
				cfg := f.Char
				cfg.Perturb = mc.Variation.Sample(mc.Seed, uint64(i), in.Name)
				cfg.Cells = []string{in.Cell}
				cfg.CacheDir = ""
				cl, err := cfg.Characterize(ctx, sc)
				if err != nil {
					t.Fatal(err)
				}
				ct := *cl.Cells[in.Cell]
				ct.Name = char.VariantCell(in.Cell, in.Name)
				lib.Cells[ct.Name] = &ct
			}
			var err error
			if cp[j], err = f.CP(ctx, vnl, lib); err != nil {
				t.Fatal(err)
			}
		}
		gbs[i] = cp[1] - cp[0]
	}
	return gbs, cps
}

// sampleLibraryGuardbands is the reference for MCGuardbandNetlist's
// sample loop: per sample and scenario it builds the instance-variant
// library (char.Sensitivity.SampleLibrary) and times it with
// sta.BatchTimer.CP on the instance-variant netlist.
func sampleLibraryGuardbands(t *testing.T, f Flow, nl *netlist.Netlist, s aging.Scenario, mc MCConfig) []float64 {
	t.Helper()
	ctx := context.Background()
	var sns []*char.Sensitivity
	for _, sc := range []aging.Scenario{aging.Fresh(), s} {
		sn, err := f.Char.Sensitivities(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		sns = append(sns, sn)
	}
	vnl := nl.Clone()
	insts := make([]char.InstDraw, len(vnl.Insts))
	for i, in := range vnl.Insts {
		insts[i] = char.InstDraw{Inst: in.Name, Cell: in.Cell}
		in.Cell = char.VariantCell(in.Cell, in.Name)
	}
	template, err := sns[0].SampleLibrary("mc_template", insts)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := sta.NewBatchTimer(ctx, vnl, template, f.STA)
	if err != nil {
		t.Fatal(err)
	}
	gbs := make([]float64, mc.Samples)
	for i := range gbs {
		draws := make([]char.InstDraw, len(insts))
		copy(draws, insts)
		for k := range draws {
			draws[k].Pb = mc.Variation.Sample(mc.Seed, uint64(i), draws[k].Inst)
		}
		var cp [2]float64
		for j, sn := range sns {
			lib, err := sn.SampleLibrary(fmt.Sprintf("mc_%d_%d", j, i), draws)
			if err != nil {
				t.Fatal(err)
			}
			if cp[j], err = bt.CP(ctx, lib); err != nil {
				t.Fatal(err)
			}
		}
		gbs[i] = cp[1] - cp[0]
	}
	return gbs
}

// reordered returns a copy of nl whose n.Insts run in reverse, so their
// order differs from the topological one.
func reordered(nl *netlist.Netlist) *netlist.Netlist {
	r := netlist.New(nl.Name + "_rev")
	r.Inputs, r.Outputs = nl.Inputs, nl.Outputs
	for k := len(nl.Insts) - 1; k >= 0; k-- {
		in := nl.Insts[k]
		r.AddInst(in.Name, in.Cell, in.Pins)
	}
	return r
}

// TestMCGuardbandMatchesSampleLibraryLoop: the guardbands timed straight
// from the sensitivity tables equal, bit for bit, the loop that built a
// library per sample, serially and in parallel, also on a netlist whose
// instance order is not topological (weights applied to the wrong
// instances would show there).
func TestMCGuardbandMatchesSampleLibraryLoop(t *testing.T) {
	f := mcFlow(t)
	ctx := context.Background()
	for _, nl := range []*netlist.Netlist{mcNetlist(), reordered(mcNetlist())} {
		for _, s := range []aging.Scenario{aging.WorstCase(10), aging.Fresh()} {
			mc := MCConfig{Samples: 16, Seed: 11, Variation: device.DefaultVariation()}
			want := sampleLibraryGuardbands(t, f, nl, s, mc)
			for _, par := range []int{1, 4} {
				mc.Parallelism = par
				res, err := f.MCGuardbandNetlist(ctx, nl.Name, nl, s, mc)
				if err != nil {
					t.Fatal(err)
				}
				for i, g := range res.Guardbands {
					if math.Float64bits(g) != math.Float64bits(want[i]) {
						t.Errorf("%s %s parallelism %d sample %d: guardband %v != per-sample-library %v",
							nl.Name, s, par, i, g, want[i])
					}
				}
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.95, 4.8}, {1, 5},
	}
	for _, c := range cases {
		if got := quantile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{42}, 0.5); got != 42 {
		t.Errorf("singleton quantile = %v", got)
	}
}

func TestMCHistogramDegenerate(t *testing.T) {
	h := histogram([]float64{7, 7, 7}, 4)
	if h.Counts[0] != 3 {
		t.Errorf("degenerate histogram = %+v, want all in bin 0", h)
	}
	if h.LoS != 7 || h.HiS != 7 {
		t.Errorf("degenerate bounds = %+v", h)
	}
}
