package gatesim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/cells"
	"ageguard/internal/char"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/sta"
	"ageguard/internal/units"
)

func testLib(t testing.TB, s aging.Scenario) *liberty.Library {
	t.Helper()
	lib, err := char.CachedConfig().Characterize(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func xorNetlist() *netlist.Netlist {
	nl := netlist.New("x")
	nl.Inputs = []string{"a", "b"}
	nl.Outputs = []string{"y"}
	nl.AddInst("g", "XOR2_X1", map[string]string{"A": "a", "B": "b", "Z": "y"})
	return nl
}

func TestSimCombinational(t *testing.T) {
	sim, err := New(xorNetlist())
	if err != nil {
		t.Fatal(err)
	}
	out := sim.Eval(map[string]uint64{"a": 0b0101, "b": 0b0011})
	if out["y"]&0xf != 0b0110 {
		t.Errorf("xor = %04b", out["y"]&0xf)
	}
}

func TestSimAnnotatedCells(t *testing.T) {
	nl := xorNetlist()
	nl.Insts[0].Cell = "XOR2_X1_0.4_0.6"
	sim, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	out := sim.Eval(map[string]uint64{"a": 0b1100, "b": 0b1010})
	if out["y"]&0xf != 0b0110 {
		t.Errorf("annotated xor = %04b", out["y"]&0xf)
	}
}

func registered() *netlist.Netlist {
	nl := netlist.New("reg")
	nl.Inputs = []string{"a"}
	nl.Outputs = []string{"q"}
	nl.AddInst("inv", "INV_X1", map[string]string{"A": "a", "ZN": "d"})
	nl.AddInst("r", "DFF_X1", map[string]string{"D": "d", "CK": netlist.ClockNet, "Q": "q"})
	return nl
}

func TestSimSequentialStep(t *testing.T) {
	sim, err := New(registered())
	if err != nil {
		t.Fatal(err)
	}
	out := sim.Step(map[string]uint64{"a": 0})
	if out["q"]&1 != 1 {
		t.Errorf("q after first edge = %b, want 1 (inverted 0)", out["q"]&1)
	}
	out = sim.Step(map[string]uint64{"a": ^uint64(0)})
	if out["q"]&1 != 0 {
		t.Errorf("q = %b, want 0", out["q"]&1)
	}
}

func TestActivities(t *testing.T) {
	sim, err := New(xorNetlist())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	prob := sim.Activities(func(int) map[string]uint64 {
		return map[string]uint64{"a": rng.Uint64(), "b": rng.Uint64()}
	}, 200)
	for _, net := range []string{"a", "b", "y"} {
		if math.Abs(prob[net]-0.5) > 0.05 {
			t.Errorf("P(%s=1) = %v, want ~0.5 under random stimulus", net, prob[net])
		}
	}
}

func TestActivitiesBiased(t *testing.T) {
	// Constant-zero input: XOR output equals b.
	sim, _ := New(xorNetlist())
	rng := rand.New(rand.NewSource(2))
	prob := sim.Activities(func(int) map[string]uint64 {
		return map[string]uint64{"a": 0, "b": rng.Uint64() & rng.Uint64()} // P(b)~0.25
	}, 400)
	if prob["a"] != 0 {
		t.Errorf("P(a) = %v, want 0", prob["a"])
	}
	if math.Abs(prob["b"]-0.25) > 0.05 {
		t.Errorf("P(b) = %v, want ~0.25", prob["b"])
	}
	if math.Abs(prob["y"]-prob["b"]) > 1e-9 {
		t.Errorf("P(y) = %v, want = P(b)", prob["y"])
	}
}

func TestDeriveLambdas(t *testing.T) {
	nl := xorNetlist()
	prob := map[string]float64{"a": 0.2, "b": 0.6}
	l, err := DeriveLambdas(nl, prob)
	if err != nil {
		t.Fatal(err)
	}
	g := l["g"]
	if math.Abs(g.N-0.4) > 1e-9 || math.Abs(g.P-0.6) > 1e-9 {
		t.Errorf("lambdas = %+v, want N=0.4 P=0.6", g)
	}
	// Complementarity invariant of static CMOS (paper Sec. 4.2).
	if math.Abs(g.P+g.N-1) > 1e-9 {
		t.Error("lambdaP + lambdaN != 1")
	}
}

// timedChain builds a registered chain of n inverters for timing-error
// experiments.
func timedChain(t *testing.T, n int, lib *liberty.Library) (*netlist.Netlist, *sta.Result) {
	t.Helper()
	nl := netlist.New("chain")
	nl.Inputs = []string{"a"}
	nl.Outputs = []string{"q"}
	nl.AddInst("rin", "DFF_X1", map[string]string{"D": "a", "CK": netlist.ClockNet, "Q": "w0"})
	prev := "w0"
	for i := 0; i < n; i++ {
		out := "w" + string(rune('1'+i))
		nl.AddInst("i"+string(rune('0'+i)), "INV_X1", map[string]string{"A": prev, "ZN": out})
		prev = out
	}
	nl.AddInst("rout", "DFF_X1", map[string]string{"D": prev, "CK": netlist.ClockNet, "Q": "q"})
	res, err := sta.Analyze(context.Background(), nl, lib, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return nl, res
}

func TestTimedCorrectAtRelaxedClock(t *testing.T) {
	lib := testLib(t, aging.Fresh())
	nl, res := timedChain(t, 4, lib) // even #inverters: q = a, 2 cycles later
	ts, err := NewTimed(nl, lib, res)
	if err != nil {
		t.Fatal(err)
	}
	period := res.CP * 1.2 // comfortably meets timing
	seqIn := []bool{true, false, true, true, false, false, true, false}
	var got []bool
	for _, v := range seqIn {
		out := ts.Cycle(map[string]bool{"a": v}, period)
		got = append(got, out["q"])
	}
	// Latency 2: got[k] should equal seqIn[k-2].
	for k := 2; k < len(seqIn); k++ {
		if got[k] != seqIn[k-2] {
			t.Errorf("cycle %d: q = %v, want %v", k, got[k], seqIn[k-2])
		}
	}
}

func TestTimedErrorsAtOverClock(t *testing.T) {
	lib := testLib(t, aging.Fresh())
	nl, res := timedChain(t, 4, lib)
	ts, err := NewTimed(nl, lib, res)
	if err != nil {
		t.Fatal(err)
	}
	// Clock far below the path delay: the chain output cannot reach the
	// capture register in time, so captured values must be wrong for at
	// least some cycles of an alternating pattern.
	period := res.CP * 0.3
	var errors int
	var seqIn []bool
	for k := 0; k < 16; k++ {
		seqIn = append(seqIn, k%2 == 0)
	}
	var got []bool
	for _, v := range seqIn {
		out := ts.Cycle(map[string]bool{"a": v}, period)
		got = append(got, out["q"])
	}
	for k := 2; k < len(seqIn); k++ {
		if got[k] != seqIn[k-2] {
			errors++
		}
	}
	if errors == 0 {
		t.Error("over-clocked chain produced no timing errors")
	}
}

func TestTimedAgedSlowerThanFresh(t *testing.T) {
	// With a period between the fresh and aged path delays, the fresh
	// netlist samples correctly while the aged one fails.
	fresh := testLib(t, aging.Fresh())
	aged := testLib(t, aging.WorstCase(10))
	nl, resF := timedChain(t, 6, fresh)
	resA, err := sta.Analyze(context.Background(), nl, aged, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if resA.CP <= resF.CP {
		t.Fatalf("aged CP %s <= fresh %s", units.PsString(resA.CP), units.PsString(resF.CP))
	}
	period := (resF.CP + resA.CP) / 2
	run := func(lib *liberty.Library, res *sta.Result) int {
		ts, err := NewTimed(nl, lib, res)
		if err != nil {
			t.Fatal(err)
		}
		miss := 0
		var got []bool
		var in []bool
		for k := 0; k < 20; k++ {
			v := k%2 == 0
			in = append(in, v)
			out := ts.Cycle(map[string]bool{"a": v}, period)
			got = append(got, out["q"])
		}
		for k := 2; k < len(in); k++ {
			if got[k] != in[k-2] {
				miss++
			}
		}
		return miss
	}
	if m := run(fresh, resF); m != 0 {
		t.Errorf("fresh design missed %d captures at its own speed", m)
	}
	if m := run(aged, resA); m == 0 {
		t.Error("aged design met timing at a period below its CP")
	}
}

func TestCatalogLookup(t *testing.T) {
	ci, ok := CatalogLookup("NAND2_X1")
	if !ok || ci.Output != "ZN" || len(ci.Inputs) != 2 {
		t.Fatalf("CatalogLookup = %+v %v", ci, ok)
	}
	ci, ok = CatalogLookup("NAND2_X1_0.4_0.6")
	if !ok || ci.Output != "ZN" {
		t.Fatal("annotated lookup failed")
	}
	if _, ok := CatalogLookup("NOPE_X9"); ok {
		t.Error("unknown cell accepted")
	}
}

func TestLambdasForConstantCell(t *testing.T) {
	// A zero-input tie cell used to divide by len(inputs) == 0 and emit
	// NaN duty cycles into the aging scenarios. Stress follows the tied
	// output level instead: tie-high means full nMOS stress, tie-low full
	// pMOS stress.
	inst := func(net string) *netlist.Inst {
		return &netlist.Inst{Name: "t", Cell: "TIE", Pins: map[string]string{"Z": net}}
	}
	prob := map[string]float64{"one": 1, "zero": 0}
	high := lambdasFor(&cells.Cell{Name: "TIEH_X1", Output: "Z"}, inst("one"), prob)
	if math.IsNaN(high.P) || math.IsNaN(high.N) {
		t.Fatalf("tie-high lambdas are NaN: %+v", high)
	}
	if high.N != 1 || high.P != 0 {
		t.Errorf("tie-high lambdas = %+v, want N=1 P=0", high)
	}
	low := lambdasFor(&cells.Cell{Name: "TIEL_X1", Output: "Z"}, inst("zero"), prob)
	if low.N != 0 || low.P != 1 {
		t.Errorf("tie-low lambdas = %+v, want N=0 P=1", low)
	}
}

func TestAnnotatedScenariosRejectNaN(t *testing.T) {
	// Even if a NaN duty cycle reaches annotation, scenario validation
	// refuses to characterize it.
	if err := aging.WorstCase(10).WithLambda(math.NaN(), 0.5).Validate(); err == nil {
		t.Error("Validate accepted a NaN duty cycle")
	}
}
