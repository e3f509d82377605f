package sta

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/char"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/units"
)

func lib(t testing.TB, s aging.Scenario) *liberty.Library {
	t.Helper()
	cfg := char.CachedConfig()
	l, err := cfg.Characterize(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// chain builds a registered inverter chain of length n.
func chain(n int) *netlist.Netlist {
	nl := netlist.New("chain")
	nl.Inputs = []string{"a"}
	nl.Outputs = []string{"y"}
	nl.AddInst("rin", "DFF_X1", map[string]string{"D": "a", "CK": netlist.ClockNet, "Q": "w0"})
	prev := "w0"
	for i := 0; i < n; i++ {
		out := "w" + string(rune('1'+i))
		nl.AddInst("inv"+string(rune('0'+i)), "INV_X1", map[string]string{"A": prev, "ZN": out})
		prev = out
	}
	nl.AddInst("rout", "DFF_X1", map[string]string{"D": prev, "CK": netlist.ClockNet, "Q": "y"})
	return nl
}

func TestChainTiming(t *testing.T) {
	l := lib(t, aging.Fresh())
	r2, err := Analyze(context.Background(), chain(2), l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r6, err := Analyze(context.Background(), chain(6), l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r6.CP <= r2.CP {
		t.Errorf("longer chain not slower: %v vs %v", r6.CP, r2.CP)
	}
	// CP must include clk->Q + 2 inverters + setup: at least ~50ps, and
	// well under a nanosecond for a 2-inverter chain.
	if r2.CP < 40*units.Ps || r2.CP > 1*units.Ns {
		t.Errorf("chain2 CP = %s implausible", units.PsString(r2.CP))
	}
	// Path endpoints and steps.
	if r2.Worst.Endpoint != prevNet(2) {
		t.Errorf("endpoint = %s, want %s", r2.Worst.Endpoint, prevNet(2))
	}
	// Steps: clk->Q launch + 2 inverters = 3.
	if len(r2.Worst.Steps) != 3 {
		t.Errorf("steps = %d, want 3", len(r2.Worst.Steps))
	}
	if r2.Worst.Setup <= 0 {
		t.Error("setup not included at DFF endpoint")
	}
}

func prevNet(n int) string { return "w" + string(rune('1'+n-1)) }

func TestAgedSlower(t *testing.T) {
	fresh := lib(t, aging.Fresh())
	aged := lib(t, aging.WorstCase(10))
	nl := chain(6)
	rf, err := Analyze(context.Background(), nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Analyze(context.Background(), nl, aged, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.CP <= rf.CP {
		t.Errorf("aged CP %s not above fresh %s", units.PsString(ra.CP), units.PsString(rf.CP))
	}
	gb := (ra.CP - rf.CP) / rf.CP
	if gb > 0.5 {
		t.Errorf("guardband fraction %v implausibly large", gb)
	}
}

func TestLoadSlewAnnotations(t *testing.T) {
	l := lib(t, aging.Fresh())
	// Fanout tree: one inverter driving three.
	nl := netlist.New("fan")
	nl.Inputs = []string{"a"}
	nl.Outputs = []string{"y0", "y1", "y2"}
	nl.AddInst("drv", "INV_X1", map[string]string{"A": "a", "ZN": "m"})
	for i := 0; i < 3; i++ {
		s := string(rune('0' + i))
		nl.AddInst("l"+s, "INV_X2", map[string]string{"A": "m", "ZN": "y" + s})
	}
	res, err := Analyze(context.Background(), nl, l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Net m load: 3x INV_X2 pin caps + wire.
	pin := l.MustCell("INV_X2").PinCap["A"]
	if res.Load["m"] < 3*pin {
		t.Errorf("load of m = %s too small", units.FFString(res.Load["m"]))
	}
	if res.Slew["m"][liberty.Rise] <= 0 {
		t.Error("slew not annotated")
	}
	if res.Arrival["y0"][liberty.Fall] <= res.Arrival["m"][liberty.Rise] {
		t.Error("arrival must grow along the path")
	}
}

func TestPathDelayUnder(t *testing.T) {
	fresh := lib(t, aging.Fresh())
	aged := lib(t, aging.WorstCase(10))
	nl := chain(4)
	rf, err := Analyze(context.Background(), nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-evaluating the fresh critical path under the fresh library must
	// reproduce its delay.
	same, err := PathDelayUnder(context.Background(), nl, rf.Worst, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := same - rf.Worst.Delay; d > 1e-15 || d < -1e-15 {
		t.Errorf("self path delay %v != %v", same, rf.Worst.Delay)
	}
	// Under the aged library the same path must be slower.
	agedD, err := PathDelayUnder(context.Background(), nl, rf.Worst, aged, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if agedD <= rf.Worst.Delay {
		t.Error("aged path not slower")
	}
	// And it cannot exceed the full aged analysis (which maximizes over
	// all paths).
	ra, err := Analyze(context.Background(), nl, aged, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if agedD > ra.CP+1e-15 {
		t.Errorf("fixed-path delay %v above aged CP %v", agedD, ra.CP)
	}
}

// TestPathDelayUnderRejectsForeignNet: a step's ToNet is the output of
// the step's instance; a path naming another net is malformed.
func TestPathDelayUnderRejectsForeignNet(t *testing.T) {
	fresh := lib(t, aging.Fresh())
	nl := chain(4)
	res, err := Analyze(context.Background(), nl, fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Worst
	p.Steps = slices.Clone(p.Steps)
	last := len(p.Steps) - 1
	p.Steps[last].ToNet = p.Steps[last-1].ToNet
	if _, err := PathDelayUnder(context.Background(), nl, p, fresh, Config{}); err == nil {
		t.Errorf("step %s with ToNet %s accepted", p.Steps[last].Inst, p.Steps[last].ToNet)
	}
}

func TestAnalyzeAnnotatedNetlistWithMergedLibrary(t *testing.T) {
	cfg := char.CachedConfig()
	base := aging.WorstCase(10)
	nl := chain(2)
	ann := nl.Annotate(map[string]netlist.Lambdas{
		"rin": {P: 1, N: 1}, "inv0": {P: 0.5, N: 0.5},
		"inv1": {P: 1, N: 1}, "rout": {P: 1, N: 1},
	})
	scen, err := netlist.AnnotatedScenarios(ann, base)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := cfg.CompleteLibrary(context.Background(), "complete", scen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(context.Background(), ann, &merged.Library, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic stress must land between fresh and full worst case.
	fresh, _ := Analyze(context.Background(), nl, lib(t, aging.Fresh()), Config{})
	worst, _ := Analyze(context.Background(), nl, lib(t, base), Config{})
	if !(res.CP > fresh.CP && res.CP < worst.CP) {
		t.Errorf("dynamic CP %s not within (%s, %s)",
			units.PsString(res.CP), units.PsString(fresh.CP), units.PsString(worst.CP))
	}
}

func TestMissingDriverError(t *testing.T) {
	l := lib(t, aging.Fresh())
	nl := netlist.New("bad")
	nl.Outputs = []string{"y"}
	nl.AddInst("g", "INV_X1", map[string]string{"A": "nowhere", "ZN": "y"})
	if _, err := Analyze(context.Background(), nl, l, Config{}); err == nil {
		t.Error("undriven input not reported")
	}
}

func TestRequiredAndSlack(t *testing.T) {
	l := lib(t, aging.Fresh())
	nl := chain(4)
	res, err := Analyze(context.Background(), nl, l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The endpoint (rout D pin net) carries zero slack by construction:
	// required = CP - setup = arrival.
	end := res.Worst.Endpoint
	if s := res.Slack[end]; s < -1e-15 || s > 1e-15 {
		t.Errorf("critical endpoint slack = %v, want 0", s)
	}
	// Every net on the worst path has (near-)zero slack; others have
	// non-negative slack.
	for _, st := range res.Worst.Steps {
		if s := res.Slack[st.ToNet]; s > 1e-13 {
			t.Errorf("critical net %s slack = %v", st.ToNet, s)
		}
	}
	for net, s := range res.Slack {
		if s < -1e-12 {
			t.Errorf("negative slack on %s: %v", net, s)
		}
	}
}

func TestSlackOrdersSidePaths(t *testing.T) {
	l := lib(t, aging.Fresh())
	// Two parallel paths of different depth between registers: the short
	// one must have positive slack, the long one ~zero.
	nl := netlist.New("two")
	nl.Inputs = []string{"a"}
	nl.Outputs = []string{"q1", "q2"}
	nl.AddInst("rin", "DFF_X1", map[string]string{"D": "a", "CK": netlist.ClockNet, "Q": "s"})
	nl.AddInst("i1", "INV_X1", map[string]string{"A": "s", "ZN": "w1"})
	prev := "s"
	for i := 0; i < 5; i++ {
		out := "l" + string(rune('0'+i))
		nl.AddInst("li"+string(rune('0'+i)), "INV_X1", map[string]string{"A": prev, "ZN": out})
		prev = out
	}
	nl.AddInst("c1", "DFF_X1", map[string]string{"D": "w1", "CK": netlist.ClockNet, "Q": "q1"})
	nl.AddInst("c2", "DFF_X1", map[string]string{"D": prev, "CK": netlist.ClockNet, "Q": "q2"})
	res, err := Analyze(context.Background(), nl, l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slack["w1"] <= res.Slack[prev]+1e-13 {
		t.Errorf("short path slack %v should exceed long path %v",
			res.Slack["w1"], res.Slack[prev])
	}
}

func TestEndpointsAndTopPaths(t *testing.T) {
	l := lib(t, aging.Fresh())
	// Two endpoints of different depth.
	nl := netlist.New("two")
	nl.Inputs = []string{"a"}
	nl.Outputs = []string{"q1", "q2"}
	nl.AddInst("rin", "DFF_X1", map[string]string{"D": "a", "CK": netlist.ClockNet, "Q": "s"})
	nl.AddInst("i1", "INV_X1", map[string]string{"A": "s", "ZN": "w1"})
	prev := "s"
	for i := 0; i < 4; i++ {
		out := "l" + string(rune('0'+i))
		nl.AddInst("li"+string(rune('0'+i)), "INV_X1", map[string]string{"A": prev, "ZN": out})
		prev = out
	}
	nl.AddInst("c1", "DFF_X1", map[string]string{"D": "w1", "CK": netlist.ClockNet, "Q": "q1"})
	nl.AddInst("c2", "DFF_X1", map[string]string{"D": prev, "CK": netlist.ClockNet, "Q": "q2"})
	res, err := Analyze(context.Background(), nl, l, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A k beyond the endpoint-edge count returns every endpoint-edge once:
	// the two primary outputs and the three register data pins, both
	// edges each, latest first.
	all, err := TopPaths(context.Background(), nl, l, Config{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Fatalf("all paths = %d, want 10", len(all))
	}
	if all[0].Delay != res.CP {
		t.Fatalf("worst endpoint %v != CP %v", all[0].Delay, res.CP)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Delay > all[i-1].Delay {
			t.Fatal("endpoints not sorted")
		}
	}
	paths, err := TopPaths(context.Background(), nl, l, Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %d", len(paths))
	}
	if paths[0].Delay != res.CP {
		t.Errorf("worst path delay %v != CP %v", paths[0].Delay, res.CP)
	}
	if paths[0].Endpoint != res.Worst.Endpoint {
		t.Errorf("worst path endpoint %s != %s", paths[0].Endpoint, res.Worst.Endpoint)
	}
	// The deep-path endpoint must appear before the shallow one.
	if paths[0].Endpoint != prev {
		t.Errorf("deepest endpoint should be %s, got %s", prev, paths[0].Endpoint)
	}
	if len(paths[0].Steps) <= len(paths[2].Steps) {
		t.Error("worst path should be deeper than the 3rd worst")
	}
}

// TestTopPathsMatchesReference locks TopPaths and PathDelayUnder to the
// reference retrace and re-timing, bit for bit: random netlists under
// fresh and worst-case libraries, k from one path to more than there are
// endpoint-edges, and every returned path re-timed under the other
// library. Both libraries are timed one-shot and through one BatchTimer
// per netlist and config, compiled against the fresh library.
func TestTopPathsMatchesReference(t *testing.T) {
	libs := []*liberty.Library{lib(t, aging.Fresh()), lib(t, aging.WorstCase(10))}
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	cfgs := []Config{{}, {OutputLoad: 12 * units.FF, InputSlew: 35 * units.Ps}}
	for _, nl := range []*netlist.Netlist{chain(3), randNetlist(rng, 40), randNetlist(rng, 150)} {
		bts := make([]*BatchTimer, len(cfgs))
		for ci, cfg := range cfgs {
			var err error
			if bts[ci], err = NewBatchTimer(ctx, nl, libs[0], cfg); err != nil {
				t.Fatal(err)
			}
		}
		for li, l := range libs {
			other := libs[1-li]
			for ci, cfg := range cfgs {
				all, err := topPathsReference(nl, l, cfg, -1)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 3, len(all), len(all) + 3} {
					what := fmt.Sprintf("%s/%s/%+v k=%d", nl.Name, l.Name, cfg, k)
					got, err := TopPaths(ctx, nl, l, cfg, k)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					want, err := topPathsReference(nl, l, cfg, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: TopPaths differs from the reference retrace", what)
					}
					compiled, err := bts[ci].TopPaths(ctx, l, k)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if !reflect.DeepEqual(compiled, want) {
						t.Fatalf("%s: BatchTimer.TopPaths differs from the reference retrace", what)
					}
					for i, p := range got {
						g, err := PathDelayUnder(ctx, nl, p, other, cfg)
						if err != nil {
							t.Fatalf("%s path %d: %v", what, i, err)
						}
						w, err := pathDelayUnderReference(nl, p, other, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s path %d under %s: %v != reference %v", what, i, other.Name, g, w)
						}
					}
				}
			}
		}
	}
}
