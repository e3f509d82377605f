package core

import (
	"context"
	"fmt"
	"strings"

	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/sta"
	"ageguard/internal/units"
)

// Fig3Stage is one gate on a motivational path with its arrival under the
// fresh and aged libraries.
type Fig3Stage struct {
	Cell     string
	FreshPS  float64 // stage arrival contribution, fresh [ps]
	AgedPS   float64 // aged [ps]
	DeltaPct float64
}

// Fig3Report reproduces the paper's Fig. 3: two register-to-register
// paths whose criticality switches under aging — the initially critical
// path ages mildly while the initially short path ages strongly.
type Fig3Report struct {
	Path1, Path2           []Fig3Stage // per-stage breakdown
	Path1Fresh, Path2Fresh float64     // endpoint arrivals, fresh [s]
	Path1Aged, Path2Aged   float64     // aged [s]
	Switched               bool        // criticality switched after aging
	Fanout1, Fanout2       int         // dummy loads used on each path
}

// Fig3PathSwitch constructs the two-path example. Path 1 is built from
// NOR-class gates (whose aging impact is mild or even negative at the
// encountered operating conditions), path 2 from NAND-class gates under
// slew/load conditions that amplify aging. A small deterministic search
// over dummy fanout loads finds a configuration where path 1 is critical
// before aging and path 2 after — demonstrating why guardbanding from the
// initial critical path alone is wrong.
func (f Flow) Fig3PathSwitch(ctx context.Context) (*Fig3Report, error) {
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return nil, err
	}
	aged, err := f.WorstLibrary(ctx)
	if err != nil {
		return nil, err
	}
	var best *Fig3Report
	for k1 := 0; k1 <= 10; k1++ {
		for k2 := 0; k2 <= 10; k2++ {
			rep, err := f.fig3Config(ctx, fresh, aged, k1, k2)
			if err != nil {
				return nil, err
			}
			if rep.Switched {
				return rep, nil
			}
			if best == nil || closer(rep) < closer(best) {
				best = rep
			}
		}
	}
	return best, nil
}

// closer scores how near a configuration is to switching (smaller is
// better), used only to return the most instructive non-switching config.
func closer(r *Fig3Report) float64 {
	d1 := r.Path1Fresh - r.Path2Fresh // want > 0
	d2 := r.Path2Aged - r.Path1Aged   // want > 0
	score := 0.0
	if d1 < 0 {
		score -= d1
	}
	if d2 < 0 {
		score -= d2
	}
	return score
}

// fig3Config builds one candidate two-path netlist with k1/k2 dummy loads.
func (f Flow) fig3Config(ctx context.Context, fresh, aged *liberty.Library, k1, k2 int) (*Fig3Report, error) {
	nl := netlist.New("fig3")
	nl.Inputs = []string{"d1", "d2", "en"}
	nl.Outputs = []string{"q1", "q2"}

	// Path 1: a buffer chain observed on its rising lineage — the mildest
	// sustained aging our library offers (each BUF's internal fall stage
	// even benefits from the weakened pull-up opposition).
	nl.AddInst("ff1", "DFF_X1", map[string]string{"D": "d1", "CK": netlist.ClockNet, "Q": "p1a"})
	nl.AddInst("p1g1", "BUF_X1", map[string]string{"A": "p1a", "Z": "p1b"})
	nl.AddInst("p1g2", "BUF_X1", map[string]string{"A": "p1b", "Z": "p1c0"})
	nl.AddInst("p1g3", "BUF_X1", map[string]string{"A": "p1c0", "Z": "p1c1"})
	nl.AddInst("p1g4", "BUF_X1", map[string]string{"A": "p1c1", "Z": "p1c"})
	nl.AddInst("p1g5", "BUF_X2", map[string]string{"A": "p1c", "Z": "p1d"})
	nl.AddInst("cap1", "DFF_X1", map[string]string{"D": "p1d", "CK": netlist.ClockNet, "Q": "q1"})

	// Path 2: a weak inverter with a heavy fanout load produces a slow
	// falling slew into a NAND whose rising output then fights the
	// still-conducting pull-down — the operating condition under which
	// NBTI aging is amplified several-fold (Fig. 1a).
	nl.AddInst("ff2", "DFF_X1", map[string]string{"D": "d2", "CK": netlist.ClockNet, "Q": "p2a"})
	nl.AddInst("p2g1", "INV_X1", map[string]string{"A": "p2a", "ZN": "p2b"})
	nl.AddInst("p2g2", "NAND2_X1", map[string]string{"A1": "p2b", "A2": "en", "ZN": "p2c0"})
	nl.AddInst("p2g3", "BUF_X2", map[string]string{"A": "p2c0", "Z": "p2c1"})
	nl.AddInst("p2g4", "BUF_X2", map[string]string{"A": "p2c1", "Z": "p2c"})
	nl.AddInst("p2g5", "BUF_X2", map[string]string{"A": "p2c", "Z": "p2d"})
	nl.AddInst("cap2", "DFF_X1", map[string]string{"D": "p2d", "CK": netlist.ClockNet, "Q": "q2"})

	// Dummy fanout loads shape slews and loads along each path; path 2's
	// weak driver with heavy loads produces the slow slews under which
	// NAND aging is amplified (Fig. 1a).
	for i := 0; i < k1; i++ {
		s := fmt.Sprintf("ld1_%d", i)
		nl.AddInst(s, "INV_X2", map[string]string{"A": "p1b", "ZN": s + "_o"})
	}
	for i := 0; i < k2; i++ {
		s := fmt.Sprintf("ld2_%d", i)
		nl.AddInst(s, "INV_X4", map[string]string{"A": "p2b", "ZN": s + "_o"})
	}

	rf, err := sta.Analyze(ctx, nl, fresh, f.STA)
	if err != nil {
		return nil, err
	}
	ra, err := sta.Analyze(ctx, nl, aged, f.STA)
	if err != nil {
		return nil, err
	}
	// Like the paper's HSPICE example, each path is observed on one
	// specific sensitized transition: both on their rising endpoint edges
	// (path 1's buffers stay on the mild rising lineage; path 2's rise
	// passes through the slow-slew NAND pull-up).
	arr := func(r *sta.Result, net string, e liberty.Edge) float64 {
		return r.Arrival[net][e]
	}
	rep := &Fig3Report{
		Fanout1: k1, Fanout2: k2,
		Path1Fresh: arr(rf, "p1d", liberty.Rise), Path2Fresh: arr(rf, "p2d", liberty.Rise),
		Path1Aged: arr(ra, "p1d", liberty.Rise), Path2Aged: arr(ra, "p2d", liberty.Rise),
	}
	// A switch in either direction demonstrates the effect; normalize so
	// that path 1 is the one that was critical before aging, as in the
	// paper's figure.
	rep.Switched = (rep.Path1Fresh > rep.Path2Fresh) != (rep.Path1Aged > rep.Path2Aged)
	swapped := rep.Path2Fresh > rep.Path1Fresh
	// Per-stage breakdown along each path's sensitized lineage.
	stage := func(r *sta.Result, nets []string, edges []liberty.Edge) []float64 {
		var out []float64
		prev := 0.0
		for i, n := range nets {
			a := arr(r, n, edges[i])
			out = append(out, a-prev)
			prev = a
		}
		return out
	}
	rise, fall := liberty.Rise, liberty.Fall
	p1nets := []string{"p1a", "p1b", "p1c0", "p1c1", "p1c", "p1d"}
	p2nets := []string{"p2a", "p2b", "p2c0", "p2c1", "p2c", "p2d"}
	p1cells := []string{"DFF_X1", "BUF_X1", "BUF_X1", "BUF_X1", "BUF_X1", "BUF_X2"}
	p2cells := []string{"DFF_X1", "INV_X1", "NAND2_X1", "BUF_X2", "BUF_X2", "BUF_X2"}
	p1edges := []liberty.Edge{rise, rise, rise, rise, rise, rise}
	p2edges := []liberty.Edge{rise, fall, rise, rise, rise, rise}
	f1, a1 := stage(rf, p1nets, p1edges), stage(ra, p1nets, p1edges)
	f2, a2 := stage(rf, p2nets, p2edges), stage(ra, p2nets, p2edges)
	for i := range p1nets {
		rep.Path1 = append(rep.Path1, mkStage(p1cells[i], f1[i], a1[i]))
		rep.Path2 = append(rep.Path2, mkStage(p2cells[i], f2[i], a2[i]))
	}
	if swapped {
		rep.Path1, rep.Path2 = rep.Path2, rep.Path1
		rep.Path1Fresh, rep.Path2Fresh = rep.Path2Fresh, rep.Path1Fresh
		rep.Path1Aged, rep.Path2Aged = rep.Path2Aged, rep.Path1Aged
	}
	return rep, nil
}

func mkStage(cell string, fd, ad float64) Fig3Stage {
	return Fig3Stage{
		Cell:     cell,
		FreshPS:  fd / units.Ps,
		AgedPS:   ad / units.Ps,
		DeltaPct: (ad - fd) / fd * 100,
	}
}

// Format renders the two-path comparison like the paper's Fig. 3 callout.
func (r *Fig3Report) Format() string {
	var b strings.Builder
	line := func(name string, stages []Fig3Stage, fresh, aged float64) {
		fmt.Fprintf(&b, "%s:", name)
		for _, s := range stages {
			fmt.Fprintf(&b, "  %s %.0fps->%.0fps (%+.1f%%)", s.Cell, s.FreshPS, s.AgedPS, s.DeltaPct)
		}
		fmt.Fprintf(&b, "  TOTAL %s -> %s (%+.1f%%)\n",
			units.PsString(fresh), units.PsString(aged), (aged-fresh)/fresh*100)
	}
	line("Path1", r.Path1, r.Path1Fresh, r.Path1Aged)
	line("Path2", r.Path2, r.Path2Fresh, r.Path2Aged)
	if r.Switched {
		fmt.Fprintf(&b, "criticality SWITCHED: path1 critical before aging, path2 after (fanouts %d/%d)\n",
			r.Fanout1, r.Fanout2)
	} else {
		fmt.Fprintf(&b, "no switch found in search range\n")
	}
	return b.String()
}
