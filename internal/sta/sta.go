// Package sta implements static timing analysis over gate-level netlists
// with NLDM liberty libraries: levelized arrival-time and slew propagation,
// per-net load computation, critical-path extraction, and re-evaluation of
// a fixed path under a different library (needed to reproduce the paper's
// Fig. 5(c) critical-path-switching comparison).
//
// Timing semantics follow standard industrial STA: per-edge (rise/fall)
// arrival times, table-interpolated arc delays as a function of the
// propagated input slew and the capacitive load of the driven net, worst
// (latest) arrival selection, and slew propagated from the winning arc.
// Sequential cells launch paths at their clock-to-Q arc and capture paths
// at their data pin plus setup time; the critical-path delay is therefore
// the minimum usable clock period.
//
// One compiled engine (analyzer.go) answers every query. A BatchTimer is
// the immutable, self-contained compiled form of one netlist: it holds no
// reference to the netlist and times it under any library whose cells
// keep the template's pin footprints (CP, TopPaths, and Monte Carlo
// samples through BindDeltas); a library that changes a footprint is an
// error. An Analyzer times one netlist under one library and re-times it
// incrementally after cell swaps, under the same rule: a swap onto a cell
// of another footprint is an error. Analyze, the free TopPaths and
// PathDelayUnder are one-shot uses of the same compiled state.
// reference_test.go holds a string-keyed reference analysis that only
// tests run: the specification the engine must match bit for bit.
package sta

import (
	"context"
	"fmt"

	"ageguard/internal/conc"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/units"
)

// Config parameterizes the analysis. The zero value selects defaults.
// The documented defaults are the values fill() actually applies — pinned
// by TestConfigFillDefaults so comments and code cannot drift apart again.
type Config struct {
	InputSlew  float64 // slew assumed at primary inputs [s]; default 20ps
	ClockSlew  float64 // slew of the clock at sequential pins [s]; default 20ps
	OutputLoad float64 // load on primary outputs [F]; default 4fF
	WireCap    float64 // base wire cap per net [F]; default 2fF
	WireCapFan float64 // additional wire cap per extra fanout [F]; default 0.5fF
}

func (c *Config) fill() {
	if c.InputSlew == 0 {
		c.InputSlew = 20 * units.Ps
	}
	if c.ClockSlew == 0 {
		c.ClockSlew = 20 * units.Ps
	}
	if c.OutputLoad == 0 {
		c.OutputLoad = 4 * units.FF
	}
	if c.WireCap == 0 {
		// 45 nm global-average net: ~10 um of wire at ~0.2 fF/um.
		c.WireCap = 2 * units.FF
	}
	if c.WireCapFan == 0 {
		c.WireCapFan = 0.5 * units.FF
	}
}

// Step is one instance traversal on a timing path.
type Step struct {
	Inst    string
	Cell    string
	Pin     string // input pin entered (clock pin for launch steps)
	FromNet string
	ToNet   string
	InEdge  liberty.Edge
	OutEdge liberty.Edge
	Delay   float64 // arc delay contributed [s]
	Arrival float64 // arrival at ToNet after this step [s]
}

// Path is a complete timing path from a launch point to an endpoint.
type Path struct {
	Launch   string // launch net (primary input or DFF output)
	Endpoint string // endpoint net (primary output or DFF data input)
	EndEdge  liberty.Edge
	Delay    float64 // total path delay including setup at a DFF endpoint
	Setup    float64 // setup component (zero at primary outputs)
	Steps    []Step
}

// Result is the outcome of one timing analysis.
type Result struct {
	CP    float64 // critical-path delay = minimum clock period [s]
	Worst Path

	// Per-net annotations (by net name, indexed by liberty.Edge):
	Arrival map[string][2]float64
	Slew    map[string][2]float64
	Load    map[string]float64 // capacitive load of each driven net [F]

	// Required times and slacks (computed by backward propagation against
	// CP as the timing target). Slack[net] is the worst slack over edges.
	Required map[string][2]float64
	Slack    map[string]float64
}

// Analyze runs static timing analysis on the netlist against the
// library, counting the run (sta.analyses) and its wall time
// (sta.analyze.seconds) in the registry carried by ctx. The analysis
// itself is pure CPU work over in-memory tables and is not interruptible
// mid-run; ctx is consulted once on entry so canceled pipelines stop
// before starting another analysis.
//
// It is NewAnalyzer + Result. Callers that re-time the same netlist
// repeatedly should hold an Analyzer (or a BatchTimer for many
// libraries) to amortize the topology compilation too.
func Analyze(ctx context.Context, n *netlist.Netlist, lib *liberty.Library, cfg Config) (*Result, error) {
	a, err := NewAnalyzer(ctx, n, lib, cfg)
	if err != nil {
		return nil, err
	}
	return a.Result(), nil
}

// PathDelayUnder recomputes the delay of a previously extracted path with
// a different library, keeping the path's structure (instances, pins and
// edges) fixed. This models the state-of-the-art flows of Fig. 5(c) that
// estimate aged timing on the *initially* critical path, ignoring that
// another path may have become critical.
//
// Loads and launch/endpoint conventions follow Analyze with the same
// Config. The path's step slews are re-propagated with the new library.
func PathDelayUnder(ctx context.Context, n *netlist.Netlist, p Path, lib *liberty.Library, cfg Config) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, conc.WrapCanceled(fmt.Errorf("sta: %s: %w", n.Name, err))
	}
	cfg.fill()
	t, b, err := compile(n, lib, &cfg)
	if err != nil {
		return 0, err
	}
	byName := t.instIndex()
	arrival := 0.0
	slew := cfg.InputSlew
	for i, st := range p.Steps {
		in, ok := byName[st.Inst]
		if !ok {
			return 0, fmt.Errorf("sta: path instance %s missing", st.Inst)
		}
		net := t.outNet[in]
		if t.nets[net] != st.ToNet {
			return 0, fmt.Errorf("sta: path step %s drives net %s, not %s", st.Inst, t.nets[net], st.ToNet)
		}
		ct := b.ct[in]
		load := b.load[net].X()
		if ct.Seq && i == 0 {
			arc := ct.ArcsFor(ct.Clock)
			if len(arc) == 0 {
				return 0, fmt.Errorf("sta: %s has no clock arc", ct.Name)
			}
			arrival = arc[0].Delay[st.OutEdge].At(cfg.ClockSlew, load)
			slew = arc[0].OutSlew[st.OutEdge].At(cfg.ClockSlew, load)
			continue
		}
		var chosen *liberty.Arc
		for ai := range ct.Arcs {
			a := &ct.Arcs[ai]
			if a.Pin == st.Pin && a.Sense.InputEdge(st.OutEdge) == st.InEdge && a.Delay[st.OutEdge] != nil {
				chosen = a
				break
			}
		}
		if chosen == nil {
			return 0, fmt.Errorf("sta: no arc %s->%s (%v) on %s", st.Pin, st.ToNet, st.OutEdge, ct.Name)
		}
		arrival += chosen.Delay[st.OutEdge].At(slew, load)
		slew = chosen.OutSlew[st.OutEdge].At(slew, load)
	}
	return arrival + p.Setup, nil
}
