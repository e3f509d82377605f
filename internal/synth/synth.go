// Package synth implements technology mapping and timing-driven netlist
// optimization — the reproduction's stand-in for the commercial synthesis
// flow (Synopsys Design Compiler with compile_ultra) the paper plugs its
// degradation-aware libraries into.
//
// The mapper is a cut-based Boolean matcher over an And-Inverter Graph:
// priority k-feasible cuts (k=4) are enumerated per node, cut functions are
// matched against the library's cell functions under input permutation and
// complementation, and a delay-oriented dynamic program selects the cover
// using the NLDM delay tables of the *provided* library. Timing-driven
// gate sizing and buffer insertion follow, driven by full STA.
//
// Because every cost in the flow is read from the given library, providing
// a degradation-aware (aged) library makes the optimizer select, per
// operating condition, the cells that age least — which is precisely the
// mechanism of the paper's Sec. 4.3 guardband containment.
package synth

import (
	"fmt"
	"math"

	"ageguard/internal/liberty"
	"ageguard/internal/logic"
	"ageguard/internal/netlist"
	"ageguard/internal/sta"
	"ageguard/internal/units"
)

// The mapper's fixed estimates and the sizing budget.
const (
	inputSlew  = 20 * units.Ps  // assumed PI slew for DP estimates
	estWireCap = 2 * units.FF   // estimated wire cap per mapped net
	estSinkCap = 0.9 * units.FF // estimated cap per fanout for DP loads

	// maxTransition caps the slew the DP propagates, mirroring the
	// max_transition design rule commercial flows enforce: the later
	// sizing/buffering passes repair bad slews, so unbounded estimates
	// would only distort the covering choices.
	maxTransition = 50 * units.Ps

	sizingRounds = 10 // timing-driven sizing iterations
)

// Config tunes the mapper. The zero value selects defaults.
type Config struct {
	DPDrive int // drive strength assumed during DP; default 2

	// UnitDelay makes the mapper library-agnostic (depth-optimal cover
	// with unit cell delays). Used as one of the multi-start seeds so the
	// fresh and aged flows share a common structural strategy.
	UnitDelay bool

	// UnitMode selects the cost profile of the library-agnostic mapping:
	// 0 = pure unit delay, 1 = unit delay with an area penalty,
	// 2 = unit delay preferring wide cells (shallower covers). Different
	// modes yield structurally different covers, diversifying the shared
	// multi-start seeds.
	UnitMode int

	Buffering bool // enable buffer insertion on critical high-fanout nets

	// STA parameterizes the timing analyses that drive seed selection,
	// gate sizing, buffer insertion and area recovery. The zero value
	// selects the sta defaults. Flows must thread the same sta.Config here
	// that their final signoff analysis uses — the optimizer used to
	// always time candidates under the zero config, silently diverging
	// from the flow's input slew / output load / wire caps.
	STA sta.Config
}

func (c *Config) fill() {
	if c.DPDrive == 0 {
		c.DPDrive = 2
	}
}

// cand is the best implementation found for one (node, polarity).
// Arrival times and slews are tracked per output edge (rise/fall), since
// aged libraries are strongly edge-asymmetric and an edge-blind cost
// would systematically mislead the covering choices.
type cand struct {
	ok     bool
	arr    [2]float64 // per liberty.Edge
	slew   [2]float64
	cutIdx int
	m      match
	cell   string // concrete library cell name
	viaInv bool
	// alias (node index + 1) marks a zero-cost structural alias: the node
	// equals another node (or its complement, aliasNeg), discovered via
	// cut-function support reduction.
	alias    uint32
	aliasNeg bool
}

// worstArr is the scalar DP objective: the later of the two edge arrivals.
func (c cand) worstArr() float64 {
	if c.arr[0] > c.arr[1] {
		return c.arr[0]
	}
	return c.arr[1]
}

type mapper struct {
	cfg  Config
	a    *logic.AIG
	lib  *liberty.Library
	mt   matchTable
	cuts [][]cut
	fan  []int
	best [2][]cand // [neg][node]

	// cover state
	nl      *netlist.Netlist
	covered [2][]string // net names, "" = not covered
	nameOf  []string    // input net names per node (inputs only)
	uid     int

	// loadHint carries measured per-node output loads from a previous
	// mapping pass (0 = no hint), replacing the fanout-based estimate.
	loadHint []float64
}

// Map technology-maps the AIG onto the library and returns a purely
// combinational netlist (no registers; see WrapSequential).
func Map(a *logic.AIG, lib *liberty.Library, name string, cfg Config) (*netlist.Netlist, error) {
	cfg.fill()
	m := &mapper{
		cfg:  cfg,
		a:    a,
		lib:  lib,
		mt:   buildMatchTable(lib),
		cuts: enumerateCuts(a),
		fan:  a.FanoutCounts(),
	}
	n := a.NumNodes()
	m.best[0] = make([]cand, n)
	m.best[1] = make([]cand, n)
	m.covered[0] = make([]string, n)
	m.covered[1] = make([]string, n)
	m.nameOf = make([]string, n)
	for i, l := range a.Inputs() {
		m.nameOf[l.Node()] = a.InputName(i)
	}
	// Two mapping passes: the first uses fanout-based load estimates; the
	// second replaces them with loads measured on the first-pass netlist,
	// sharpening the delay costs the DP optimizes (important so that the
	// systematic differences between libraries — e.g. fresh vs aged —
	// dominate estimation noise).
	if err := m.dp(); err != nil {
		return nil, err
	}
	nl1, err := m.cover(name)
	if err != nil {
		return nil, err
	}
	m.loadHint = m.measureLoads(nl1)
	m.reset()
	if err := m.dp(); err != nil {
		return nil, err
	}
	return m.cover(name)
}

// reset clears DP and cover state between mapping passes.
func (m *mapper) reset() {
	n := m.a.NumNodes()
	m.best[0] = make([]cand, n)
	m.best[1] = make([]cand, n)
	m.covered[0] = make([]string, n)
	m.covered[1] = make([]string, n)
	m.uid = 0
}

// measureLoads computes, for every AIG node materialized by the previous
// cover, the real capacitive load of its (positive-polarity) output net.
func (m *mapper) measureLoads(nl *netlist.Netlist) []float64 {
	loads := map[string]float64{}
	sinkCount := map[string]int{}
	for _, in := range nl.Insts {
		ct, ok := m.lib.Cell(in.Cell)
		if !ok {
			continue
		}
		for _, p := range ct.Inputs {
			net := in.Pins[p]
			loads[net] += ct.PinCap[p]
			sinkCount[net]++
		}
	}
	hints := make([]float64, m.a.NumNodes())
	for node := range hints {
		netName := m.covered[0][node]
		if netName == "" {
			netName = m.covered[1][node]
		}
		if netName == "" {
			continue
		}
		l := loads[netName] + estWireCap
		if n := sinkCount[netName]; n > 1 {
			l += float64(n-1) * 0.12e-15
		}
		if l > 0 {
			hints[node] = l
		}
	}
	return hints
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// estLoad estimates the mapped capacitive load of a node's output net.
func (m *mapper) estLoad(node uint32) float64 {
	if m.loadHint != nil && m.loadHint[node] > 0 {
		return m.loadHint[node]
	}
	f := m.fan[node]
	if f < 1 {
		f = 1
	}
	l := estWireCap + float64(f)*estSinkCap
	// Loads beyond this will be repaired by sizing/buffering; letting
	// them grow unboundedly would put DP estimates in the slow-slew table
	// region that the optimized design never operates in.
	if l > 12*units.FF {
		l = 12 * units.FF
	}
	return l
}

// invApply returns the edge-aware arrival/slew after an inverter driving
// the given load from a signal with the given per-edge arrival/slew.
func (m *mapper) invApply(arr, slew [2]float64, load float64) (oarr, oslew [2]float64) {
	if m.cfg.UnitDelay {
		const u = 1e-12
		return [2]float64{arr[1] + u, arr[0] + u}, slew
	}
	ct := m.lib.MustCell("INV_X1")
	a := ct.Arcs[0] // negative unate
	for e := liberty.Rise; e <= liberty.Fall; e++ {
		ie := e.Opposite()
		oarr[e] = arr[ie] + a.Delay[e].At(slew[ie], load)
		oslew[e] = math.Min(a.OutSlew[e].At(slew[ie], load), maxTransition)
	}
	return oarr, oslew
}

// arcTiming returns the worst delay/slew through a cell input pin.
func arcTiming(ct *liberty.CellTiming, pin string, slew, load float64) (float64, float64, bool) {
	d, s := math.Inf(-1), 0.0
	found := false
	for _, a := range ct.Arcs {
		if a.Pin != pin {
			continue
		}
		for e := liberty.Rise; e <= liberty.Fall; e++ {
			if a.Delay[e] == nil {
				continue
			}
			found = true
			if v := a.Delay[e].At(slew, load); v > d {
				d = v
			}
			if v := a.OutSlew[e].At(slew, load); v > s {
				s = v
			}
		}
	}
	return d, s, found
}

// pinEdgeTiming returns, for one cell input pin and one OUTPUT edge, the
// worst (arrival, slew) contribution over the pin's arcs given the
// driving signal's per-edge arrival and slew.
func pinEdgeTiming(ct *liberty.CellTiming, pin string, e liberty.Edge,
	arr, slew [2]float64, load float64) (a float64, s float64, ok bool) {

	a, s = math.Inf(-1), 0.0
	for _, arc := range ct.Arcs {
		if arc.Pin != pin || arc.Delay[e] == nil {
			continue
		}
		ie := arc.Sense.InputEdge(e)
		ok = true
		if v := arr[ie] + arc.Delay[e].At(slew[ie], load); v > a {
			a = v
		}
		if v := arc.OutSlew[e].At(slew[ie], load); v > s {
			s = v
		}
	}
	return a, s, ok
}

// dp computes the best implementation per (node, polarity) in topological
// order (node indexes are already topological in the AIG).
func (m *mapper) dp() error {
	a := m.a
	n := a.NumNodes()
	for node := uint32(1); node < uint32(n); node++ {
		l := logic.Lit(node << 1)
		load := m.estLoad(node)
		if a.IsInput(l) {
			in := cand{ok: true, slew: [2]float64{inputSlew, inputSlew}}
			m.best[0][node] = in
			narr, nslew := m.invApply(in.arr, in.slew, load)
			m.best[1][node] = cand{ok: true, arr: narr, slew: nslew, viaInv: true}
			continue
		}
		for pol := 0; pol < 2; pol++ {
			best := cand{arr: [2]float64{math.Inf(1), math.Inf(1)}}
			for ci, c := range m.cuts[node] {
				if len(c.leaves) == 1 && c.leaves[0] == node {
					continue // trivial cut: not implementable
				}
				if len(c.leaves) == 1 {
					// Support-reduced alias: node == leaf or == !leaf.
					leafNeg := c.tt&ttMask(1) == 0b01
					src := m.best[boolToInt(leafNeg != (pol == 1))][c.leaves[0]]
					if src.ok && src.worstArr() < best.worstArr() {
						best = cand{ok: true, arr: src.arr, slew: src.slew,
							alias: c.leaves[0] + 1, aliasNeg: leafNeg}
					}
					continue
				}
				tt := c.tt
				if pol == 1 {
					tt = ^tt & ttMask(len(c.leaves))
				}
				for _, mt := range m.mt[matchKey(len(c.leaves), tt)] {
					if mt.ninputs != len(c.leaves) {
						continue
					}
					cellName := fmt.Sprintf("%s_X%d", mt.base, m.cfg.DPDrive)
					ct, ok := m.lib.Cell(cellName)
					if !ok {
						continue
					}
					var arr, slew [2]float64
					arr[0], arr[1] = math.Inf(-1), math.Inf(-1)
					feasible := true
					for pi, pin := range ct.Inputs {
						leafIdx := mt.perm[pi]
						leaf := c.leaves[leafIdx]
						leafNeg := mt.complMask >> uint(leafIdx) & 1
						lb := m.best[leafNeg][leaf]
						if !lb.ok {
							feasible = false
							break
						}
						if m.cfg.UnitDelay {
							u := 1e-12
							switch m.cfg.UnitMode {
							case 1:
								u += ct.AreaUm2 * 0.05e-12
							case 2:
								u -= float64(len(ct.Inputs)-1) * 0.1e-12
							}
							for e := liberty.Rise; e <= liberty.Fall; e++ {
								if v := math.Max(lb.arr[0], lb.arr[1]) + u; v > arr[e] {
									arr[e] = v
								}
								slew[e] = lb.slew[e]
							}
							continue
						}
						// Cost slews are held at the nominal corner: the
						// post-mapping sizing/buffering passes control real
						// slews, and propagating raw estimates would make
						// the DP's accuracy depend on the library's slew
						// steepness (hurting exactly the aged libraries the
						// flow is meant to exploit).
						nomSlew := [2]float64{inputSlew, inputSlew}
						for e := liberty.Rise; e <= liberty.Fall; e++ {
							a, s, found := pinEdgeTiming(ct, pin, e, lb.arr, nomSlew, load)
							if !found {
								continue
							}
							if a > arr[e] {
								arr[e] = a
							}
							if s = math.Min(s, maxTransition); s > slew[e] {
								slew[e] = s
							}
						}
					}
					if !feasible || math.IsInf(arr[0], -1) || math.IsInf(arr[1], -1) {
						continue
					}
					if !m.cfg.UnitDelay {
						// Slew penalty: a slow output edge costs delay in
						// every downstream stage; folding a fraction of the
						// slew into the arrival approximates propagated-slew
						// timing without its estimate-noise sensitivity.
						for e := 0; e < 2; e++ {
							if over := slew[e] - inputSlew; over > 0 {
								arr[e] += 0.3 * over
							}
						}
					}
					c2 := cand{ok: true, arr: arr, slew: slew, cutIdx: ci, m: mt, cell: cellName}
					if c2.worstArr() < best.worstArr() {
						best = c2
					}
				}
			}
			m.best[pol][node] = best
		}
		// Polarity bridging through an inverter (both directions).
		for pol := 0; pol < 2; pol++ {
			other := m.best[1-pol][node]
			if !other.ok {
				continue
			}
			narr, nslew := m.invApply(other.arr, other.slew, load)
			alt := cand{ok: true, arr: narr, slew: nslew, viaInv: true}
			if !m.best[pol][node].ok || alt.worstArr() < m.best[pol][node].worstArr() {
				m.best[pol][node] = alt
			}
		}
		if !m.best[0][node].ok || !m.best[1][node].ok {
			return fmt.Errorf("synth: node %d unmappable with library %s", node, m.lib.Name)
		}
	}
	return nil
}

// cover extracts the chosen cover into a netlist.
func (m *mapper) cover(name string) (*netlist.Netlist, error) {
	m.nl = netlist.New(name)
	for i := range m.a.Inputs() {
		m.nl.Inputs = append(m.nl.Inputs, m.a.InputName(i))
	}
	for _, o := range m.a.Outputs() {
		if m.a.IsConst(o.L) {
			return nil, fmt.Errorf("synth: output %s is constant; tie cells unsupported", o.Name)
		}
		src := m.net(o.L.Node(), o.L.Compl())
		m.inst("BUF_X2", map[string]string{"A": src, "Z": o.Name})
		m.nl.Outputs = append(m.nl.Outputs, o.Name)
	}
	return m.nl, nil
}

func (m *mapper) inst(cell string, pins map[string]string) {
	m.uid++
	m.nl.AddInst(fmt.Sprintf("u%d", m.uid), cell, pins)
}

// net materializes the implementation of (node, polarity) and returns the
// driven net name, reusing shared logic via memoization.
func (m *mapper) net(node uint32, neg bool) string {
	pol := 0
	if neg {
		pol = 1
	}
	if s := m.covered[pol][node]; s != "" {
		return s
	}
	l := logic.Lit(node << 1)
	var out string
	switch {
	case m.a.IsInput(l) && !neg:
		out = m.nameOf[node]
	case m.best[pol][node].alias != 0:
		b := m.best[pol][node]
		out = m.net(b.alias-1, neg != b.aliasNeg)
	case m.best[pol][node].viaInv:
		src := m.net(node, !neg)
		out = fmt.Sprintf("n%d_%d", node, pol)
		m.inst("INV_X1", map[string]string{"A": src, "ZN": out})
	default:
		b := m.best[pol][node]
		c := m.cuts[node][b.cutIdx]
		ct := m.lib.MustCell(b.cell)
		pins := map[string]string{}
		for pi, pin := range ct.Inputs {
			leafIdx := b.m.perm[pi]
			leaf := c.leaves[leafIdx]
			leafNeg := b.m.complMask>>uint(leafIdx)&1 == 1
			pins[pin] = m.net(leaf, leafNeg)
		}
		out = fmt.Sprintf("n%d_%d", node, pol)
		pins[ct.Output] = out
		m.inst(b.cell, pins)
	}
	m.covered[pol][node] = out
	return out
}
