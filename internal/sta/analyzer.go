package sta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"ageguard/internal/conc"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
)

// This file implements the package's one timing engine. It compiles the
// netlist topology once into dense integer-indexed arrays (topology),
// resolves one library against it (binding: cells, arc nets and located
// loads), and propagates arrivals over that compiled form (state), one
// instance at a time through one evaluator (evalInst), which reads a
// cell's own tables or, for a Monte Carlo sample, its shifted ones. An
// Analyzer holds all three for one library and, after a cell swap, which
// must keep the cell's pin footprint, re-propagates arrivals only
// through the affected fanout cone, terminating early where arrivals
// converge. A BatchTimer shares one topology across many libraries.
// Results are bit-identical to the string-keyed reference analysis in
// reference_test.go: every floating-point operation is performed in the
// same order on the same operands (see analyzer_test.go for the
// differential property tests).

// CellSwap is one footprint-preserving cell substitution: the instance
// keeps its pins and nets, only the library cell (typically a different
// drive strength of the same base) changes.
type CellSwap struct {
	Inst string // instance name
	Cell string // replacement library cell name
}

// cSink is one fanout sink of a net: an instance (by topological index)
// and the position, in its cell's input order, of the pin through which
// it loads the net.
type cSink struct {
	inst int32
	in   int32
}

// topology is the library-independent compiled view of a netlist, held
// in flat integer-indexed arrays; no map keyed by a net or instance name
// outlives the compile. Instances are numbered in netlist.LevelOrder's
// topological order and nets in order of first appearance. The topology
// holds each instance's n.Insts position, its input and output nets, the
// fanout sinks of every net in reference FanoutMap order, and the
// endpoint lists. It keeps the design and instance names but no pointer
// into the netlist: an instance's cell is its binding's. It is never
// written after the compile, so bindings against different libraries
// share it (a BatchTimer does exactly that).
type topology struct {
	design string   // netlist name
	names  []string // instance names in n.Insts order
	nets   []string // net id -> name
	clk    int32    // id of netlist.ClockNet (always allocated)

	src []int32 // per instance: its index in n.Insts
	// fp is each instance's cell in the library the topology was compiled
	// with: its footprint, and by name the cell a new binding binds. A
	// binding against another library must match its pin names and
	// order, or the traversal order and load summation order would
	// differ.
	fp []*liberty.CellTiming

	inNet     []int32 // instance i's input nets in cell input order: inNet[inStart[i]:inStart[i+1]]
	inStart   []int32
	outNet    []int32 // per instance: output net id
	sinks     []cSink // net v's sinks in FanoutMap order: sinks[sinkStart[v]:sinkStart[v+1]]
	sinkStart []int32
	driver    []int32 // per net: driving instance index, -1 = none
	isPO      []bool  // per net: appears in n.Outputs

	poNets  []int32 // n.Outputs in order (duplicates preserved)
	seqTopo []int32 // sequential instances in n.Insts order
	piNets  []int32 // n.Inputs in order
}

// name returns the name of the instance of topological index i.
func (t *topology) name(i int) string { return t.names[t.src[i]] }

// inputs returns instance i's input nets in cell input order.
func (t *topology) inputs(i int) []int32 { return t.inNet[t.inStart[i]:t.inStart[i+1]] }

// fanout returns the sinks of a net in reference FanoutMap order.
func (t *topology) fanout(net int32) []cSink { return t.sinks[t.sinkStart[net]:t.sinkStart[net+1]] }

// instIndex maps instance names to topological indices, for the callers
// that address instances by name (Swap, PathDelayUnder). A repeated name
// resolves to its latest instance in topological order.
func (t *topology) instIndex() map[string]int32 {
	m := make(map[string]int32, len(t.src))
	for i, k := range t.src {
		m[t.names[k]] = int32(i)
	}
	return m
}

// newTopology compiles the netlist against the cell footprints of lib.
func newTopology(n *netlist.Netlist, lib *liberty.Library) (*topology, error) {
	src, err := n.LevelOrder(netlist.LibraryLookup(lib))
	if err != nil {
		return nil, err
	}
	ni := len(src)
	t := &topology{
		design:  n.Name,
		names:   make([]string, len(n.Insts)),
		src:     src,
		fp:      make([]*liberty.CellTiming, ni),
		inStart: make([]int32, ni+1),
		outNet:  make([]int32, ni),
	}
	for k, in := range n.Insts {
		t.names[k] = in.Name
	}
	pos := make([]int32, ni) // n.Insts index -> topological index
	for i, k := range src {
		pos[k] = int32(i)
		t.fp[i] = lib.MustCell(n.Insts[k].Cell)
		t.inStart[i+1] = t.inStart[i] + int32(len(t.fp[i].Inputs))
	}
	netID := make(map[string]int32, ni+len(n.Inputs)+1)
	t.nets = make([]string, 0, ni+len(n.Inputs)+1)
	id := func(net string) int32 {
		if i, ok := netID[net]; ok {
			return i
		}
		i := int32(len(t.nets))
		netID[net] = i
		t.nets = append(t.nets, net)
		return i
	}
	t.clk = id(netlist.ClockNet)
	for _, pi := range n.Inputs {
		t.piNets = append(t.piNets, id(pi))
	}
	for _, po := range n.Outputs {
		t.poNets = append(t.poNets, id(po))
	}
	t.inNet = make([]int32, t.inStart[ni])
	for i, k := range src {
		pins, ct := n.Insts[k].Pins, t.fp[i]
		in := t.inputs(i)
		for j, pin := range ct.Inputs {
			in[j] = id(pins[pin])
		}
		t.outNet[i] = id(pins[ct.Output])
	}

	nn := len(t.nets)
	t.driver = make([]int32, nn)
	t.isPO = make([]bool, nn)
	for i := range t.driver {
		t.driver[i] = -1
	}
	for i, out := range t.outNet {
		t.driver[out] = int32(i)
	}
	for _, po := range t.poNets {
		t.isPO[po] = true
	}
	// Sinks in the exact order FanoutMap produces them: n.Insts order,
	// then cell input order.
	t.sinkStart = make([]int32, nn+1)
	for _, net := range t.inNet {
		t.sinkStart[net+1]++
	}
	for v := 0; v < nn; v++ {
		t.sinkStart[v+1] += t.sinkStart[v]
	}
	next := slices.Clone(t.sinkStart[:nn])
	t.sinks = make([]cSink, len(t.inNet))
	for _, i := range pos {
		for j, net := range t.inputs(int(i)) {
			t.sinks[next[net]] = cSink{inst: i, in: int32(j)}
			next[net]++
		}
	}
	// Sequential endpoint scan order: n.Insts order.
	for _, i := range pos {
		if t.fp[i].Seq {
			t.seqTopo = append(t.seqTopo, i)
		}
	}
	return t, nil
}

// binding resolves one library against a topology: per-instance timing
// views, per-arc input net ids, and the load of every driven net, located
// on the load axis of its driver's cell (locateLoad) so the lookups that
// read it do not search that axis again. A DeltaBinding adds
// per-instance interleaved shift tables and, per CP call, the sample's
// weights.
type binding struct {
	lib    *liberty.Library
	ct     []*liberty.CellTiming
	arcNet [][]int32     // per instance, per arc: input net id (slices of one array)
	load   []liberty.Pos // per net: its located load; the zero Pos for a net without a driver

	tables [][]liberty.ArcShift   // per instance, per arc: its cell's tables, shared
	w      []liberty.DeltaWeights // per n.Insts index; nil = unshifted
}

// shift returns instance i's weights when they shift its tables, nil
// when the instance times on its cell's own tables.
func (b *binding) shift(t *topology, i int) *liberty.DeltaWeights {
	if b.w == nil {
		return nil
	}
	if w := &b.w[t.src[i]]; *w != (liberty.DeltaWeights{}) {
		return w
	}
	return nil
}

// errFootprint signals a cell whose pin footprint deviates from the
// topology's. Every caller fails with it: a binding, and a swap before
// it changes anything.
var errFootprint = errors.New("cell pin footprint differs from the compiled topology")

// footprintMatches reports whether ct has the pins of the footprint fp:
// the same output, the same input names in the same order, and the same
// sequential flag.
func footprintMatches(fp, ct *liberty.CellTiming) bool {
	return ct == fp || ct.Seq == fp.Seq && ct.Output == fp.Output && slices.Equal(ct.Inputs, fp.Inputs)
}

// checkPins reports a cell whose arcs or data pin start somewhere other
// than its inputs: a binding resolves those pins to nets through the
// instance's input nets.
func checkPins(lib *liberty.Library, ct *liberty.CellTiming) error {
	if ct.Seq && !slices.Contains(ct.Inputs, ct.Data) {
		return fmt.Errorf("sta: library %q: data pin %q of cell %q is not an input", lib.Name, ct.Data, ct.Name)
	}
	for ai := range ct.Arcs {
		if !slices.Contains(ct.Inputs, ct.Arcs[ai].Pin) {
			return fmt.Errorf("sta: library %q: arc pin %q of cell %q is not an input", lib.Name, ct.Arcs[ai].Pin, ct.Name)
		}
	}
	return nil
}

// cell returns the binding library's cell of that name for instance i:
// it must exist, have the instance's footprint and start its arcs and
// data pin at inputs. A footprint mismatch is an error wrapping
// errFootprint.
func (b *binding) cell(t *topology, i int, name string) (*liberty.CellTiming, error) {
	ct, ok := b.lib.Cell(name)
	if !ok {
		return nil, fmt.Errorf("sta: library %q has no cell %q (inst %s)", b.lib.Name, name, t.name(i))
	}
	if !footprintMatches(t.fp[i], ct) {
		return nil, fmt.Errorf("sta: %s: library %q, cell %q (inst %s): %w", t.design, b.lib.Name, name, t.name(i), errFootprint)
	}
	if err := checkPins(b.lib, ct); err != nil {
		return nil, err
	}
	return ct, nil
}

// bindInst (re)binds one instance slot to ct, a cell that cell returned.
func (b *binding) bindInst(t *topology, i int, ct *liberty.CellTiming) {
	in := t.inputs(i)
	nets := b.arcNet[i][:0]
	for ai := range ct.Arcs {
		nets = append(nets, in[slices.Index(ct.Inputs, ct.Arcs[ai].Pin)])
	}
	b.ct[i] = ct
	b.arcNet[i] = nets
}

// newBinding binds every instance of the topology to its footprint cell's
// namesake in lib and locates the load of every driven net. A cell whose
// footprint differs fails with an error wrapping errFootprint.
func newBinding(t *topology, lib *liberty.Library, cfg *Config) (*binding, error) {
	ni := len(t.src)
	b := &binding{
		lib:    lib,
		ct:     make([]*liberty.CellTiming, ni),
		arcNet: make([][]int32, ni),
		load:   make([]liberty.Pos, len(t.nets)),
	}
	arcs := 0
	for _, fp := range t.fp {
		arcs += len(fp.Arcs)
	}
	// Each instance's arc nets get their footprint cell's arc count of
	// one shared array; a cell with more arcs reallocates its own slot.
	nets := make([]int32, arcs)
	for i, fp := range t.fp {
		b.arcNet[i], nets = nets[:0:len(fp.Arcs)], nets[len(fp.Arcs):]
		ct, err := b.cell(t, i, fp.Name)
		if err != nil {
			return nil, err
		}
		b.bindInst(t, i, ct)
	}
	// A load sums its sinks' pin caps, so loads follow the cells.
	for net, d := range t.driver {
		if d >= 0 {
			b.load[net] = locateLoad(t, b, int32(net), computeLoad(t, b, cfg, int32(net)))
		}
	}
	return b, nil
}

// compile builds the topology of n against lib and binds lib to it.
func compile(n *netlist.Netlist, lib *liberty.Library, cfg *Config) (*topology, *binding, error) {
	t, err := newTopology(n, lib)
	if err != nil {
		return nil, nil, err
	}
	b, err := newBinding(t, lib, cfg)
	if err != nil {
		return nil, nil, err
	}
	return t, b, nil
}

// cPred is the winning arc into one edge of a net: the instance, the
// index of the arc in its bound cell (whose Pin a traced step reads), the
// arc's input net and edge, and the arc's delay. inst < 0 means "no
// predecessor" (primary inputs, unreached edges). It holds no string, so
// a state's predecessors are 24 bytes a net edge and hold no pointer.
type cPred struct {
	inst    int32
	arc     int32
	fromNet int32
	inEdge  int32 // liberty.Edge
	delay   float64
}

// state holds the per-query timing annotations over a (topology, binding)
// pair. The forward arrays persist across incremental swaps; the backward
// arrays are rebuilt lazily per materialized Result.
type state struct {
	arr    [][2]float64
	slw    [][2]float64
	hasArr []bool
	preds  [][2]cPred

	cp        float64
	bestEnd   int32
	bestEdge  liberty.Edge
	bestSetup float64
}

// newState allocates a state over nn nets; propagate fills it.
func newState(nn int) *state {
	return &state{
		arr:    make([][2]float64, nn),
		slw:    make([][2]float64, nn),
		hasArr: make([]bool, nn),
		preds:  make([][2]cPred, nn),
	}
}

// resetArrivals clears the arrivals, slews and predecessors.
func (s *state) resetArrivals() {
	for i := range s.preds {
		s.arr[i] = [2]float64{}
		s.slw[i] = [2]float64{}
		s.hasArr[i] = false
		s.preds[i] = [2]cPred{{inst: -1}, {inst: -1}}
	}
}

// locateLoad locates load l of a net on the load axis of its driver
// cell's first delay table, since the driver's lookups read it; a table
// of the cell on another axis locates the load again
// (liberty.Table.AtPos). A net that no lookup reads, one without a
// driver or whose driver has no delay table, gets a position on no axis.
func locateLoad(t *topology, b *binding, net int32, l float64) liberty.Pos {
	if d := t.driver[net]; d >= 0 {
		arcs := b.ct[d].Arcs
		for ai := range arcs {
			for _, tb := range arcs[ai].Delay {
				if tb != nil {
					return liberty.Locate(tb.Loads, l)
				}
			}
		}
	}
	return liberty.Locate(nil, l)
}

// computeLoad sums the load of a net in the reference order: wire cap,
// fanout wire adder, sink pin caps in fanout order, then the
// primary-output load.
func computeLoad(t *topology, b *binding, cfg *Config, net int32) float64 {
	sinks := t.fanout(net)
	l := cfg.WireCap
	if len(sinks) > 1 {
		l += cfg.WireCapFan * float64(len(sinks)-1)
	}
	for _, sk := range sinks {
		ct := b.ct[sk.inst]
		l += ct.PinCap[ct.Inputs[sk.in]]
	}
	if t.isPO[net] {
		l += cfg.OutputLoad
	}
	return l
}

// evalInst recomputes the arrival, slew and winning predecessors at one
// instance's output, byte-for-byte the way the reference's main loop
// does. It does not write the state. An arc edge locates its input slew
// once, on its delay table's slew axis, for both its delay and its
// output-slew lookup, and every lookup reads the output load's position.
// With weights w, each lookup reads the instance's interleaved tables
// (b.tables) through liberty.ShiftTable.AtPos instead, so the result
// equals evalInst on a cell whose tables liberty.ShiftTable.Shifted
// built; the interleaved tables are on their base tables' axes, so the
// input slew is located on the base delay table's.
func evalInst(t *topology, b *binding, s *state, cfg *Config, i int, w *liberty.DeltaWeights) (arr, slw [2]float64, pr [2]cPred, err error) {
	neg := math.Inf(-1)
	arr = [2]float64{neg, neg}
	pr = [2]cPred{{inst: -1}, {inst: -1}}
	ct := b.ct[i]
	var sh []liberty.ArcShift
	if w != nil {
		sh = b.tables[i]
	}
	load := b.load[t.outNet[i]]
	if ct.Seq {
		for ai := range ct.Arcs {
			arc := &ct.Arcs[ai]
			if arc.Pin != ct.Clock {
				continue
			}
			for e := liberty.Rise; e <= liberty.Fall; e++ {
				if arc.Delay[e] == nil {
					continue
				}
				sp := liberty.Locate(arc.Delay[e].Slews, cfg.ClockSlew)
				var d float64
				if w == nil {
					d = arc.Delay[e].AtPos(sp, load)
				} else {
					d = sh[ai].Delay[e].AtPos(w, sp, load)
				}
				if d > arr[e] {
					arr[e] = d
					if w == nil {
						slw[e] = arc.OutSlew[e].AtPos(sp, load)
					} else {
						slw[e] = sh[ai].OutSlew[e].AtPos(w, sp, load)
					}
					pr[e] = cPred{inst: int32(i), arc: int32(ai), fromNet: t.clk, inEdge: int32(liberty.Rise), delay: d}
				}
			}
		}
	} else {
		for ai := range ct.Arcs {
			arc := &ct.Arcs[ai]
			inNet := b.arcNet[i][ai]
			if !s.hasArr[inNet] {
				continue // unreachable input (e.g. tied elsewhere)
			}
			ia := s.arr[inNet]
			is := s.slw[inNet]
			for e := liberty.Rise; e <= liberty.Fall; e++ {
				if arc.Delay[e] == nil {
					continue
				}
				ie := arc.Sense.InputEdge(e)
				if math.IsInf(ia[ie], -1) {
					continue
				}
				sp := liberty.Locate(arc.Delay[e].Slews, is[ie])
				var d float64
				if w == nil {
					d = arc.Delay[e].AtPos(sp, load)
				} else {
					d = sh[ai].Delay[e].AtPos(w, sp, load)
				}
				if cand := ia[ie] + d; cand > arr[e] {
					arr[e] = cand
					if w == nil {
						slw[e] = arc.OutSlew[e].AtPos(sp, load)
					} else {
						slw[e] = sh[ai].OutSlew[e].AtPos(w, sp, load)
					}
					pr[e] = cPred{inst: int32(i), arc: int32(ai), fromNet: inNet, inEdge: int32(ie), delay: d}
				}
			}
		}
	}
	if math.IsInf(arr[0], -1) && math.IsInf(arr[1], -1) {
		return arr, slw, pr, fmt.Errorf("sta: instance %s has no arrival (undriven inputs?)", t.name(i))
	}
	return arr, slw, pr, nil
}

// propagate runs the arrival propagation and the endpoint scan from
// cleared arrivals. An instance with nonzero weights in b.w times on its
// shifted tables.
func propagate(t *topology, b *binding, s *state, cfg *Config) error {
	s.resetArrivals()
	for _, pi := range t.piNets {
		s.arr[pi] = [2]float64{0, 0}
		s.slw[pi] = [2]float64{cfg.InputSlew, cfg.InputSlew}
		s.hasArr[pi] = true
	}
	for i := range t.src {
		arr, slw, pr, err := evalInst(t, b, s, cfg, i, b.shift(t, i))
		if err != nil {
			return err
		}
		out := t.outNet[i]
		s.arr[out] = arr
		s.slw[out] = slw
		s.hasArr[out] = true
		s.preds[out] = pr
	}
	return scanEndpoints(t, b, s)
}

// forEndpoint visits every timing endpoint in reference order: primary
// outputs first (duplicates preserved, zero setup), then sequential data
// pins in n.Insts order with their setup times.
func forEndpoint(t *topology, b *binding, fn func(net int32, setup float64)) {
	for _, po := range t.poNets {
		fn(po, 0)
	}
	for _, i := range t.seqTopo {
		ct := b.ct[i]
		fn(t.inputs(int(i))[slices.Index(ct.Inputs, ct.Data)], ct.SetupPS)
	}
}

// scanEndpoints recomputes the critical endpoint exactly in reference
// order, with strictly-greater tie-breaking.
func scanEndpoints(t *topology, b *binding, s *state) error {
	bestEnd := int32(-1)
	bestEdge := liberty.Rise
	bestDelay := math.Inf(-1)
	bestSetup := 0.0
	forEndpoint(t, b, func(net int32, setup float64) {
		if !s.hasArr[net] {
			return
		}
		a := s.arr[net]
		for e := liberty.Rise; e <= liberty.Fall; e++ {
			if a[e]+setup > bestDelay {
				bestDelay = a[e] + setup
				bestEnd, bestEdge, bestSetup = net, e, setup
			}
		}
	})
	if bestEnd < 0 {
		return fmt.Errorf("sta: no timing endpoints in %s", t.design)
	}
	s.cp = bestDelay
	s.bestEnd, s.bestEdge, s.bestSetup = bestEnd, bestEdge, bestSetup
	return nil
}

// materialize builds the public Result (maps keyed by net name, worst
// path, required times and slacks) from the compiled state. The backward
// pass runs here, so pure accept/reject queries that only read CP never
// pay for it.
func materialize(t *topology, b *binding, s *state, cfg *Config) *Result {
	res := &Result{
		CP:       s.cp,
		Arrival:  make(map[string][2]float64, len(t.nets)),
		Slew:     make(map[string][2]float64, len(t.nets)),
		Load:     make(map[string]float64, len(t.nets)),
		Required: make(map[string][2]float64, len(t.nets)),
		Slack:    make(map[string]float64, len(t.nets)),
	}
	inf := math.Inf(1)
	nn := len(t.nets)
	req := make([][2]float64, nn)
	hasReq := make([]bool, nn)
	setReq := func(net int32, e liberty.Edge, v float64) {
		if !hasReq[net] {
			req[net] = [2]float64{inf, inf}
			hasReq[net] = true
		}
		if v < req[net][e] {
			req[net][e] = v
		}
	}
	forEndpoint(t, b, func(net int32, setup float64) {
		setReq(net, liberty.Rise, s.cp-setup)
		setReq(net, liberty.Fall, s.cp-setup)
	})
	for i := len(t.src) - 1; i >= 0; i-- {
		ct := b.ct[i]
		if ct.Seq {
			continue
		}
		out := t.outNet[i]
		if !hasReq[out] {
			continue // dangling output: unconstrained
		}
		load := b.load[out]
		outReq := req[out]
		for ai := range ct.Arcs {
			arc := &ct.Arcs[ai]
			inNet := b.arcNet[i][ai]
			is := s.slw[inNet]
			for e := liberty.Rise; e <= liberty.Fall; e++ {
				if arc.Delay[e] == nil || math.IsInf(outReq[e], 1) {
					continue
				}
				ie := arc.Sense.InputEdge(e)
				d := arc.Delay[e].AtPos(liberty.Locate(arc.Delay[e].Slews, is[ie]), load)
				setReq(inNet, ie, outReq[e]-d)
			}
		}
	}
	for id, name := range t.nets {
		if t.driver[id] >= 0 {
			res.Load[name] = b.load[id].X()
		}
		if hasReq[id] {
			res.Required[name] = req[id]
		}
		if !s.hasArr[id] {
			continue
		}
		res.Arrival[name] = s.arr[id]
		res.Slew[name] = s.slw[id]
		if !hasReq[id] {
			res.Slack[name] = inf
			continue
		}
		sl := inf
		for e := 0; e < 2; e++ {
			if math.IsInf(s.arr[id][e], -1) || math.IsInf(req[id][e], 1) {
				continue
			}
			if v := req[id][e] - s.arr[id][e]; v < sl {
				sl = v
			}
		}
		res.Slack[name] = sl
	}
	res.Worst = traceCompiled(t, b, s, s.bestEnd, s.bestEdge, s.bestSetup)
	return res
}

// traceCompiled reconstructs the timing path ending at one edge of an
// endpoint net by following the compiled predecessors back to its launch.
func traceCompiled(t *topology, b *binding, s *state, end int32, endEdge liberty.Edge, setup float64) Path {
	p := Path{Endpoint: t.nets[end], EndEdge: endEdge, Setup: setup}
	p.Delay = s.arr[end][endEdge] + setup
	net, edge := end, endEdge
	for {
		pr := s.preds[net][edge]
		if pr.inst < 0 {
			break
		}
		p.Steps = append(p.Steps, Step{
			Inst:    t.name(int(pr.inst)),
			Cell:    b.ct[pr.inst].Name,
			Pin:     b.ct[pr.inst].Arcs[pr.arc].Pin,
			FromNet: t.nets[pr.fromNet],
			ToNet:   t.nets[net],
			InEdge:  liberty.Edge(pr.inEdge),
			OutEdge: edge,
			Delay:   pr.delay,
			Arrival: s.arr[net][edge],
		})
		net, edge = pr.fromNet, liberty.Edge(pr.inEdge)
		if net == t.clk {
			break
		}
	}
	p.Launch = t.nets[net]
	for i, j := 0, len(p.Steps)-1; i < j; i, j = i+1, j-1 {
		p.Steps[i], p.Steps[j] = p.Steps[j], p.Steps[i]
	}
	return p
}

// ----------------------------------------------------------------------------
// Analyzer: the reusable incremental engine.

// Analyzer is a reusable STA engine bound to one netlist and one library.
// Construction compiles the netlist topology (levelization, net numbering,
// fanout sinks, endpoint lists) and runs a full analysis; afterwards
// repeated timing queries reuse all of that work, and cell swaps that
// keep the pin footprint (see Swap) re-propagate arrivals only through
// the affected fanout cone.
//
// The Analyzer takes ownership of the netlist: Swap updates Inst.Cell in
// place so the netlist and the compiled state never diverge. It is not
// safe for concurrent use; run one Analyzer per goroutine (a BatchTimer
// is immutable and shared).
type Analyzer struct {
	n      *netlist.Netlist
	t      *topology
	b      *binding
	s      *state
	cfg    Config
	dirty  []bool           // per instance, scratch for Swap propagation
	byName map[string]int32 // instance name -> index, built by the first Swap

	res *Result // cached materialized result, nil after a mutation
}

// NewAnalyzer compiles the netlist against the library and runs the
// initial full analysis. The returned Analyzer owns n (see type comment).
// The construction is counted as one sta.analyses in the registry carried
// by ctx.
func NewAnalyzer(ctx context.Context, n *netlist.Netlist, lib *liberty.Library, cfg Config) (*Analyzer, error) {
	if err := ctx.Err(); err != nil {
		return nil, conc.WrapCanceled(fmt.Errorf("sta: %s: %w", n.Name, err))
	}
	reg := obs.From(ctx)
	t0 := time.Now()
	defer func() {
		reg.Counter("sta.analyses").Inc()
		reg.Histogram("sta.analyze.seconds").Since(t0)
	}()
	cfg.fill()
	t, b, err := compile(n, lib, &cfg)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{n: n, t: t, b: b, s: newState(len(t.nets)), cfg: cfg, dirty: make([]bool, len(t.src))}
	if err := propagate(t, b, a.s, &a.cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// CP returns the current critical-path delay without materializing a full
// Result — the cheap accept/reject query of optimization loops.
func (a *Analyzer) CP() float64 { return a.s.cp }

// Result materializes the full analysis result (arrivals, slews, loads,
// required times, slacks and the worst path) for the current netlist
// state. The result is bit-identical to a fresh Analyze of the
// same netlist and cached until the next mutation; treat it as read-only.
func (a *Analyzer) Result() *Result {
	if a.res == nil {
		a.res = materialize(a.t, a.b, a.s, &a.cfg)
	}
	return a.res
}

// Swap applies cell substitutions and incrementally re-times the
// netlist: only the loads of nets feeding swapped instances are
// recomputed, and arrivals re-propagate through the affected fanout cone
// with early termination where arrival, slew and winning arc all
// converge to their previous values. The returned swaps restore the
// previous cells when passed back to Swap — the undo an optimization loop
// applies after rejecting a trial move.
//
// Every swap is checked before anything changes: an unknown instance or
// cell, or a replacement whose pin footprint differs from the compiled
// one (other pin names or order, or a sequential/combinational mismatch;
// the error wraps errFootprint, as BatchTimer's does), leaves the
// Analyzer and the netlist unchanged and returns an error. A replacement
// that leaves an instance without an arrival fails the re-timing; the
// Analyzer must not be used after that error.
func (a *Analyzer) Swap(ctx context.Context, swaps ...CellSwap) ([]CellSwap, error) {
	if err := ctx.Err(); err != nil {
		return nil, conc.WrapCanceled(fmt.Errorf("sta: %s: %w", a.n.Name, err))
	}
	if len(swaps) == 0 {
		return nil, nil
	}
	reg := obs.From(ctx)
	// Validate everything before mutating anything.
	if a.byName == nil {
		a.byName = a.t.instIndex()
	}
	to := make([]struct {
		i  int32
		ct *liberty.CellTiming
	}, len(swaps))
	for k, sw := range swaps {
		i, ok := a.byName[sw.Inst]
		if !ok {
			return nil, fmt.Errorf("sta: %s: no instance %q", a.n.Name, sw.Inst)
		}
		ct, err := a.b.cell(a.t, int(i), sw.Cell)
		if err != nil {
			return nil, err
		}
		to[k].i, to[k].ct = i, ct
	}
	// The undo list runs back to front, so an instance swapped twice in
	// one call ends on its original cell.
	undo := make([]CellSwap, len(swaps))
	loadDirty := make(map[int32]struct{})
	for k, sw := range swaps {
		i := to[k].i
		in := a.n.Insts[a.t.src[i]]
		undo[len(swaps)-1-k] = CellSwap{Inst: sw.Inst, Cell: in.Cell}
		in.Cell = sw.Cell
		a.b.bindInst(a.t, int(i), to[k].ct)
		a.dirty[i] = true
		for _, net := range a.t.inputs(int(i)) {
			loadDirty[net] = struct{}{}
		}
	}
	a.res = nil
	reg.Counter("sta.incremental.queries").Inc()
	// Recompute the loads of nets whose sink pin caps changed; a changed
	// load is located again and dirties the driving instance (its delay
	// and slew depend on it).
	for net := range loadDirty {
		d := a.t.driver[net]
		if d < 0 {
			continue // no lookup reads it (e.g. a primary input net)
		}
		nl := computeLoad(a.t, a.b, &a.cfg, net)
		if nl == a.b.load[net].X() {
			continue
		}
		a.b.load[net] = locateLoad(a.t, a.b, net, nl)
		a.dirty[d] = true
	}
	// Propagate in topological order through the dirty cone.
	cone := 0
	for i := range a.t.src {
		if !a.dirty[i] {
			continue
		}
		a.dirty[i] = false
		cone++
		arr, slw, pr, err := evalInst(a.t, a.b, a.s, &a.cfg, i, nil)
		if err != nil {
			return undo, err
		}
		out := a.t.outNet[i]
		if arr == a.s.arr[out] && slw == a.s.slw[out] && pr == a.s.preds[out] {
			continue // converged: the cone stops here
		}
		a.s.arr[out] = arr
		a.s.slw[out] = slw
		a.s.preds[out] = pr
		for _, sk := range a.t.fanout(out) {
			if !a.t.fp[sk.inst].Seq {
				a.dirty[sk.inst] = true
			}
		}
	}
	reg.Histogram("sta.incremental.cone_size").Observe(float64(cone))
	return undo, scanEndpoints(a.t, a.b, a.s)
}
