package sta

import (
	"context"
	"fmt"
	"math"
	"time"

	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
)

// This file implements the package's one timing engine. It compiles the
// netlist topology once into dense integer-indexed arrays (topology),
// resolves one library against it (binding), and propagates arrivals
// over that compiled form (state). An Analyzer holds all three for one
// library and, after a footprint-preserving cell swap, re-propagates
// arrivals only through the affected fanout cone, terminating early
// where arrivals converge. A BatchTimer shares one topology across many
// libraries. Results are bit-identical to the string-keyed reference
// analysis in reference_test.go: every floating-point operation is
// performed in the same order on the same operands (see analyzer_test.go
// for the differential property tests).

// CellSwap is one footprint-preserving cell substitution: the instance
// keeps its pins and nets, only the library cell (typically a different
// drive strength of the same base) changes.
type CellSwap struct {
	Inst string // instance name
	Cell string // replacement library cell name
}

// cSink is one fanout sink of a net: an instance (by topological index)
// and the input pin through which it loads the net.
type cSink struct {
	inst int32
	pin  string
}

// topology is the library-independent compiled view of a netlist: net and
// instance numbering, traversal order, fanout sinks in deterministic
// reference order, and endpoint lists. It can be shared read-only between
// bindings against different libraries (a BatchTimer does exactly that).
type topology struct {
	n     *netlist.Netlist
	nets  []string         // net id -> name
	netID map[string]int32 // net name -> id
	clk   int32            // id of netlist.ClockNet (always allocated)

	order   []*netlist.Inst  // instances in reference topological order
	instIdx map[string]int32 // instance name -> index into order

	outNet []int32            // per instance: output net id
	pinNet []map[string]int32 // per instance: pin name -> net id
	sinks  [][]cSink          // per net: sinks in reference FanoutMap order
	driver []int32            // per net: driving instance index, -1 = none
	isPO   []bool             // per net: appears in n.Outputs

	poNets  []int32 // n.Outputs in order (duplicates preserved)
	seqTopo []int32 // sequential instances in n.Insts order
	piNets  []int32 // n.Inputs in order

	// Footprint expectations recorded from the library the topology was
	// built with; a binding against another library must match them, or
	// the traversal order and load summation order would differ.
	inputsOf [][]string // per instance: cell input pin names in order
	outputOf []string   // per instance: cell output pin name
	seqOf    []bool     // per instance: sequential?
}

// newTopology compiles the netlist against the cell footprints of lib.
func newTopology(n *netlist.Netlist, lib *liberty.Library) (*topology, error) {
	look := netlist.LibraryLookup(lib)
	order, err := n.Levelize(look)
	if err != nil {
		return nil, err
	}
	t := &topology{
		n:       n,
		netID:   make(map[string]int32, 2*len(n.Insts)),
		order:   order,
		instIdx: make(map[string]int32, len(order)),
	}
	id := func(net string) int32 {
		if i, ok := t.netID[net]; ok {
			return i
		}
		i := int32(len(t.nets))
		t.netID[net] = i
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
	t.outNet = make([]int32, len(order))
	t.pinNet = make([]map[string]int32, len(order))
	t.inputsOf = make([][]string, len(order))
	t.outputOf = make([]string, len(order))
	t.seqOf = make([]bool, len(order))
	for i, in := range order {
		t.instIdx[in.Name] = int32(i)
		ct := lib.MustCell(in.Cell)
		pn := make(map[string]int32, len(in.Pins))
		for pin, net := range in.Pins {
			pn[pin] = id(net)
		}
		t.pinNet[i] = pn
		t.outNet[i] = pn[ct.Output]
		t.inputsOf[i] = ct.Inputs
		t.outputOf[i] = ct.Output
		t.seqOf[i] = ct.Seq
	}
	nn := len(t.nets)
	t.sinks = make([][]cSink, nn)
	t.driver = make([]int32, nn)
	t.isPO = make([]bool, nn)
	for i := range t.driver {
		t.driver[i] = -1
	}
	for _, po := range n.Outputs {
		t.isPO[t.netID[po]] = true
	}
	for i := range order {
		t.driver[t.outNet[i]] = int32(i)
	}
	// Sinks in the exact order FanoutMap produces them: n.Insts order,
	// then cell input order.
	for _, in := range n.Insts {
		ti := t.instIdx[in.Name]
		for _, pin := range t.inputsOf[ti] {
			net := t.pinNet[ti][pin]
			t.sinks[net] = append(t.sinks[net], cSink{inst: ti, pin: pin})
		}
	}
	// Sequential endpoint scan order: n.Insts order.
	for _, in := range n.Insts {
		ti := t.instIdx[in.Name]
		if t.seqOf[ti] {
			t.seqTopo = append(t.seqTopo, ti)
		}
	}
	return t, nil
}

// binding resolves one library against a topology: per-instance timing
// views, clock arcs and per-arc input net ids. A DeltaBinding adds
// per-instance delta tables and, per CP call, the sample's weights.
type binding struct {
	lib       *liberty.Library
	ct        []*liberty.CellTiming
	clockArcs [][]liberty.Arc // sequential instances only
	arcNet    [][]int32       // per instance, per arc: input net id

	delta [][]liberty.ArcDelta   // per instance, per arc: delta tables
	src   []int32                // per instance: its index in n.Insts
	w     []liberty.DeltaWeights // per n.Insts index; nil = unshifted
}

// shift returns instance i's weights when they shift its tables, nil
// when the instance times on its cell's own tables.
func (b *binding) shift(i int) *liberty.DeltaWeights {
	if b.w == nil {
		return nil
	}
	if w := &b.w[b.src[i]]; *w != (liberty.DeltaWeights{}) {
		return w
	}
	return nil
}

// errFootprint signals a cell whose pin footprint deviates from the
// topology's expectations; the caller recompiles the topology.
var errFootprint = fmt.Errorf("sta: cell footprint differs from compiled topology")

func footprintMatches(t *topology, i int, ct *liberty.CellTiming) bool {
	if ct.Seq != t.seqOf[i] || ct.Output != t.outputOf[i] || len(ct.Inputs) != len(t.inputsOf[i]) {
		return false
	}
	for k, pin := range t.inputsOf[i] {
		if ct.Inputs[k] != pin {
			return false
		}
	}
	return true
}

// bindInst (re)binds one instance slot against the binding's library.
func (b *binding) bindInst(t *topology, i int, cell string) error {
	ct, ok := b.lib.Cell(cell)
	if !ok {
		return fmt.Errorf("sta: library %q has no cell %q (inst %s)", b.lib.Name, cell, t.order[i].Name)
	}
	if !footprintMatches(t, i, ct) {
		return errFootprint
	}
	b.ct[i] = ct
	if ct.Seq {
		b.clockArcs[i] = ct.ArcsFor(ct.Clock)
	} else {
		b.clockArcs[i] = nil
	}
	nets := b.arcNet[i][:0]
	for ai := range ct.Arcs {
		nets = append(nets, t.pinNet[i][ct.Arcs[ai].Pin])
	}
	b.arcNet[i] = nets
	return nil
}

// newBinding binds every instance of the topology against lib, using each
// instance's current Cell name.
func newBinding(t *topology, lib *liberty.Library) (*binding, error) {
	b := &binding{
		lib:       lib,
		ct:        make([]*liberty.CellTiming, len(t.order)),
		clockArcs: make([][]liberty.Arc, len(t.order)),
		arcNet:    make([][]int32, len(t.order)),
	}
	for i, in := range t.order {
		if err := b.bindInst(t, i, in.Cell); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// compile builds the topology of n against lib and binds lib to it.
func compile(n *netlist.Netlist, lib *liberty.Library) (*topology, *binding, error) {
	t, err := newTopology(n, lib)
	if err != nil {
		return nil, nil, err
	}
	b, err := newBinding(t, lib)
	if err != nil {
		return nil, nil, err
	}
	return t, b, nil
}

// cPred is the winning arc into one edge of a net, by instance and net
// index. inst < 0 means "no predecessor" (primary inputs, unreached
// edges).
type cPred struct {
	inst    int32
	pin     string
	fromNet int32
	inEdge  liberty.Edge
	delay   float64
}

// state holds the per-query timing annotations over a (topology, binding)
// pair. The forward arrays persist across incremental swaps; the backward
// arrays are rebuilt lazily per materialized Result.
type state struct {
	arr     [][2]float64
	slw     [][2]float64
	hasArr  []bool
	load    []float64
	hasLoad []bool
	preds   [][2]cPred

	cp        float64
	bestEnd   int32
	bestEdge  liberty.Edge
	bestSetup float64
}

func newState(nn int) *state {
	s := &state{
		arr:     make([][2]float64, nn),
		slw:     make([][2]float64, nn),
		hasArr:  make([]bool, nn),
		load:    make([]float64, nn),
		hasLoad: make([]bool, nn),
		preds:   make([][2]cPred, nn),
	}
	s.resetForward()
	return s
}

func (s *state) resetForward() {
	for i := range s.preds {
		s.arr[i] = [2]float64{}
		s.slw[i] = [2]float64{}
		s.hasArr[i] = false
		s.load[i] = 0
		s.hasLoad[i] = false
		s.preds[i] = [2]cPred{{inst: -1}, {inst: -1}}
	}
}

// loadOf returns the load of a net, computing and caching it on first use.
func (s *state) loadOf(t *topology, b *binding, cfg *Config, net int32) float64 {
	if s.hasLoad[net] {
		return s.load[net]
	}
	l := computeLoad(t, b, cfg, net)
	s.load[net] = l
	s.hasLoad[net] = true
	return l
}

// computeLoad sums the load of a net in the reference order: wire cap,
// fanout wire adder, sink pin caps in fanout order, then the
// primary-output load.
func computeLoad(t *topology, b *binding, cfg *Config, net int32) float64 {
	sinks := t.sinks[net]
	l := cfg.WireCap
	if len(sinks) > 1 {
		l += cfg.WireCapFan * float64(len(sinks)-1)
	}
	for _, sk := range sinks {
		l += b.ct[sk.inst].PinCap[sk.pin]
	}
	if t.isPO[net] {
		l += cfg.OutputLoad
	}
	return l
}

// evalInst recomputes the arrival, slew and winning predecessors at one
// instance's output, byte-for-byte the way the reference's main loop
// does. It does not write the state.
func evalInst(t *topology, b *binding, s *state, cfg *Config, i int) (arr, slw [2]float64, pr [2]cPred, err error) {
	neg := math.Inf(-1)
	arr = [2]float64{neg, neg}
	pr = [2]cPred{{inst: -1}, {inst: -1}}
	ct := b.ct[i]
	load := s.loadOf(t, b, cfg, t.outNet[i])
	if ct.Seq {
		for ai := range b.clockArcs[i] {
			arc := &b.clockArcs[i][ai]
			for e := liberty.Rise; e <= liberty.Fall; e++ {
				if arc.Delay[e] == nil {
					continue
				}
				d := arc.Delay[e].At(cfg.ClockSlew, load)
				if d > arr[e] {
					arr[e] = d
					slw[e] = arc.OutSlew[e].At(cfg.ClockSlew, load)
					pr[e] = cPred{inst: int32(i), pin: ct.Clock, fromNet: t.clk, inEdge: liberty.Rise, delay: d}
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
				d := arc.Delay[e].At(is[ie], load)
				if cand := ia[ie] + d; cand > arr[e] {
					arr[e] = cand
					slw[e] = arc.OutSlew[e].At(is[ie], load)
					pr[e] = cPred{inst: int32(i), pin: arc.Pin, fromNet: inNet, inEdge: ie, delay: d}
				}
			}
		}
	}
	if math.IsInf(arr[0], -1) && math.IsInf(arr[1], -1) {
		return arr, slw, pr, fmt.Errorf("sta: instance %s has no arrival (undriven inputs?)", t.order[i].Name)
	}
	return arr, slw, pr, nil
}

// evalShifted is evalInst on the instance's tables shifted by weights w:
// the same operations in the same order, each lookup reading the shifted
// table through liberty.Table.ShiftedAt, so the result equals evalInst
// on a cell whose tables liberty.Table.Shift built.
func evalShifted(t *topology, b *binding, s *state, cfg *Config, i int, w *liberty.DeltaWeights) (arr, slw [2]float64, pr [2]cPred, err error) {
	neg := math.Inf(-1)
	arr = [2]float64{neg, neg}
	pr = [2]cPred{{inst: -1}, {inst: -1}}
	ct := b.ct[i]
	dl := b.delta[i]
	load := s.loadOf(t, b, cfg, t.outNet[i])
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
				d := arc.Delay[e].ShiftedAt(&dl[ai].Delay, e, w, cfg.ClockSlew, load)
				if d > arr[e] {
					arr[e] = d
					slw[e] = arc.OutSlew[e].ShiftedAt(&dl[ai].OutSlew, e, w, cfg.ClockSlew, load)
					pr[e] = cPred{inst: int32(i), pin: ct.Clock, fromNet: t.clk, inEdge: liberty.Rise, delay: d}
				}
			}
		}
	} else {
		for ai := range ct.Arcs {
			arc := &ct.Arcs[ai]
			inNet := b.arcNet[i][ai]
			if !s.hasArr[inNet] {
				continue
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
				d := arc.Delay[e].ShiftedAt(&dl[ai].Delay, e, w, is[ie], load)
				if cand := ia[ie] + d; cand > arr[e] {
					arr[e] = cand
					slw[e] = arc.OutSlew[e].ShiftedAt(&dl[ai].OutSlew, e, w, is[ie], load)
					pr[e] = cPred{inst: int32(i), pin: arc.Pin, fromNet: inNet, inEdge: ie, delay: d}
				}
			}
		}
	}
	if math.IsInf(arr[0], -1) && math.IsInf(arr[1], -1) {
		return arr, slw, pr, fmt.Errorf("sta: instance %s has no arrival (undriven inputs?)", t.order[i].Name)
	}
	return arr, slw, pr, nil
}

// forwardFull runs the complete arrival propagation.
func forwardFull(t *topology, b *binding, s *state, cfg *Config) error {
	s.resetForward()
	for _, pi := range t.piNets {
		s.arr[pi] = [2]float64{0, 0}
		s.slw[pi] = [2]float64{cfg.InputSlew, cfg.InputSlew}
		s.hasArr[pi] = true
	}
	for i := range t.order {
		// An instance with nonzero weights in b.w times on its shifted
		// tables; the choice is made once per instance, not per lookup.
		var arr, slw [2]float64
		var pr [2]cPred
		var err error
		if w := b.shift(i); w != nil {
			arr, slw, pr, err = evalShifted(t, b, s, cfg, i, w)
		} else {
			arr, slw, pr, err = evalInst(t, b, s, cfg, i)
		}
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
		fn(t.pinNet[i][ct.Data], ct.SetupPS)
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
		return fmt.Errorf("sta: no timing endpoints in %s", t.n.Name)
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
	for i := len(t.order) - 1; i >= 0; i-- {
		ct := b.ct[i]
		if ct.Seq {
			continue
		}
		out := t.outNet[i]
		if !hasReq[out] {
			continue // dangling output: unconstrained
		}
		load := s.load[out]
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
				d := arc.Delay[e].At(is[ie], load)
				setReq(inNet, ie, outReq[e]-d)
			}
		}
	}
	for id, name := range t.nets {
		if s.hasLoad[id] {
			res.Load[name] = s.load[id]
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
	res.Worst = traceCompiled(t, s, s.bestEnd, s.bestEdge, s.bestSetup)
	return res
}

// traceCompiled reconstructs the timing path ending at one edge of an
// endpoint net by following the compiled predecessors back to its launch.
func traceCompiled(t *topology, s *state, end int32, endEdge liberty.Edge, setup float64) Path {
	p := Path{Endpoint: t.nets[end], EndEdge: endEdge, Setup: setup}
	p.Delay = s.arr[end][endEdge] + setup
	net, edge := end, endEdge
	for {
		pr := s.preds[net][edge]
		if pr.inst < 0 {
			break
		}
		in := t.order[pr.inst]
		p.Steps = append(p.Steps, Step{
			Inst:    in.Name,
			Cell:    in.Cell,
			Pin:     pr.pin,
			FromNet: t.nets[pr.fromNet],
			ToNet:   t.nets[net],
			InEdge:  pr.inEdge,
			OutEdge: edge,
			Delay:   pr.delay,
			Arrival: s.arr[net][edge],
		})
		net, edge = pr.fromNet, pr.inEdge
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
// repeated timing queries reuse all of that work, and footprint-preserving
// cell swaps (see Swap) re-propagate arrivals only through the affected
// fanout cone.
//
// The Analyzer takes ownership of the netlist: Swap updates Inst.Cell in
// place so the netlist and the compiled state never diverge. It is not
// safe for concurrent use; run one Analyzer per goroutine (a BatchTimer
// shares only the immutable topology).
type Analyzer struct {
	t     *topology
	b     *binding
	s     *state
	cfg   Config
	dirty []bool // per instance, scratch for Swap propagation

	res *Result // cached materialized result, nil after a mutation
}

// NewAnalyzer compiles the netlist against the library and runs the
// initial full analysis. The returned Analyzer owns n (see type comment).
// The construction is counted as one sta.analyses in the registry carried
// by ctx.
func NewAnalyzer(ctx context.Context, n *netlist.Netlist, lib *liberty.Library, cfg Config) (*Analyzer, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sta: %s: %w", n.Name, err)
	}
	reg := obs.From(ctx)
	t0 := time.Now()
	defer func() {
		reg.Counter("sta.analyses").Inc()
		reg.Histogram("sta.analyze.seconds").Since(t0)
	}()
	cfg.fill()
	t, b, err := compile(n, lib)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{t: t, b: b, s: newState(len(t.nets)), cfg: cfg, dirty: make([]bool, len(t.order))}
	if err := forwardFull(t, b, a.s, &a.cfg); err != nil {
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

// Swap applies footprint-preserving cell substitutions and incrementally
// re-times the netlist: only the loads of nets feeding swapped instances
// are recomputed, and arrivals re-propagate through the affected fanout
// cone with early termination where arrival, slew and winning arc all
// converge to their previous values. The returned swaps restore the
// previous cells when passed back to Swap — the undo an optimization loop
// applies after rejecting a trial move.
//
// A replacement cell whose pin footprint differs from the compiled one
// (different pin names or order, or sequential/combinational mismatch)
// cannot be retimed incrementally; Swap then falls back to a full
// re-analysis of the whole netlist (counted as sta.incremental.fallbacks).
// Unknown instances or cells leave the Analyzer unchanged and return an
// error.
func (a *Analyzer) Swap(ctx context.Context, swaps ...CellSwap) ([]CellSwap, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sta: %s: %w", a.t.n.Name, err)
	}
	if len(swaps) == 0 {
		return nil, nil
	}
	reg := obs.From(ctx)
	// Validate everything before mutating anything.
	idx := make([]int32, len(swaps))
	for k, sw := range swaps {
		i, ok := a.t.instIdx[sw.Inst]
		if !ok {
			return nil, fmt.Errorf("sta: %s: no instance %q", a.t.n.Name, sw.Inst)
		}
		if _, ok := a.b.lib.Cell(sw.Cell); !ok {
			return nil, fmt.Errorf("sta: library %q has no cell %q", a.b.lib.Name, sw.Cell)
		}
		idx[k] = i
	}
	// The undo list runs back to front, so an instance swapped twice in
	// one call ends on its original cell.
	undo := make([]CellSwap, len(swaps))
	fallback := false
	loadDirty := make(map[int32]struct{})
	for k, sw := range swaps {
		i := idx[k]
		undo[len(swaps)-1-k] = CellSwap{Inst: sw.Inst, Cell: a.t.order[i].Cell}
		a.t.order[i].Cell = sw.Cell
		if err := a.b.bindInst(a.t, int(i), sw.Cell); err == errFootprint {
			fallback = true
			continue
		} else if err != nil {
			return nil, err // unreachable: cell presence checked above
		}
		a.dirty[i] = true
		for _, pin := range a.t.inputsOf[i] {
			loadDirty[a.t.pinNet[i][pin]] = struct{}{}
		}
	}
	a.res = nil
	reg.Counter("sta.incremental.queries").Inc()
	if fallback {
		// A footprint change invalidates the compiled traversal order;
		// recompile against the mutated netlist and re-run in full.
		reg.Counter("sta.incremental.fallbacks").Inc()
		if err := a.rebuild(); err != nil {
			return nil, err
		}
		return undo, nil
	}
	// Recompute the loads of nets whose sink pin caps changed; a changed
	// load dirties the driving instance (its delay and slew depend on it).
	for net := range loadDirty {
		if !a.s.hasLoad[net] {
			continue // never queried (e.g. a primary input net)
		}
		nl := computeLoad(a.t, a.b, &a.cfg, net)
		if nl == a.s.load[net] {
			continue
		}
		a.s.load[net] = nl
		if d := a.t.driver[net]; d >= 0 {
			a.dirty[d] = true
		}
	}
	// Propagate in topological order through the dirty cone.
	cone := 0
	for i := range a.t.order {
		if !a.dirty[i] {
			continue
		}
		a.dirty[i] = false
		cone++
		arr, slw, pr, err := evalInst(a.t, a.b, a.s, &a.cfg, i)
		if err != nil {
			// The netlist no longer times (should be impossible for pure
			// cell swaps); resync with a full rebuild before reporting.
			reg.Counter("sta.incremental.fallbacks").Inc()
			if rerr := a.rebuild(); rerr != nil {
				return undo, rerr
			}
			return undo, err
		}
		out := a.t.outNet[i]
		if arr == a.s.arr[out] && slw == a.s.slw[out] && pr == a.s.preds[out] {
			continue // converged: the cone stops here
		}
		a.s.arr[out] = arr
		a.s.slw[out] = slw
		a.s.preds[out] = pr
		for _, sk := range a.t.sinks[out] {
			if !a.t.seqOf[sk.inst] {
				a.dirty[sk.inst] = true
			}
		}
	}
	reg.Histogram("sta.incremental.cone_size").Observe(float64(cone))
	return undo, scanEndpoints(a.t, a.b, a.s)
}

// rebuild recompiles topology and binding from the current netlist and
// re-runs the full analysis — Swap's fallback when a footprint changes
// or the incremental sweep fails.
func (a *Analyzer) rebuild() error {
	t, b, err := compile(a.t.n, a.b.lib)
	if err != nil {
		return err
	}
	a.t, a.b = t, b
	a.s = newState(len(t.nets))
	a.dirty = make([]bool, len(t.order))
	a.res = nil
	return forwardFull(t, b, a.s, &a.cfg)
}
