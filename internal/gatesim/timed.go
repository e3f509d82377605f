package gatesim

import (
	"container/heap"
	"fmt"

	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/sta"
	"ageguard/internal/units"
)

// TimedSim is an event-driven gate-level simulator with per-arc NLDM
// delays (the equivalent of SDF-annotated Modelsim simulation in the
// paper's flow). Flip-flops sample their data inputs exactly at the clock
// edge, so a combinational path that exceeds the clock period corrupts
// the captured value only in cycles where the late transition is actually
// sensitized — the mechanism behind the paper's image-quality results.
type TimedSim struct {
	nl     *netlist.Netlist
	netIdx map[string]int
	nets   []string

	insts []timedInst
	dffs  []timedDFF
	sinks [][]sinkRef // per net: combinational pins it feeds

	val     []bool
	state   []bool // per dff
	pendSeq []int  // per net: sequence of the pending event (0 = none)
	pendVal []bool

	queue eventQueue
	seq   int

	// maxSetup is the largest flip-flop setup time in the design; data is
	// sampled that long before the clock edge, matching STA's capture
	// requirement (arrival + setup <= period).
	maxSetup float64

	inNets  []int
	outNets []int
}

type sinkRef struct {
	inst int // index into insts
	pin  int // input pin index
}

type timedInst struct {
	tt     uint64
	k      int
	inNets []int
	outNet int
	// delay[pin][inEdge][outEdge]; seconds.
	delay [][2][2]float64
}

type timedDFF struct {
	dNet, qNet int
	clkq       [2]float64 // per output edge
}

type event struct {
	t   float64
	seq int
	net int
	val bool
}

type eventQueue []event

func (q eventQueue) Len() int      { return len(q) }
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q *eventQueue) Push(x any) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// NewTimed builds a timed simulator using the library's delay tables
// evaluated at the STA-annotated slews and loads of each net (res must
// come from sta.Analyze of the same netlist and library).
func NewTimed(nl *netlist.Netlist, lib *liberty.Library, res *sta.Result) (*TimedSim, error) {
	ts := &TimedSim{nl: nl, netIdx: map[string]int{}}
	id := func(net string) int {
		if i, ok := ts.netIdx[net]; ok {
			return i
		}
		i := len(ts.nets)
		ts.netIdx[net] = i
		ts.nets = append(ts.nets, net)
		return i
	}
	look := netlist.LibraryLookup(lib)
	order, err := nl.Levelize(look)
	if err != nil {
		return nil, err
	}
	defaultSlew := 20 * units.Ps
	slewOf := func(net string, e liberty.Edge) float64 {
		if s, ok := res.Slew[net]; ok && s[e] > 0 {
			return s[e]
		}
		return defaultSlew
	}
	loadOf := func(net string) float64 {
		if l, ok := res.Load[net]; ok {
			return l
		}
		return 1 * units.FF
	}
	for _, in := range order {
		ct, ok := lib.Cell(in.Cell)
		if !ok {
			return nil, fmt.Errorf("gatesim: cell %q not in library", in.Cell)
		}
		cell, err := cellFunc(in.Cell)
		if err != nil {
			return nil, err
		}
		outNet := in.Pins[ct.Output]
		load := loadOf(outNet)
		if ct.Seq {
			if ct.SetupPS > ts.maxSetup {
				ts.maxSetup = ct.SetupPS
			}
			d := timedDFF{dNet: id(in.Pins[ct.Data]), qNet: id(outNet)}
			arcs := ct.ArcsFor(ct.Clock)
			if len(arcs) == 0 {
				return nil, fmt.Errorf("gatesim: %s lacks a clock arc", in.Cell)
			}
			for e := liberty.Rise; e <= liberty.Fall; e++ {
				d.clkq[e] = arcs[0].Delay[e].At(defaultSlew, load)
			}
			ts.dffs = append(ts.dffs, d)
			continue
		}
		ti := timedInst{tt: cell.TruthTable(), k: cell.NumInputs(), outNet: id(outNet)}
		ti.inNets = make([]int, ti.k)
		ti.delay = make([][2][2]float64, ti.k)
		for pi, pin := range cell.Inputs {
			inNet := in.Pins[pin]
			ti.inNets[pi] = id(inNet)
			// Delay per (input edge, output edge): pick the arc whose
			// sense links them; fall back to any arc on the pin.
			for ie := liberty.Rise; ie <= liberty.Fall; ie++ {
				for oe := liberty.Rise; oe <= liberty.Fall; oe++ {
					var chosen *liberty.Arc
					for ai := range ct.Arcs {
						a := &ct.Arcs[ai]
						if a.Pin != pin || a.Delay[oe] == nil {
							continue
						}
						if a.Sense.InputEdge(oe) == ie {
							chosen = a
							break
						}
						if chosen == nil {
							chosen = a
						}
					}
					if chosen == nil {
						return nil, fmt.Errorf("gatesim: %s pin %s has no arc", in.Cell, pin)
					}
					ti.delay[pi][ie][oe] = chosen.Delay[oe].At(slewOf(inNet, ie), load)
				}
			}
		}
		ts.insts = append(ts.insts, ti)
	}
	// Sink lists for event fanout.
	ts.sinks = make([][]sinkRef, len(ts.nets))
	for ii := range ts.insts {
		for pi, n := range ts.insts[ii].inNets {
			ts.sinks[n] = append(ts.sinks[n], sinkRef{inst: ii, pin: pi})
		}
	}
	for _, pi := range nl.Inputs {
		ts.inNets = append(ts.inNets, id(pi))
	}
	for _, po := range nl.Outputs {
		ts.outNets = append(ts.outNets, id(po))
	}
	// Re-derive sink lists to cover nets created late (inNets/outNets ids).
	for len(ts.sinks) < len(ts.nets) {
		ts.sinks = append(ts.sinks, nil)
	}
	ts.val = make([]bool, len(ts.nets))
	ts.state = make([]bool, len(ts.dffs))
	ts.pendSeq = make([]int, len(ts.nets))
	ts.pendVal = make([]bool, len(ts.nets))
	// Settle the combinational logic to a consistent initial state
	// (all primary inputs and register outputs low): instances are
	// already in topological order.
	for i := range ts.insts {
		ti := &ts.insts[i]
		ts.val[ti.outNet] = evalBool(ti, ts.val)
	}
	return ts, nil
}

func evalBool(ti *timedInst, val []bool) bool {
	var idx uint
	for i := 0; i < ti.k; i++ {
		if val[ti.inNets[i]] {
			idx |= 1 << uint(i)
		}
	}
	return ti.tt>>idx&1 == 1
}

// schedule posts an inertial-delay event: a newer scheduled value for a
// net replaces any pending one.
func (ts *TimedSim) schedule(t float64, net int, v bool) {
	// If the net already carries v and nothing is pending, skip.
	if ts.pendSeq[net] == 0 && ts.val[net] == v {
		return
	}
	if ts.pendSeq[net] != 0 && ts.pendVal[net] == v {
		return // same value already pending: keep earlier edge (transport-ish)
	}
	ts.seq++
	ts.pendSeq[net] = ts.seq
	ts.pendVal[net] = v
	heap.Push(&ts.queue, event{t: t, seq: ts.seq, net: net, val: v})
}

// apply commits a net change and propagates to sinks at time t.
func (ts *TimedSim) apply(t float64, net int, v bool) {
	if ts.val[net] == v {
		return
	}
	ts.val[net] = v
	edge := liberty.Fall
	if v {
		edge = liberty.Rise
	}
	for _, s := range ts.sinks[net] {
		ti := &ts.insts[s.inst]
		newOut := evalBool(ti, ts.val)
		outEdge := liberty.Fall
		if newOut {
			outEdge = liberty.Rise
		}
		ts.schedule(t+ti.delay[s.pin][edge][outEdge], ti.outNet, newOut)
	}
}

// run processes events with t < until; returns when the queue is drained
// past the horizon (pending events beyond it remain queued).
func (ts *TimedSim) run(until float64) {
	for ts.queue.Len() > 0 {
		if ts.queue[0].t >= until {
			return
		}
		ev := heap.Pop(&ts.queue).(event)
		if ev.seq != ts.pendSeq[ev.net] {
			continue // superseded
		}
		ts.pendSeq[ev.net] = 0
		ts.apply(ev.t, ev.net, ev.val)
	}
}

// flush applies every remaining event irrespective of time, iterating
// until the circuit settles (start-of-cycle steady state).
func (ts *TimedSim) flush() {
	for ts.queue.Len() > 0 {
		ev := heap.Pop(&ts.queue).(event)
		if ev.seq != ts.pendSeq[ev.net] {
			continue
		}
		ts.pendSeq[ev.net] = 0
		ts.apply(ev.t, ev.net, ev.val)
	}
}

// Cycle simulates one clock period: at the edge every flip-flop captures
// its (possibly still-transitioning) data input, Q outputs change after
// their clock-to-Q delays, primary inputs take their new values, and
// events propagate until the next edge. Captured values are returned for
// primary outputs (output-register Q values after this edge).
func (ts *TimedSim) Cycle(inputs map[string]bool, period float64) map[string]bool {
	// Clock edge: capture D values exactly as they are at the edge.
	// A combinational path still in flight (its event beyond the horizon
	// of the previous cycle) is captured at its OLD value — the timing
	// error the paper's system-level study measures.
	for i := range ts.dffs {
		ts.state[i] = ts.val[ts.dffs[i].dNet]
	}
	// Let leftover transitions settle (their timestamps belong to the
	// previous cycle): the next cycle starts from the steady state of the
	// previous inputs, as in a real circuit.
	ts.flush()
	// Q outputs change after their clock-to-Q delays.
	for i := range ts.dffs {
		d := &ts.dffs[i]
		edge := liberty.Fall
		if ts.state[i] {
			edge = liberty.Rise
		}
		ts.schedule(d.clkq[edge], d.qNet, ts.state[i])
	}
	// New primary-input values arrive shortly after the edge.
	for i, pi := range ts.nl.Inputs {
		ts.seq++
		net := ts.inNets[i]
		ts.pendSeq[net] = ts.seq
		ts.pendVal[net] = inputs[pi]
		heap.Push(&ts.queue, event{t: 1 * units.Ps, seq: ts.seq, net: net, val: inputs[pi]})
	}
	// Propagate until the capture point: data must arrive a setup time
	// before the next edge to be latched, exactly as STA requires.
	horizon := period - ts.maxSetup
	if horizon < 0 {
		horizon = 0
	}
	ts.run(horizon)
	out := map[string]bool{}
	for i, po := range ts.nl.Outputs {
		out[po] = ts.val[ts.outNets[i]]
	}
	return out
}

// Value returns the current logic value of a named net.
func (ts *TimedSim) Value(net string) bool {
	if i, ok := ts.netIdx[net]; ok {
		return ts.val[i]
	}
	return false
}
