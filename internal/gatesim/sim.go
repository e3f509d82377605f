// Package gatesim implements gate-level simulation of mapped netlists —
// the reproduction's substitute for the Modelsim flow of the paper.
//
// Two modes are provided:
//
//   - Sim: zero-delay, 64-way bit-parallel functional simulation. Used to
//     verify mapped netlists against their RTL and, with workload stimulus,
//     to extract per-net signal probabilities from which per-instance duty
//     cycles (lambda) are derived for the paper's dynamic aging-stress
//     annotation (Sec. 4.2).
//
//   - TimedSim (timed.go): event-driven simulation with per-arc NLDM
//     delays and clock-edge sampling, which injects timing errors exactly
//     when an over-budget path is actually sensitized — the paper's
//     SDF-annotated gate-level simulation for the image-quality study.
package gatesim

import (
	"fmt"

	"ageguard/internal/cells"
	"ageguard/internal/netlist"
)

// cellFunc resolves an instance's (possibly lambda-annotated) cell name to
// the catalog cell carrying its Boolean function.
func cellFunc(name string) (*cells.Cell, error) {
	if c, ok := cells.ByName(name); ok {
		return c, nil
	}
	if _, _, plain, err := netlist.SplitAnnotated(name); err == nil {
		if c, ok := cells.ByName(plain); ok {
			return c, nil
		}
	}
	return nil, fmt.Errorf("gatesim: unknown cell %q", name)
}

// CatalogLookup is a netlist.Lookup backed by the cell catalog, resolving
// lambda-annotated names too. It lets netlist structure checks work
// without a characterized library.
func CatalogLookup(cell string) (netlist.CellInfo, bool) {
	c, err := cellFunc(cell)
	if err != nil {
		return netlist.CellInfo{}, false
	}
	return netlist.CellInfo{
		Inputs: c.Inputs, Output: c.Output,
		Seq: c.Seq, Clock: c.Clock, Data: c.Data,
		AreaUm2: c.AreaUm2,
	}, true
}

type simInst struct {
	tt     uint64
	k      int
	inNets []int
	outNet int
}

type simDFF struct {
	dNet, qNet int
}

// Sim is a zero-delay cycle simulator carrying 64 independent vectors per
// step (one per bit of the input words).
type Sim struct {
	nl      *netlist.Netlist
	netIdx  map[string]int
	nets    []string
	comb    []simInst // in topological order
	dffs    []simDFF
	val     []uint64 // current net values (bit-parallel)
	state   []uint64 // DFF captured values, aligned with dffs
	inNets  []int
	outNets []int
}

// New builds a simulator for the netlist. Annotated cell names resolve to
// their base function.
func New(nl *netlist.Netlist) (*Sim, error) {
	s := &Sim{nl: nl, netIdx: map[string]int{}}
	id := func(net string) int {
		if i, ok := s.netIdx[net]; ok {
			return i
		}
		i := len(s.nets)
		s.netIdx[net] = i
		s.nets = append(s.nets, net)
		return i
	}
	order, err := nl.Levelize(CatalogLookup)
	if err != nil {
		return nil, err
	}
	for _, in := range order {
		c, err := cellFunc(in.Cell)
		if err != nil {
			return nil, err
		}
		if c.Seq {
			s.dffs = append(s.dffs, simDFF{
				dNet: id(in.Pins[c.Data]),
				qNet: id(in.Pins[c.Output]),
			})
			continue
		}
		si := simInst{tt: c.TruthTable(), k: c.NumInputs(), outNet: id(in.Pins[c.Output])}
		for _, p := range c.Inputs {
			si.inNets = append(si.inNets, id(in.Pins[p]))
		}
		s.comb = append(s.comb, si)
	}
	for _, pi := range nl.Inputs {
		s.inNets = append(s.inNets, id(pi))
	}
	for _, po := range nl.Outputs {
		s.outNets = append(s.outNets, id(po))
	}
	s.val = make([]uint64, len(s.nets))
	s.state = make([]uint64, len(s.dffs))
	return s, nil
}

// evalInst computes the bit-parallel output of a cell by minterm expansion
// of its truth table.
func evalInst(si *simInst, val []uint64) uint64 {
	var out uint64
	n := 1 << uint(si.k)
	for m := 0; m < n; m++ {
		if si.tt>>uint(m)&1 == 0 {
			continue
		}
		word := ^uint64(0)
		for i := 0; i < si.k; i++ {
			v := val[si.inNets[i]]
			if m>>uint(i)&1 == 0 {
				v = ^v
			}
			word &= v
			if word == 0 {
				break
			}
		}
		out |= word
	}
	return out
}

// propagate evaluates the combinational logic with current PI and DFF
// state values.
func (s *Sim) propagate() {
	for i := range s.dffs {
		s.val[s.dffs[i].qNet] = s.state[i]
	}
	for i := range s.comb {
		si := &s.comb[i]
		s.val[si.outNet] = evalInst(si, s.val)
	}
}

// Step applies one clock cycle: sets primary inputs (64 vectors packed per
// word, keyed by input name), evaluates, captures flip-flops, and returns
// the primary-output words observed after capture.
func (s *Sim) Step(inputs map[string]uint64) map[string]uint64 {
	for i, pi := range s.nl.Inputs {
		s.val[s.inNets[i]] = inputs[pi]
	}
	s.propagate()
	for i := range s.dffs {
		s.state[i] = s.val[s.dffs[i].dNet]
		s.val[s.dffs[i].qNet] = s.state[i] // outputs reflect the new edge
	}
	out := make(map[string]uint64, len(s.outNets))
	for i, po := range s.nl.Outputs {
		out[po] = s.val[s.outNets[i]]
	}
	return out
}

// Eval runs a purely combinational netlist (or one whose registers should
// be treated as wires for functional checking) on one set of input words
// and returns the primary outputs *before* any register capture.
func (s *Sim) Eval(inputs map[string]uint64) map[string]uint64 {
	for i, pi := range s.nl.Inputs {
		s.val[s.inNets[i]] = inputs[pi]
	}
	// Treat DFFs as transparent for functional checks: copy D through.
	for i := range s.dffs {
		s.state[i] = 0
	}
	s.propagate()
	// Two passes let input-register outputs settle through the logic.
	for i := range s.dffs {
		s.state[i] = s.val[s.dffs[i].dNet]
	}
	s.propagate()
	for i := range s.dffs {
		s.state[i] = s.val[s.dffs[i].dNet]
	}
	s.propagate()
	out := make(map[string]uint64, len(s.outNets))
	for i, po := range s.nl.Outputs {
		out[po] = s.val[s.outNets[i]]
	}
	return out
}

// Activities runs the stimulus for the given number of 64-vector steps and
// returns the per-net signal probability P(net = 1) — the input the
// paper's dynamic-stress flow derives transistor duty cycles from.
func (s *Sim) Activities(stim func(step int) map[string]uint64, steps int) map[string]float64 {
	ones := make([]int, len(s.nets))
	for k := 0; k < steps; k++ {
		s.Step(stim(k))
		for i, v := range s.val {
			ones[i] += popcount64(v)
		}
	}
	total := float64(steps * 64)
	out := make(map[string]float64, len(s.nets))
	for i, n := range s.nets {
		out[n] = float64(ones[i]) / total
	}
	return out
}

func popcount64(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// DeriveLambdas converts per-net signal probabilities into per-instance
// duty cycles following the paper's model: in static CMOS the pMOS devices
// of a cell are stressed while their gate inputs are low and the nMOS
// devices while high, so Avg(lambdaP) = mean over input pins of P(pin=0)
// and Avg(lambdaN) = mean of P(pin=1).
func DeriveLambdas(nl *netlist.Netlist, prob map[string]float64) (map[string]netlist.Lambdas, error) {
	out := make(map[string]netlist.Lambdas, len(nl.Insts))
	for _, in := range nl.Insts {
		c, err := cellFunc(in.Cell)
		if err != nil {
			return nil, err
		}
		out[in.Name] = lambdasFor(c, in, prob)
	}
	return out, nil
}

// lambdasFor derives one instance's duty cycles from its input signal
// probabilities. Cells with no inputs (tie-high/tie-low) would divide
// by zero under the mean-over-inputs rule and emit NaN; their devices
// instead sit at the tied output level the whole time, so the stress
// follows that level: a tie-high output holds every driven gate input
// at 1 (full nMOS stress downstream, and the cell's own pull-up network
// conducts continuously), symmetrically for tie-low.
func lambdasFor(c *cells.Cell, in *netlist.Inst, prob map[string]float64) netlist.Lambdas {
	if len(c.Inputs) == 0 {
		pn := prob[in.Pins[c.Output]]
		return netlist.Lambdas{P: 1 - pn, N: pn}
	}
	var sum float64
	for _, p := range c.Inputs {
		sum += prob[in.Pins[p]]
	}
	pn := sum / float64(len(c.Inputs))
	return netlist.Lambdas{P: 1 - pn, N: pn}
}
