// Package netlist models gate-level netlists: instances of standard cells
// connected by nets, with primary inputs/outputs and an implicit single
// clock for sequential elements. It is the interchange format between
// synthesis (which produces netlists), static timing analysis, gate-level
// simulation and the duty-cycle annotation pass of the paper's dynamic
// aging-stress flow (Sec. 4.2).
package netlist

import (
	"fmt"
	"sort"

	"ageguard/internal/liberty"
)

// ClockNet is the reserved name of the single clock net.
const ClockNet = "clk"

// Inst is one placed cell instance.
type Inst struct {
	Name string
	Cell string            // catalog cell name, possibly lambda-annotated
	Pins map[string]string // pin name -> net name
}

// Output returns the net connected to the given output pin name.
func (in *Inst) Output(pin string) string { return in.Pins[pin] }

// Netlist is a flat gate-level design.
type Netlist struct {
	Name    string
	Inputs  []string // primary input nets (excluding the clock)
	Outputs []string // primary output nets
	Insts   []*Inst
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist { return &Netlist{Name: name} }

// AddInst appends an instance connecting the given pins.
func (n *Netlist) AddInst(name, cell string, pins map[string]string) *Inst {
	in := &Inst{Name: name, Cell: cell, Pins: pins}
	n.Insts = append(n.Insts, in)
	return in
}

// Clone returns a deep copy of the netlist.
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{
		Name:    n.Name,
		Inputs:  append([]string(nil), n.Inputs...),
		Outputs: append([]string(nil), n.Outputs...),
	}
	for _, in := range n.Insts {
		pins := make(map[string]string, len(in.Pins))
		for k, v := range in.Pins {
			pins[k] = v
		}
		c.AddInst(in.Name, in.Cell, pins)
	}
	return c
}

// CellInfo is the subset of cell metadata the netlist checker and
// statistics need; both liberty.Library and the raw catalog can provide it.
type CellInfo struct {
	Inputs  []string
	Output  string
	Seq     bool
	Clock   string
	Data    string
	AreaUm2 float64
}

// Lookup resolves a cell name to its interface metadata.
type Lookup func(cell string) (CellInfo, bool)

// LibraryLookup adapts a liberty library into a Lookup.
func LibraryLookup(lib *liberty.Library) Lookup {
	return func(cell string) (CellInfo, bool) {
		ct, ok := lib.Cell(cell)
		if !ok {
			return CellInfo{}, false
		}
		return CellInfo{
			Inputs: ct.Inputs, Output: ct.Output,
			Seq: ct.Seq, Clock: ct.Clock, Data: ct.Data,
			AreaUm2: ct.AreaUm2,
		}, true
	}
}

// cellPins is the part of an instance's cell metadata levelization reads.
type cellPins struct {
	inputs []string
	seq    bool
}

// driverIndex looks up every instance's cell once, in n.Insts order, and
// maps each driven net to the n.Insts index of its driver; primary inputs
// and the clock have none. It fails on the first unknown cell,
// unconnected output or doubly driven net.
func (n *Netlist) driverIndex(look Lookup) ([]cellPins, map[string]int32, error) {
	cells := make([]cellPins, len(n.Insts))
	drv := make(map[string]int32, len(n.Insts))
	for i, in := range n.Insts {
		ci, ok := look(in.Cell)
		if !ok {
			return nil, nil, fmt.Errorf("netlist: unknown cell %q (inst %s)", in.Cell, in.Name)
		}
		out := in.Pins[ci.Output]
		if out == "" {
			return nil, nil, fmt.Errorf("netlist: inst %s output unconnected", in.Name)
		}
		if prev, dup := drv[out]; dup {
			return nil, nil, fmt.Errorf("netlist: net %q driven by %s and %s", out, n.Insts[prev].Name, in.Name)
		}
		drv[out] = int32(i)
		cells[i] = cellPins{inputs: ci.Inputs, seq: ci.Seq}
	}
	return cells, drv, nil
}

// Fanouts returns net -> list of (instance, input pin) loads.
type PinRef struct {
	Inst *Inst
	Pin  string
}

// FanoutMap computes all sinks of every net.
func (n *Netlist) FanoutMap(look Lookup) (map[string][]PinRef, error) {
	f := map[string][]PinRef{}
	for _, in := range n.Insts {
		ci, ok := look(in.Cell)
		if !ok {
			return nil, fmt.Errorf("netlist: unknown cell %q", in.Cell)
		}
		for _, p := range ci.Inputs {
			net := in.Pins[p]
			if net == "" {
				return nil, fmt.Errorf("netlist: inst %s pin %s unconnected", in.Name, p)
			}
			f[net] = append(f[net], PinRef{Inst: in, Pin: p})
		}
	}
	return f, nil
}

// Check validates structural sanity: known cells, fully connected pins,
// unique drivers, every non-PI net driven, and acyclic combinational logic.
func (n *Netlist) Check(look Lookup) error {
	_, drivers, err := n.driverIndex(look)
	if err != nil {
		return err
	}
	fanouts, err := n.FanoutMap(look)
	if err != nil {
		return err
	}
	sources := map[string]bool{ClockNet: true}
	for _, pi := range n.Inputs {
		sources = setAdd(sources, pi)
	}
	driven := func(net string) bool { _, ok := drivers[net]; return ok }
	for net := range fanouts {
		if !sources[net] && !driven(net) {
			return fmt.Errorf("netlist: net %q has loads but no driver", net)
		}
	}
	for _, po := range n.Outputs {
		if !sources[po] && !driven(po) {
			return fmt.Errorf("netlist: output %q undriven", po)
		}
	}
	if _, err := n.LevelOrder(look); err != nil {
		return err
	}
	return nil
}

func setAdd(m map[string]bool, k string) map[string]bool { m[k] = true; return m }

// Levelize returns the instances in topological order, treating sequential
// cells as sources/sinks (their outputs are launch points): LevelOrder
// mapped back to the instances.
func (n *Netlist) Levelize(look Lookup) ([]*Inst, error) {
	idx, err := n.LevelOrder(look)
	if err != nil {
		return nil, err
	}
	order := make([]*Inst, len(idx))
	for i, k := range idx {
		order[i] = n.Insts[k]
	}
	return order, nil
}

// LevelOrder is the one levelization: Levelize, Check and the sta
// compile all use it. It returns every instance's n.Insts index in
// topological order: sequential instances first in n.Insts order (launch
// points), then the rest in DFS post-order over their combinational
// drivers, roots taken in n.Insts order and fan-ins in cell input order.
// Sequential cells break timing loops. An error is returned on an unknown
// cell, an unconnected output, a doubly driven net or a combinational
// cycle.
func (n *Netlist) LevelOrder(look Lookup) ([]int32, error) {
	cells, drivers, err := n.driverIndex(look)
	if err != nil {
		return nil, err
	}
	const (
		white, grey, black byte = 0, 1, 2
	)
	st := make([]byte, len(n.Insts))
	order := make([]int32, 0, len(n.Insts))

	var visit func(i int32) error
	visit = func(i int32) error {
		switch st[i] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("netlist: combinational cycle through %s", n.Insts[i].Name)
		}
		st[i] = grey
		if c := cells[i]; !c.seq {
			pins := n.Insts[i].Pins
			for _, p := range c.inputs {
				if d, ok := drivers[pins[p]]; ok && !cells[d].seq {
					if err := visit(d); err != nil {
						return err
					}
				}
			}
		}
		st[i] = black
		order = append(order, i)
		return nil
	}
	for i, c := range cells {
		if c.seq {
			st[i] = black
			order = append(order, int32(i))
		}
	}
	for i := range n.Insts {
		if err := visit(int32(i)); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Stats summarizes a netlist.
type Stats struct {
	Cells     int
	Seq       int
	AreaUm2   float64
	CellCount map[string]int // per base usage
}

// ComputeStats tallies instance counts and total area.
func (n *Netlist) ComputeStats(look Lookup) (Stats, error) {
	st := Stats{CellCount: map[string]int{}}
	for _, in := range n.Insts {
		ci, ok := look(in.Cell)
		if !ok {
			return st, fmt.Errorf("netlist: unknown cell %q", in.Cell)
		}
		st.Cells++
		if ci.Seq {
			st.Seq++
		}
		st.AreaUm2 += ci.AreaUm2
		st.CellCount[in.Cell]++
	}
	return st, nil
}

// Nets returns the sorted set of all net names.
func (n *Netlist) Nets() []string {
	set := map[string]bool{}
	for _, in := range n.Insts {
		for _, net := range in.Pins {
			set[net] = true
		}
	}
	for _, s := range n.Inputs {
		set[s] = true
	}
	for _, s := range n.Outputs {
		set[s] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
