// Package cells defines the transistor-level standard-cell set used
// throughout the reproduction — the stand-in for the Nangate 45 nm Open
// Cell Library the paper characterizes.
//
// The set contains 68 combinational and sequential cells (22 logic bases
// at drive strengths X1/X2/X4, plus X8 inverter and buffer), mirroring the
// paper's "68 combinational and sequential gates/cells". More than half of
// the bases are multi-stage (AND/OR with output inverters, XOR/XNOR with
// input inverters, buffered MUX, transmission-gate flip-flop) — the cell
// class the paper stresses cannot be handled by closed-form aging models
// because internal signal slopes matter.
//
// Each cell carries:
//   - a transistor topology (pull-up/pull-down networks with parasitics)
//     for SPICE-level characterization,
//   - a Boolean evaluation function for logic simulation and synthesis
//     matching,
//   - layout-calibrated area and pin capacitances.
package cells

import (
	"fmt"

	"ageguard/internal/device"
	"ageguard/internal/units"
)

// Node names with special meaning inside a Topology.
const (
	NodeVDD = "VDD"
	NodeGND = "GND"
)

// Base transistor widths for drive strength X1.
const (
	BaseWN = 400 * units.Nm // nMOS
	BaseWP = 800 * units.Nm // pMOS (2:1 for hole mobility)
)

// MOSSpec is one transistor of a cell topology. Widths are expressed as a
// multiple of the type's base X1 width; the characterizer scales them by
// the cell's drive strength.
type MOSSpec struct {
	Type    device.Type
	D, G, S string  // node names (pins, VDD/GND, or internal)
	WMult   float64 // width multiplier relative to BaseWN/BaseWP
}

// Topology is the transistor-level structure of a cell.
type Topology struct {
	Devices []MOSSpec
	nextID  int
}

func (t *Topology) fresh() string {
	t.nextID++
	return fmt.Sprintf("x%d", t.nextID)
}

func (t *Topology) nmos(d, g, s string, w float64) {
	t.Devices = append(t.Devices, MOSSpec{Type: device.NMOS, D: d, G: g, S: s, WMult: w})
}

func (t *Topology) pmos(d, g, s string, w float64) {
	t.Devices = append(t.Devices, MOSSpec{Type: device.PMOS, D: d, G: g, S: s, WMult: w})
}

// inv adds a static CMOS inverter in -> out with width multiplier w.
func (t *Topology) inv(in, out string, w float64) {
	t.nmos(out, in, NodeGND, w)
	t.pmos(out, in, NodeVDD, w)
}

// tg adds a transmission gate between a and b controlled by ngate/pgate.
func (t *Topology) tg(a, b, ngate, pgate string, w float64) {
	t.nmos(a, ngate, b, w)
	t.pmos(a, pgate, b, w)
}

// nSeries adds an nMOS chain conducting from 'top' to 'bottom' when all
// gates are high. Series devices are widened by the stack factor.
func (t *Topology) nSeries(top, bottom string, w float64, gates ...string) {
	stack := 1 + 0.5*float64(len(gates)-1)
	cur := top
	for i, g := range gates {
		next := bottom
		if i < len(gates)-1 {
			next = t.fresh()
		}
		t.nmos(cur, g, next, w*stack)
		cur = next
	}
}

// pSeries is nSeries for pMOS (conducting when all gates are low).
func (t *Topology) pSeries(top, bottom string, w float64, gates ...string) {
	stack := 1 + 0.5*float64(len(gates)-1)
	cur := top
	for i, g := range gates {
		next := bottom
		if i < len(gates)-1 {
			next = t.fresh()
		}
		t.pmos(cur, g, next, w*stack)
		cur = next
	}
}

// nParallel adds one nMOS per gate, each between a and b.
func (t *Topology) nParallel(a, b string, w float64, gates ...string) {
	for _, g := range gates {
		t.nmos(a, g, b, w)
	}
}

// pParallel adds one pMOS per gate, each between a and b.
func (t *Topology) pParallel(a, b string, w float64, gates ...string) {
	for _, g := range gates {
		t.pmos(a, g, b, w)
	}
}

// Cell is one standard cell.
type Cell struct {
	Name   string // full name, e.g. "NAND2_X1"
	Base   string // function family, e.g. "NAND2"
	Drive  int    // 1, 2, 4 or 8
	Inputs []string
	Output string

	// Sequential-cell metadata (DFF only).
	Seq   bool
	Clock string // clock pin name
	Data  string // data pin name

	AreaUm2 float64
	Topo    Topology

	eval func(bits uint) bool
}

// NumInputs returns the number of input pins.
func (c *Cell) NumInputs() int { return len(c.Inputs) }

// Eval evaluates the combinational function; bit i of bits is the value of
// Inputs[i]. Calling Eval on a sequential cell panics (its next-state
// behaviour is handled by the gate-level simulator).
func (c *Cell) Eval(bits uint) bool {
	if c.eval == nil {
		panic("cells: Eval on sequential cell " + c.Name)
	}
	return c.eval(bits)
}

// PinIndex returns the position of pin within Inputs, or -1.
func (c *Cell) PinIndex(pin string) int {
	for i, p := range c.Inputs {
		if p == pin {
			return i
		}
	}
	return -1
}

// TruthTable returns the function as a bitmask over all 2^n input
// combinations: bit k of the result is Eval(k). Used by the technology
// mapper for Boolean matching. Panics for sequential cells or >6 inputs.
func (c *Cell) TruthTable() uint64 {
	n := c.NumInputs()
	if n > 6 {
		panic("cells: truth table too wide")
	}
	var tt uint64
	for k := uint(0); k < 1<<n; k++ {
		if c.Eval(k) {
			tt |= 1 << k
		}
	}
	return tt
}

// DeviceParams returns the concrete transistor parameters for spec within
// this cell (applying the drive-strength multiplier), before aging.
func (c *Cell) DeviceParams(tech device.Tech, spec MOSSpec) device.Params {
	w := spec.WMult * float64(c.Drive)
	if spec.Type == device.NMOS {
		return tech.Transistor(device.NMOS, w*BaseWN)
	}
	return tech.Transistor(device.PMOS, w*BaseWP)
}

// PinCap returns the input capacitance of the given pin: the summed gate
// capacitance of every transistor whose gate connects to it.
func (c *Cell) PinCap(tech device.Tech, pin string) float64 {
	var sum float64
	for _, d := range c.Topo.Devices {
		if d.G == pin {
			sum += c.DeviceParams(tech, d).CGate
		}
	}
	return sum
}

// TotalWidth returns the summed channel width of all transistors [m],
// the basis for the area model.
func (c *Cell) TotalWidth() float64 {
	var sum float64
	for _, d := range c.Topo.Devices {
		w := d.WMult * float64(c.Drive)
		if d.Type == device.NMOS {
			sum += w * BaseWN
		} else {
			sum += w * BaseWP
		}
	}
	return sum
}

// area computes the layout-calibrated cell area in um^2: proportional to
// total transistor width plus fixed routing overhead, normalized so a
// minimum inverter is ~0.53 um^2 (Nangate 45 nm INV_X1).
func area(c *Cell) float64 {
	const perUm = 0.28  // um^2 per um of channel width
	const fixed = 0.196 // well/rail overhead
	return fixed + perUm*c.TotalWidth()/units.Um
}

func (c *Cell) String() string { return c.Name }
