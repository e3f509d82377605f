// Package liberty implements the timing-library data model consumed by
// the synthesis and static-timing-analysis packages — the reproduction's
// equivalent of Liberty (.lib) NLDM libraries.
//
// A Library holds, per cell, nonlinear delay-model lookup tables: for each
// timing arc (input pin -> output) two 2-D tables indexed by input slew
// and output load capacitance, one for delay and one for output slew, for
// each output edge. Degradation-aware libraries (the paper's contribution)
// are ordinary Libraries whose values were characterized with aged
// transistor models; a MergedLibrary indexes many of them by duty-cycle
// pair, implementing the paper's "complete degradation-aware cell library"
// with CELL_<lambdaP>_<lambdaN> naming.
package liberty

import (
	"fmt"
	"math"
	"sort"

	"ageguard/internal/aging"
)

// Edge is a signal transition direction.
type Edge int

const (
	// Rise is a low-to-high transition.
	Rise Edge = iota
	// Fall is a high-to-low transition.
	Fall
)

// String returns "rise" or "fall".
func (e Edge) String() string {
	if e == Fall {
		return "fall"
	}
	return "rise"
}

// Opposite returns the other edge.
func (e Edge) Opposite() Edge { return 1 - e }

// Table is a 2-D NLDM lookup table: Values[i][j] corresponds to input slew
// Slews[i] and output load Loads[j]. Axes must be strictly ascending.
type Table struct {
	Slews  []float64 // input transition times [s]
	Loads  []float64 // output load capacitances [F]
	Values [][]float64
}

// NewTable allocates a zero-filled table over the given axes. The rows
// are slices of one backing array, each capped at its length so that an
// append to one row cannot run into the next.
func NewTable(slews, loads []float64) *Table {
	nl := len(loads)
	flat := make([]float64, len(slews)*nl)
	v := make([][]float64, len(slews))
	for i := range v {
		v[i] = flat[i*nl : (i+1)*nl : (i+1)*nl]
	}
	return &Table{Slews: slews, Loads: loads, Values: v}
}

// At returns the bilinearly interpolated value at (slew, load). Queries
// outside the characterized region are clamped to the boundary, matching
// common STA tool behaviour.
func (t *Table) At(slew, load float64) float64 {
	i0, i1, fi := locate(t.Slews, slew)
	j0, j1, fj := locate(t.Loads, load)
	return bilerp(t.Values[i0][j0], t.Values[i0][j1], t.Values[i1][j0], t.Values[i1][j1], fi, fj)
}

// bilerp blends the four grid corners a lookup reads (vIJ at slew index
// i, load index j) by the slew and load fractions; Table.At and
// ShiftTable.At share it so they round alike.
func bilerp(v00, v01, v10, v11, fi, fj float64) float64 {
	return v00*(1-fi)*(1-fj) + v01*(1-fi)*fj + v10*fi*(1-fj) + v11*fi*fj
}

// locate finds the bracketing indices and interpolation fraction for x in
// ascending axis, clamping outside the range.
func locate(axis []float64, x float64) (lo, hi int, f float64) {
	n := len(axis)
	if n == 1 || x <= axis[0] {
		return 0, 0, 0
	}
	if x >= axis[n-1] {
		return n - 1, n - 1, 0
	}
	hi = sort.SearchFloat64s(axis, x)
	lo = hi - 1
	return lo, hi, (x - axis[lo]) / (axis[hi] - axis[lo])
}

// Max returns the largest table value.
func (t *Table) Max() float64 {
	m := math.Inf(-1)
	for _, row := range t.Values {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// Scale returns a copy of the table with every value multiplied by k.
func (t *Table) Scale(k float64) *Table {
	out := NewTable(t.Slews, t.Loads)
	for i, row := range t.Values {
		for j, v := range row {
			out.Values[i][j] = v * k
		}
	}
	return out
}

// Arc is one timing arc of a cell: from input pin Pin to the cell output,
// under a fixed sensitization of the side inputs.
type Arc struct {
	Pin   string
	Sense Sense
	// When encodes the side-input values used during characterization as
	// bits over the cell's input order (pin's own bit is ignored).
	When uint

	// Tables per output edge. For a positive-unate arc the Rise tables are
	// driven by an input rise; for negative-unate, by an input fall.
	Delay   [2]*Table // indexed by Edge of the OUTPUT transition
	OutSlew [2]*Table

	// Salvaged lists grid points whose transient simulation failed
	// permanently and whose table entries were interpolated from
	// converged neighbors instead (see package char). Empty for fully
	// simulated arcs. The markers survive .alib serialization so cached
	// libraries disclose their provenance.
	Salvaged []SalvagePoint
}

// SalvagePoint identifies one interpolated (salvaged) grid point of an
// arc: the output edge and the slew/load axis indices.
type SalvagePoint struct {
	Edge Edge
	I, J int
}

// Sense is the polarity relation between input and output transitions.
type Sense int

const (
	// PositiveUnate: output follows the input direction.
	PositiveUnate Sense = iota
	// NegativeUnate: output opposes the input direction.
	NegativeUnate
)

// String returns the liberty-style sense name.
func (s Sense) String() string {
	if s == NegativeUnate {
		return "negative_unate"
	}
	return "positive_unate"
}

// InputEdge returns which input transition produces the given output edge
// under this arc's sense.
func (s Sense) InputEdge(out Edge) Edge {
	if s == PositiveUnate {
		return out
	}
	return out.Opposite()
}

// CellTiming is the timing view of one library cell.
type CellTiming struct {
	Name    string // possibly lambda-indexed name in merged libraries
	Base    string
	Drive   int
	AreaUm2 float64
	Inputs  []string
	Output  string
	PinCap  map[string]float64 // input pin name -> capacitance [F]
	Arcs    []Arc

	// Sequential cells only.
	Seq     bool
	Clock   string
	Data    string
	SetupPS float64 // setup time [s]
	HoldPS  float64 // hold time [s]
}

// ArcsFor returns all arcs originating at the given input pin.
func (ct *CellTiming) ArcsFor(pin string) []Arc {
	var out []Arc
	for _, a := range ct.Arcs {
		if a.Pin == pin {
			out = append(out, a)
		}
	}
	return out
}

// WorstDelay returns the largest delay of any arc/edge at (slew, load),
// a convenient pessimistic summary used by the mapper's quick estimates.
func (ct *CellTiming) WorstDelay(slew, load float64) float64 {
	var w float64
	for _, a := range ct.Arcs {
		for e := 0; e < 2; e++ {
			if a.Delay[e] == nil {
				continue
			}
			if d := a.Delay[e].At(slew, load); d > w {
				w = d
			}
		}
	}
	return w
}

// Library is one characterized library: all cells under a single aging
// scenario.
type Library struct {
	Name     string
	Scenario aging.Scenario
	Vdd      float64
	Slews    []float64 // characterization slew axis
	Loads    []float64 // characterization load axis
	Cells    map[string]*CellTiming
}

// Cell returns the timing view of a cell by name.
func (l *Library) Cell(name string) (*CellTiming, bool) {
	c, ok := l.Cells[name]
	return c, ok
}

// MustCell is Cell that panics on missing names.
func (l *Library) MustCell(name string) *CellTiming {
	c, ok := l.Cells[name]
	if !ok {
		panic(fmt.Sprintf("liberty: library %q has no cell %q", l.Name, name))
	}
	return c
}

// SalvagedPoints counts the interpolated (salvaged) grid points across
// all cells and arcs; 0 means every table entry was simulated.
func (l *Library) SalvagedPoints() int {
	n := 0
	for _, ct := range l.Cells {
		for i := range ct.Arcs {
			n += len(ct.Arcs[i].Salvaged)
		}
	}
	return n
}

// CellNames returns all cell names, sorted.
func (l *Library) CellNames() []string {
	out := make([]string, 0, len(l.Cells))
	for n := range l.Cells {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Merged is the paper's "complete degradation-aware cell library": the
// union of per-scenario libraries with cells renamed CELL_<lp>_<ln>.
// An annotated netlist referencing e.g. "NAND2_X1_0.4_0.6" resolves
// against it directly, making it usable by unmodified STA.
type Merged struct {
	Library
	// Keys lists the lambda keys merged in, e.g. "0.4_0.6".
	Keys []string
}

// MergeLibraries builds the complete library from per-scenario libraries.
// Cell NAME from a library with scenario key K becomes NAME_K.
func MergeLibraries(name string, libs []*Library) *Merged {
	m := &Merged{Library: Library{Name: name, Cells: map[string]*CellTiming{}}}
	for _, l := range libs {
		key := l.Scenario.Key()
		m.Keys = append(m.Keys, key)
		if m.Vdd == 0 {
			m.Vdd = l.Vdd
			m.Slews = l.Slews
			m.Loads = l.Loads
		}
		for cn, ct := range l.Cells {
			cp := *ct
			cp.Name = cn + "_" + key
			m.Cells[cp.Name] = &cp
		}
	}
	sort.Strings(m.Keys)
	return m
}

// IndexedName returns the merged-library cell name for a base cell under
// the given scenario, following the paper's convention
// (e.g. "AND2_X1" + lp=0.4, ln=0.6 -> "AND2_X1_0.4_0.6").
func IndexedName(cell string, lp, ln float64) string {
	return fmt.Sprintf("%s_%.1f_%.1f", cell, lp, ln)
}
