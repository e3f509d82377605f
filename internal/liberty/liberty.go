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
// Slews[i] and output load Loads[j]. Axes must be strictly ascending and
// at most 65535 points long (Locate).
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
// common STA tool behaviour. It is AtPos at positions located on the
// table's own axes; a caller that reads several tables at one point
// locates the point once and calls AtPos.
func (t *Table) At(slew, load float64) float64 {
	return t.AtPos(Locate(t.Slews, slew), Locate(t.Loads, load))
}

// AtPos returns the table's value at a located slew and load, bit for bit
// At(slew.X(), load.X()). A position located on another axis than the
// table's is located again on the table's own.
func (t *Table) AtPos(slew, load Pos) float64 {
	if !slew.On(t.Slews) || !load.On(t.Loads) {
		return t.at(Locate(t.Slews, slew.x), Locate(t.Loads, load.x))
	}
	return t.at(slew, load)
}

// at interpolates at positions located on the table's axes.
func (t *Table) at(slew, load Pos) float64 {
	r0, r1 := t.Values[slew.i.lo], t.Values[slew.i.hi]
	return bilerp(r0[load.i.lo], r0[load.i.hi], r1[load.i.lo], r1[load.i.hi], slew.f, load.f)
}

// bilerp blends the four grid corners a lookup reads (vIJ at slew index
// i, load index j) by the slew and load fractions; Table.AtPos and
// ShiftTable.AtPos share it so they round alike.
func bilerp(v00, v01, v10, v11, fi, fj float64) float64 {
	return v00*(1-fi)*(1-fj) + v01*(1-fi)*fj + v10*fi*(1-fj) + v11*fi*fj
}

// Pos is a value located on one table axis: the indices of the two axis
// points that bracket it and its fraction of the way between them, the
// operands of a lookup along that axis. A position is valid only on the
// axis it was located on (the same slice, not an equal one): On tells,
// and Table.AtPos and ShiftTable.AtPos locate the value again on any
// other axis, so reusing a position never depends on tables sharing
// axes. Binding a library's tables to a netlist fixes every net's load,
// so its position can be located once and read by every lookup.
//
// A Pos is four words of at most four fields, so the compiler keeps it
// in registers when it is passed or returned; a wider one goes through
// memory at every call. That is why the axis indices are 16 bits.
type Pos struct {
	x    float64  // the located value
	f    float64  // fraction of the way from axis point i.lo to i.hi
	axis *float64 // first point of the axis located on; nil for an empty axis
	i    span
}

// span holds a position's bracketing axis indices and its axis's length.
type span struct{ lo, hi, n uint16 }

// Locate locates x on an ascending axis (see Pos) of at most 65535
// points; a longer axis panics. An empty axis gives a position that is
// on no axis.
func Locate(axis []float64, x float64) Pos {
	n := len(axis)
	if n == 0 {
		return Pos{x: x}
	}
	if n > math.MaxUint16 {
		panic(fmt.Sprintf("liberty: cannot locate on an axis of %d points (limit %d)", n, math.MaxUint16))
	}
	lo, hi, f := locate(axis, x)
	return Pos{x: x, f: f, axis: &axis[0], i: span{uint16(lo), uint16(hi), uint16(n)}}
}

// On reports whether p was located on axis.
func (p Pos) On(axis []float64) bool {
	return len(axis) > 0 && len(axis) == int(p.i.n) && &axis[0] == p.axis
}

// X returns the located value.
func (p Pos) X() float64 { return p.x }

// locate finds the bracketing indices and interpolation fraction for x in
// a strictly ascending, non-empty axis, clamping outside the range: the
// first index whose point is not below x, and the one before it. NLDM
// axes are short (7 points here), so a scan from the low end finds it in
// fewer steps than a binary search costs to set up.
func locate(axis []float64, x float64) (lo, hi int, f float64) {
	n := len(axis)
	if n == 1 || x <= axis[0] {
		return 0, 0, 0
	}
	if x >= axis[n-1] {
		return n - 1, n - 1, 0
	}
	hi = 1
	for axis[hi] < x {
		hi++
	}
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
