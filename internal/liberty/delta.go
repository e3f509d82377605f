package liberty

// This file holds the first-order table shift of the process-variation
// Monte Carlo path: a table plus weighted per-parameter delta tables,
// floored at zero. Shift builds the whole shifted table, the reference;
// a ShiftTable interleaves a table with its delta tables so that a
// sample can be timed without materializing its tables, reading only
// the four grid corners a lookup needs. Both evaluate each grid point
// with the same per-point function, and At is bilinear in the table
// values, so ShiftTable.At(w, ...) == Shift(..., w).At(...) bit for bit.

// NumDeltaParams is the number of variation parameters a delta set
// carries (package char orders them dVthP, dVthN, dMuP, dMuN).
const NumDeltaParams = 4

// DeltaWeights are one instance's parameter draws: the weights of its
// delta tables.
type DeltaWeights [NumDeltaParams]float64

// ArcDelta holds per-unit-parameter derivative tables for one timing arc:
// Delay[p][e] is dDelay/dparam_p for output edge e on the arc's slew x
// load grid. A nil table contributes nothing.
type ArcDelta struct {
	Delay   [NumDeltaParams][2]*Table
	OutSlew [NumDeltaParams][2]*Table
}

// shifted returns entry [i][j] of t + sum_p w[p]*d[p][e], floored at zero:
// the floor guards against a large negative draw driving a tiny
// fast-corner entry below the physical floor.
func (t *Table) shifted(d *[NumDeltaParams][2]*Table, e Edge, w *DeltaWeights, i, j int) float64 {
	v := t.Values[i][j]
	for p := range w {
		if s := d[p][e]; s != nil {
			v += w[p] * s.Values[i][j]
		}
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Shift returns the output-edge-e table t shifted by the weighted delta
// tables d, on t's axes. A nil table stays nil.
func (t *Table) Shift(d *[NumDeltaParams][2]*Table, e Edge, w *DeltaWeights) *Table {
	if t == nil {
		return nil
	}
	out := NewTable(t.Slews, t.Loads)
	for i, row := range out.Values {
		for j := range row {
			row[j] = t.shifted(d, e, w, i, j)
		}
	}
	return out
}

// ShiftTable is a table interleaved with its output-edge-e delta tables,
// the layout of the Monte Carlo sample step: v holds, for each grid point
// in row-major order, the base entry followed by the entries of the
// delta tables that are present, in ascending parameter order, so a
// lookup reads its four corners from two runs of adjacent values.
type ShiftTable struct {
	slews, loads []float64
	params       [NumDeltaParams]uint8 // present parameters, ascending: params[:np]
	np           int
	v            []float64
}

// Interleave returns t interleaved with the output-edge-e tables of d,
// which must be on t's axes. A nil t gives the zero ShiftTable, which
// must not be read.
func (t *Table) Interleave(d *[NumDeltaParams][2]*Table, e Edge) ShiftTable {
	if t == nil {
		return ShiftTable{}
	}
	st := ShiftTable{slews: t.Slews, loads: t.Loads}
	for p := range d {
		if d[p][e] != nil {
			st.params[st.np] = uint8(p)
			st.np++
		}
	}
	stride := 1 + st.np
	st.v = make([]float64, 0, len(t.Slews)*len(t.Loads)*stride)
	for i, row := range t.Values {
		for j, base := range row {
			st.v = append(st.v, base)
			for _, p := range st.params[:st.np] {
				st.v = append(st.v, d[p][e].Values[i][j])
			}
		}
	}
	return st
}

// shifted is Table.shifted on the interleaved values: the same operands
// in the same order, so the same result bit for bit.
func (st *ShiftTable) shifted(w *DeltaWeights, i, j int) float64 {
	k := (i*len(st.loads) + j) * (1 + st.np)
	v := st.v[k]
	for n, p := range st.params[:st.np] {
		v += w[p] * st.v[k+1+n]
	}
	if v < 0 {
		v = 0
	}
	return v
}

// At returns the table shifted by weights w, looked up at (slew, load):
// t.Shift(d, e, w).At(slew, load) for the t, d and e it was interleaved
// from, computed from the four corners the lookup reads.
func (st *ShiftTable) At(w *DeltaWeights, slew, load float64) float64 {
	i0, i1, fi := locate(st.slews, slew)
	j0, j1, fj := locate(st.loads, load)
	return bilerp(st.shifted(w, i0, j0), st.shifted(w, i0, j1),
		st.shifted(w, i1, j0), st.shifted(w, i1, j1), fi, fj)
}
