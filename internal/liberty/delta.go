package liberty

// This file holds the first-order table shift of the process-variation
// Monte Carlo path: a table plus weighted per-parameter delta tables,
// floored at zero. Shift builds the whole shifted table; ShiftedAt reads
// one lookup of it straight from the four grid corners that At would
// read, so a sample can be timed without materializing its tables. Both
// evaluate each grid point with the same shifted function, and At is
// bilinear in the table values, so ShiftedAt(...) == Shift(...).At(...)
// bit for bit.

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

// ShiftedAt returns t.Shift(d, e, w).At(slew, load) without building the
// shifted table: it shifts only the four corners the lookup reads.
func (t *Table) ShiftedAt(d *[NumDeltaParams][2]*Table, e Edge, w *DeltaWeights, slew, load float64) float64 {
	i0, i1, fi := locate(t.Slews, slew)
	j0, j1, fj := locate(t.Loads, load)
	return bilerp(t.shifted(d, e, w, i0, j0), t.shifted(d, e, w, i0, j1),
		t.shifted(d, e, w, i1, j0), t.shifted(d, e, w, i1, j1), fi, fj)
}
