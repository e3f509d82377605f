package liberty

// This file holds the one sensitivity layout of the process-variation
// Monte Carlo path. A ShiftTable interleaves a table with its first-order
// sensitivities to the variation parameters, the finite differences
// (q − b)/step of perturbed tables q against the base b
// (Table.Interleave). A sample's table is the base plus the weighted
// sensitivities, floored at zero, and one per-point function
// (ShiftTable.shifted) evaluates it: At reads only the four grid corners
// a lookup needs, so a sample can be timed without materializing its
// tables, and Shifted builds the whole table. At is bilinear in the
// table values, so st.At(w, ...) == st.Shifted(w).At(...) bit for bit.

// NumDeltaParams is the number of variation parameters a ShiftTable
// carries sensitivities to (package char orders them dVthP, dVthN, dMuP,
// dMuN).
const NumDeltaParams = 4

// DeltaWeights are one instance's parameter draws: the weights of its
// sensitivities.
type DeltaWeights [NumDeltaParams]float64

// ArcShift is one timing arc's delay and output-slew tables interleaved
// with their sensitivities, per output edge. An edge without tables
// holds the zero ShiftTable.
type ArcShift struct {
	Delay, OutSlew [2]ShiftTable
}

// ShiftTable is a table interleaved with its sensitivities: v holds, for
// each grid point in row-major order, the base entry followed by the
// sensitivities of the parameters that have one, in ascending parameter
// order, so a lookup reads its four corners from two runs of adjacent
// values. It is immutable and shared by every sample and instance that
// reads it.
type ShiftTable struct {
	slews, loads []float64
	params       [NumDeltaParams]uint8 // parameters with a sensitivity, ascending: params[:np]
	np           int
	v            []float64
}

// Interleave returns t interleaved with the sensitivities
// (pert[p] − t)/step[p] of the perturbed tables, which must be on t's
// axes. A nil pert[p] gives parameter p no sensitivity: it does not
// shift the table. A nil t gives the zero ShiftTable, which must not be
// read.
func (t *Table) Interleave(pert [NumDeltaParams]*Table, step [NumDeltaParams]float64) ShiftTable {
	if t == nil {
		return ShiftTable{}
	}
	st := ShiftTable{slews: t.Slews, loads: t.Loads}
	for p, q := range pert {
		if q != nil {
			st.params[st.np] = uint8(p)
			st.np++
		}
	}
	st.v = make([]float64, 0, len(t.Slews)*len(t.Loads)*(1+st.np))
	for i, row := range t.Values {
		for j, b := range row {
			st.v = append(st.v, b)
			for _, p := range st.params[:st.np] {
				st.v = append(st.v, (pert[p].Values[i][j]-b)/step[p])
			}
		}
	}
	return st
}

// shifted returns entry [i][j] of the table shifted by weights w: the
// base entry plus each weighted sensitivity, floored at zero. The floor
// guards against a large negative draw driving a tiny fast-corner entry
// below the physical floor.
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
// st.Shifted(w).At(slew, load), computed from the four corners the
// lookup reads.
func (st *ShiftTable) At(w *DeltaWeights, slew, load float64) float64 {
	i0, i1, fi := locate(st.slews, slew)
	j0, j1, fj := locate(st.loads, load)
	return bilerp(st.shifted(w, i0, j0), st.shifted(w, i0, j1),
		st.shifted(w, i1, j0), st.shifted(w, i1, j1), fi, fj)
}

// Shifted returns the whole table shifted by weights w, on the base
// table's axes. The zero ShiftTable gives nil.
func (st *ShiftTable) Shifted(w *DeltaWeights) *Table {
	if st.v == nil {
		return nil
	}
	out := NewTable(st.slews, st.loads)
	for i, row := range out.Values {
		for j := range row {
			row[j] = st.shifted(w, i, j)
		}
	}
	return out
}
