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

// shifted returns the entry at v[k] (the base entry of one grid point)
// of the table shifted by weights w: the base entry plus each weighted
// sensitivity, in parameter order, floored at zero. The floor guards
// against a large negative draw driving a tiny fast-corner entry below
// the physical floor.
func (st *ShiftTable) shifted(w *DeltaWeights, k int) float64 {
	v := st.v[k]
	for n, p := range st.params[:st.np] {
		v += w[p] * st.v[k+1+n]
	}
	if v < 0 {
		v = 0
	}
	return v
}

// shift4 is shifted for a table with a sensitivity to every parameter,
// as characterized ones have: its loop written out as four multiply-adds
// in the same order, so the same bits, on the interleaved entry e.
func shift4(w *DeltaWeights, e *[1 + NumDeltaParams]float64) float64 {
	v := e[0] + w[0]*e[1] + w[1]*e[2] + w[2]*e[3] + w[3]*e[4]
	if v < 0 {
		v = 0
	}
	return v
}

// At returns the table shifted by weights w, looked up at (slew, load):
// st.Shifted(w).At(slew, load), computed from the four corners the
// lookup reads. It is AtPos at positions located on the table's axes.
func (st *ShiftTable) At(w *DeltaWeights, slew, load float64) float64 {
	return st.AtPos(w, Locate(st.slews, slew), Locate(st.loads, load))
}

// AtPos is At at a located slew and load, bit for bit
// At(w, slew.X(), load.X()). The table is on the axes of the table it
// was interleaved from, so a position located on those reads it without
// locating again; a position located on another axis is located again.
func (st *ShiftTable) AtPos(w *DeltaWeights, slew, load Pos) float64 {
	if !slew.On(st.slews) || !load.On(st.loads) {
		return st.at(w, Locate(st.slews, slew.x), Locate(st.loads, load.x))
	}
	return st.at(w, slew, load)
}

// at interpolates the shifted table at positions located on its axes.
// It shifts the four corners with shift4 when every parameter has a
// sensitivity; through shifted's loop, such a lookup took about 1.7
// times as long on amd64.
func (st *ShiftTable) at(w *DeltaWeights, slew, load Pos) float64 {
	m, nl := 1+st.np, len(st.loads)
	i0, i1, j0, j1 := int(slew.i.lo)*nl, int(slew.i.hi)*nl, int(load.i.lo), int(load.i.hi)
	k00, k01, k10, k11 := (i0+j0)*m, (i0+j1)*m, (i1+j0)*m, (i1+j1)*m
	if st.np == NumDeltaParams {
		type entry = *[1 + NumDeltaParams]float64
		return bilerp(shift4(w, entry(st.v[k00:])), shift4(w, entry(st.v[k01:])),
			shift4(w, entry(st.v[k10:])), shift4(w, entry(st.v[k11:])), slew.f, load.f)
	}
	return bilerp(st.shifted(w, k00), st.shifted(w, k01), st.shifted(w, k10), st.shifted(w, k11), slew.f, load.f)
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
			row[j] = st.shifted(w, (i*len(st.loads)+j)*(1+st.np))
		}
	}
	return out
}
