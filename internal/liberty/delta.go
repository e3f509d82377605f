package liberty

// This file holds the one sensitivity layout of the process-variation
// Monte Carlo path. A ShiftTable interleaves a table with its first-order
// sensitivities to the four variation parameters, the finite differences
// (q − b)/step of perturbed tables q against the base b
// (Table.Interleave). A sample's table is the base plus the weighted
// sensitivities, floored at zero, and one per-point function (shift4)
// evaluates it: At reads only the four grid corners a lookup needs, so
// a sample can be timed without materializing its tables, and Shifted
// builds the whole table. At is bilinear in the table values, so
// st.At(w, ...) == st.Shifted(w).At(...) bit for bit.

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
// each grid point in row-major order, an entry of the base value
// followed by its sensitivity to each parameter in parameter order, so a
// lookup reads its four corners from two runs of adjacent values. It is
// immutable and shared by every sample and instance that reads it.
type ShiftTable struct {
	slews, loads []float64
	v            []float64
}

// entryLen is the length of a ShiftTable entry: the base value and its
// four sensitivities.
const entryLen = 1 + NumDeltaParams

// entry is one ShiftTable entry, read in place.
type entry = *[entryLen]float64

// Interleave returns t interleaved with the sensitivities
// (pert[p] − t)/step[p] of the four perturbed tables, which must all be
// on t's axes. A nil t gives the zero ShiftTable, which must not be
// read.
func (t *Table) Interleave(pert [NumDeltaParams]*Table, step [NumDeltaParams]float64) ShiftTable {
	if t == nil {
		return ShiftTable{}
	}
	st := ShiftTable{slews: t.Slews, loads: t.Loads}
	st.v = make([]float64, 0, len(t.Slews)*len(t.Loads)*entryLen)
	for i, row := range t.Values {
		for j, b := range row {
			st.v = append(st.v, b)
			for p, q := range pert {
				st.v = append(st.v, (q.Values[i][j]-b)/step[p])
			}
		}
	}
	return st
}

// shift4 returns the interleaved entry e shifted by weights w: the base
// value plus each weighted sensitivity, in parameter order, floored at
// zero. The floor guards against a large negative draw driving a tiny
// fast-corner entry below the physical floor.
func shift4(w *DeltaWeights, e entry) float64 {
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
func (st *ShiftTable) at(w *DeltaWeights, slew, load Pos) float64 {
	nl := len(st.loads)
	i0, i1, j0, j1 := int(slew.i.lo)*nl, int(slew.i.hi)*nl, int(load.i.lo), int(load.i.hi)
	k00, k01, k10, k11 := (i0+j0)*entryLen, (i0+j1)*entryLen, (i1+j0)*entryLen, (i1+j1)*entryLen
	return bilerp(shift4(w, entry(st.v[k00:])), shift4(w, entry(st.v[k01:])),
		shift4(w, entry(st.v[k10:])), shift4(w, entry(st.v[k11:])), slew.f, load.f)
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
			row[j] = shift4(w, entry(st.v[(i*len(st.loads)+j)*entryLen:]))
		}
	}
	return out
}
