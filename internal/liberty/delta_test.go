package liberty

import (
	"math"
	"math/rand"
	"testing"
)

// shifted is the independent reference for ShiftTable.shifted: entry
// [i][j] of t + sum_p w[p]*d[p], floored at zero, where a nil d[p]
// contributes nothing.
func (t *Table) shifted(d *[NumDeltaParams]*Table, w *DeltaWeights, i, j int) float64 {
	v := t.Values[i][j]
	for p := range w {
		if s := d[p]; s != nil {
			v += w[p] * s.Values[i][j]
		}
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Shift returns t shifted by the weighted sensitivity tables d, on t's
// axes; a nil t stays nil. It is the reference ShiftTable.Shifted and
// ShiftTable.At are checked against.
func (t *Table) Shift(d *[NumDeltaParams]*Table, w *DeltaWeights) *Table {
	if t == nil {
		return nil
	}
	out := NewTable(t.Slews, t.Loads)
	for i, row := range out.Values {
		for j := range row {
			row[j] = t.shifted(d, w, i, j)
		}
	}
	return out
}

// diffTable returns the sensitivity table (pert − base)/step per grid
// point, nil when pert is nil.
func diffTable(pert, base *Table, step float64) *Table {
	if pert == nil {
		return nil
	}
	out := NewTable(base.Slews, base.Loads)
	for i, row := range base.Values {
		for j, b := range row {
			out.Values[i][j] = (pert.Values[i][j] - b) / step
		}
	}
	return out
}

// TestShiftTableMatchesShift: a table interleaved from perturbed tables
// shifts like the reference Shift on the finite-difference tables, bit
// for bit: Shifted in every entry, and At at clamped, on-grid and
// interior points, for every subset of nil perturbed tables, with
// all-zero weights and with weights that drive entries through the zero
// floor. A −0 base entry whose present sensitivities are −0 (a
// perturbed ±0 over a negative step) stays −0 under positive weights
// only if the parameters without a sensitivity are skipped, not added
// as w·0.
func TestShiftTableMatchesShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	slews, loads := []float64{1, 2, 4, 8}, []float64{10, 20, 40}
	rnd := func(scale float64) *Table {
		tb := NewTable(slews, loads)
		for _, row := range tb.Values {
			for j := range row {
				row[j] = scale * rng.NormFloat64()
			}
		}
		return tb
	}
	// The signs of char's steps: the Vth steps are positive, the
	// mobility steps negative.
	step := [NumDeltaParams]float64{0.01, 0.02, -0.05, -0.04}
	const posSteps = 0b0011
	negZero := math.Copysign(0, -1)
	floored, negZeros := 0, 0
	for mask := 0; mask < 1<<NumDeltaParams; mask++ {
		base := rnd(1)
		base.Values[0][0] = negZero
		var pert [NumDeltaParams]*Table
		var d [NumDeltaParams]*Table
		for p := range pert {
			if mask&(1<<p) != 0 {
				pert[p] = rnd(1)
				pert[p].Values[0][0] = 0
				d[p] = diffTable(pert[p], base, step[p])
			}
		}
		st := base.Interleave(pert, step)
		for trial := 0; trial < 40; trial++ {
			var w DeltaWeights
			switch trial % 4 {
			case 0: // all zero
			case 1:
				for p := range w {
					w[p] = 0.1 + rng.Float64()
				}
			default:
				for p := range w {
					w[p] = 0.04 * rng.NormFloat64()
				}
			}
			full := base.Shift(&d, &w)
			got := st.Shifted(&w)
			for i, row := range full.Values {
				for j, v := range row {
					if v == 0 {
						floored++
					}
					if math.Float64bits(got.Values[i][j]) != math.Float64bits(v) {
						t.Fatalf("mask %04b trial %d [%d][%d]: Shifted %v != Shift %v",
							mask, trial, i, j, got.Values[i][j], v)
					}
				}
			}
			for k := 0; k < 20; k++ {
				slew := slews[0] - 1 + rng.Float64()*(slews[3]-slews[0]+2)
				load := loads[0] - 5 + rng.Float64()*(loads[2]-loads[0]+10)
				switch k {
				case 0: // clamped onto the −0 corner
					slew, load = slews[0]-1, loads[0]-5
				case 1:
					slew, load = slews[2], loads[1]
				case 2:
					slew, load = slews[3]+1, loads[2]+5
				}
				got, want := st.At(&w, slew, load), full.At(slew, load)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("mask %04b trial %d at (%g, %g): ShiftTable.At %v != Shift().At %v",
						mask, trial, slew, load, got, want)
				}
				if k == 0 && trial%4 == 1 && mask&posSteps == 0 {
					if !math.Signbit(want) {
						t.Fatalf("mask %04b: the −0 corner shifted to %v", mask, want)
					}
					negZeros++
				}
			}
		}
	}
	if floored == 0 {
		t.Fatal("no entry hit the zero floor")
	}
	if negZeros == 0 {
		t.Fatal("no lookup read the −0 corner")
	}
	var none *Table
	st := none.Interleave([NumDeltaParams]*Table{}, step)
	if st.v != nil {
		t.Error("Interleave of a nil table holds values")
	}
	if st.Shifted(&DeltaWeights{1}) != nil {
		t.Error("Shifted of the zero ShiftTable is not nil")
	}
}
