package liberty

import (
	"math"
	"math/rand"
	"testing"
)

// TestShiftTableMatchesShift: a lookup on the interleaved table equals At
// on the table Shift builds, bit for bit, for every subset of nil delta
// tables, at clamped, on-grid and interior points, with all-zero weights
// and with weights that drive entries through the zero floor. A −0 base
// entry whose present delta entries are −0 stays −0 under positive
// weights only if the nil tables are skipped, not added as w·0.
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
	negZero := math.Copysign(0, -1)
	floored, negZeros := 0, 0
	for mask := 0; mask < 1<<NumDeltaParams; mask++ {
		base := rnd(1)
		base.Values[0][0] = negZero
		var d [NumDeltaParams][2]*Table
		for p := range d {
			d[p][Fall] = rnd(0.5) // present on the edge not interleaved
			if mask&(1<<p) != 0 {
				d[p][Rise] = rnd(0.5)
				d[p][Rise].Values[0][0] = negZero
			}
		}
		st := base.Interleave(&d, Rise)
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
					w[p] = 4 * rng.NormFloat64()
				}
			}
			full := base.Shift(&d, Rise, &w)
			for _, row := range full.Values {
				for _, v := range row {
					if v == 0 {
						floored++
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
				if k == 0 && trial%4 == 1 {
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
	if none.Shift(&[NumDeltaParams][2]*Table{}, Rise, &DeltaWeights{1}) != nil {
		t.Error("Shift of a nil table is not nil")
	}
	if st := none.Interleave(&[NumDeltaParams][2]*Table{}, Rise); st.v != nil {
		t.Error("Interleave of a nil table holds values")
	}
}
