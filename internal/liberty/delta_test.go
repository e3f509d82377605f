package liberty

import (
	"math"
	"math/rand"
	"testing"
)

// TestShiftedAtMatchesShiftedTable: a lookup through ShiftedAt equals At
// on the table Shift builds, bit for bit, at clamped, on-grid and
// interior points, with nil delta tables, all-zero weights and weights
// that drive entries through the zero floor.
func TestShiftedAtMatchesShiftedTable(t *testing.T) {
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
	base := rnd(1)
	var d [NumDeltaParams][2]*Table
	for p := range d {
		d[p][Rise] = rnd(0.5)
	}
	d[2][Rise] = nil // a skipped term
	floored := 0
	for trial := 0; trial < 200; trial++ {
		var w DeltaWeights
		if trial%5 != 0 {
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
			if k < 2 {
				slew, load = slews[k+1], loads[k]
			}
			got, want := base.ShiftedAt(&d, Rise, &w, slew, load), full.At(slew, load)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d at (%g, %g): ShiftedAt %v != Shift().At %v", trial, slew, load, got, want)
			}
		}
	}
	if floored == 0 {
		t.Fatal("no entry hit the zero floor")
	}
	var none *Table
	if none.Shift(&d, Rise, &DeltaWeights{1}) != nil {
		t.Error("Shift of a nil table is not nil")
	}
	// No delta tables on the fall edge: the shift is the identity.
	if got := base.Shift(&d, Fall, &DeltaWeights{1, 1, 1, 1}); got.Values[1][1] != max(0, base.Values[1][1]) {
		t.Errorf("shift without delta tables = %v, want %v", got.Values[1][1], max(0, base.Values[1][1]))
	}
}
