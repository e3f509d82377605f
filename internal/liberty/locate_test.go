package liberty

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// locateReference is locate as a binary search (sort.SearchFloat64s), the
// reference the scanning locate is checked against.
func locateReference(axis []float64, x float64) (lo, hi int, f float64) {
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

// randAxis draws a strictly ascending axis of n points, log-spaced with
// jitter like a characterization grid.
func randAxis(rng *rand.Rand, n int) []float64 {
	axis := make([]float64, n)
	x := math.Exp(rng.NormFloat64()) * 1e-12
	for i := range axis {
		axis[i] = x
		x *= 1.2 + 3*rng.Float64()
	}
	return axis
}

// axisProbes returns the points a lookup on axis can ask for: every grid
// point, points between neighbours (midpoints, random fractions and the
// floats next to each grid point), and points beyond both ends.
func axisProbes(rng *rand.Rand, axis []float64) []float64 {
	n := len(axis)
	xs := []float64{axis[0] / 2, axis[0] - 1e-30, -axis[0], 0,
		axis[n-1] * 2, math.Nextafter(axis[n-1], math.Inf(1)), math.Inf(1), math.Inf(-1)}
	for i, a := range axis {
		xs = append(xs, a, math.Nextafter(a, math.Inf(1)), math.Nextafter(a, math.Inf(-1)))
		if i+1 < n {
			b := axis[i+1]
			xs = append(xs, (a+b)/2, a+(b-a)*rng.Float64())
		}
	}
	return xs
}

// TestLocateMatchesReference: the scanning locate finds the same
// bracketing indices and the same fraction bits as the binary search, on
// random ascending axes of 1 to 9 points, at every grid point, between
// points and beyond both ends; Locate carries them into a position that
// is on its own axis and on no other, not even an equal copy.
func TestLocateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		axis := randAxis(rng, 1+trial%9)
		other := slices.Clone(axis)
		for _, x := range axisProbes(rng, axis) {
			lo, hi, f := locate(axis, x)
			wlo, whi, wf := locateReference(axis, x)
			if lo != wlo || hi != whi || math.Float64bits(f) != math.Float64bits(wf) {
				t.Fatalf("axis %v, x %v: locate = (%d, %d, %v), reference (%d, %d, %v)", axis, x, lo, hi, f, wlo, whi, wf)
			}
			p := Locate(axis, x)
			if int(p.i.lo) != lo || int(p.i.hi) != hi || math.Float64bits(p.f) != math.Float64bits(f) || p.X() != x {
				t.Fatalf("axis %v, x %v: Locate = %+v, locate (%d, %d, %v)", axis, x, p, lo, hi, f)
			}
			if !p.On(axis) || p.On(other) || p.On(axis[:len(axis)-1]) {
				t.Fatalf("axis %v, x %v: On(axis) %v, On(equal copy) %v, On(prefix) %v; want true, false, false",
					axis, x, p.On(axis), p.On(other), p.On(axis[:len(axis)-1]))
			}
		}
	}
	if p := Locate(nil, 1); p.On(nil) || p.On([]float64{1}) || p.X() != 1 {
		t.Errorf("Locate on an empty axis = %+v: want a position on no axis holding x", p)
	}
}

// TestAtPosMatchesAt: a position located once and read by every table on
// its axes gives At's bits, for plain and shift tables; a position
// located on another axis, even an equal copy or a differently spaced
// one, is located again, so it gives At's bits too.
func TestAtPosMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	step := [NumDeltaParams]float64{0.01, 0.02, -0.05, -0.04}
	for trial := 0; trial < 60; trial++ {
		slews, loads := randAxis(rng, 1+trial%9), randAxis(rng, 1+(trial/9)%9)
		rnd := func() *Table {
			tb := NewTable(slews, loads)
			for _, row := range tb.Values {
				for j := range row {
					row[j] = rng.NormFloat64()
				}
			}
			return tb
		}
		plain := []*Table{rnd(), rnd()}
		var shifts []ShiftTable
		for _, tb := range plain {
			var pert [NumDeltaParams]*Table
			for p := range pert {
				pert[p] = rnd()
			}
			shifts = append(shifts, tb.Interleave(pert, step))
		}
		w := DeltaWeights{rng.NormFloat64(), rng.NormFloat64(), 3 * rng.NormFloat64(), rng.NormFloat64()}
		// Axes the positions are located on: the tables' own, equal
		// copies, and different axes of other lengths.
		for _, ax := range [][2][]float64{
			{slews, loads},
			{slices.Clone(slews), slices.Clone(loads)},
			{randAxis(rng, 1+rng.Intn(9)), randAxis(rng, 1+rng.Intn(9))},
		} {
			for _, s := range axisProbes(rng, slews) {
				sp := Locate(ax[0], s)
				for _, l := range []float64{loads[0] / 2, loads[len(loads)-1], (loads[0] + loads[len(loads)-1]) / 3} {
					lp := Locate(ax[1], l)
					for k, tb := range plain {
						if got, want := tb.AtPos(sp, lp), tb.At(s, l); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("plain table %d at (%v, %v): AtPos %v, At %v", k, s, l, got, want)
						}
					}
					for k := range shifts {
						st := &shifts[k]
						if got, want := st.AtPos(&w, sp, lp), st.At(&w, s, l); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("shift table %d at (%v, %v): AtPos %v, At %v", k, s, l, got, want)
						}
					}
				}
			}
		}
	}
}
