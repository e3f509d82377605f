package spice

import (
	"math"
	"testing"

	"ageguard/internal/units"
)

func TestRampEdgeCases(t *testing.T) {
	// Zero slew: an ideal step — V0 up to and including T0, V1 after.
	step := Ramp{T0: 5, Slew: 0, V0: 0.2, V1: 1.1}
	for _, tc := range []struct{ t, want float64 }{
		{-1, 0.2}, {0, 0.2}, {5, 0.2}, {5.0000001, 1.1}, {100, 1.1},
	} {
		if got := step.At(tc.t); got != tc.want {
			t.Errorf("zero-slew Ramp.At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	// Negative slew must behave like zero slew, not extrapolate.
	neg := Ramp{T0: 5, Slew: -3, V0: 0, V1: 1}
	if got := neg.At(6); got != 1 {
		t.Errorf("negative-slew Ramp.At(6) = %v, want 1", got)
	}
	// Falling ramp: V0 > V1, interpolates downward.
	fall := Ramp{T0: 10, Slew: 10, V0: 1.1, V1: 0}
	for _, tc := range []struct{ t, want float64 }{
		{0, 1.1}, {10, 1.1}, {15, 0.55}, {20, 0}, {99, 0},
	} {
		if got := fall.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("falling Ramp.At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	// Exactly at the endpoints of the ramp interval.
	r := Ramp{T0: 1, Slew: 2, V0: 0, V1: 1}
	if got := r.At(1); got != 0 {
		t.Errorf("Ramp.At(T0) = %v, want V0", got)
	}
	if got := r.At(3); got != 1 {
		t.Errorf("Ramp.At(T0+Slew) = %v, want V1", got)
	}
}

func TestPWLEdgeCases(t *testing.T) {
	// Empty PWL is defined as 0 V at all times.
	var empty PWL
	if got := empty.At(42); got != 0 {
		t.Errorf("empty PWL.At = %v, want 0", got)
	}
	// Single point: constant before and after.
	one := PWL{T: []float64{5}, V: []float64{0.7}}
	for _, tt := range []float64{-1, 5, 9} {
		if got := one.At(tt); got != 0.7 {
			t.Errorf("single-point PWL.At(%v) = %v, want 0.7", tt, got)
		}
	}
	// Exactly on interior breakpoints, and beyond the last.
	p := PWL{T: []float64{0, 1, 3}, V: []float64{0, 1, -1}}
	for _, tc := range []struct{ t, want float64 }{
		{0, 0}, {1, 1}, {2, 0}, {3, -1}, {10, -1},
	} {
		if got := p.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("PWL.At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestPulseEdgeCases(t *testing.T) {
	// Non-periodic pulse (Period = 0): one pulse, then V0 forever.
	p := Pulse{V0: 0, V1: 1, Delay: 10, Width: 20, Slew: 2}
	for _, tc := range []struct{ t, want float64 }{
		{0, 0}, {9.999, 0}, {11, 0.5}, {12, 1}, {25, 1}, {31, 0.5}, {32, 0}, {1e6, 0},
	} {
		if got := p.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("non-periodic Pulse.At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	// Period boundary: the waveform restarts exactly at Delay + n*Period.
	pp := Pulse{V0: 0.1, V1: 1, Delay: 10, Width: 20, Period: 50, Slew: 2}
	if got := pp.At(60); got != 0.1 {
		t.Errorf("Pulse at period start = %v, want V0", got)
	}
	if got := pp.At(61); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("Pulse mid rising edge, 2nd period = %v, want 0.55", got)
	}
	if got := pp.At(112); got != 1 {
		t.Errorf("Pulse high, 3rd period = %v, want 1", got)
	}
}

// PWL is a piecewise-linear waveform through the given (T[i], V[i]) points.
// Before the first point it holds V[0]; after the last, V[len-1].
type PWL struct {
	T []float64
	V []float64
}

// At evaluates the piecewise-linear waveform.
func (p PWL) At(t float64) float64 {
	if len(p.T) == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.V[0]
	}
	for i := 1; i < len(p.T); i++ {
		if t <= p.T[i] {
			f := (t - p.T[i-1]) / (p.T[i] - p.T[i-1])
			return units.Lerp(p.V[i-1], p.V[i], f)
		}
	}
	return p.V[len(p.V)-1]
}

// Pulse is a periodic two-level waveform with linear edges: the inputs
// of the catalog transient tests.
type Pulse struct {
	V0, V1 float64 // low and high levels [V]
	Delay  float64 // time of the first leading edge [s]
	Width  float64 // high time, measured edge-start to edge-start [s]
	Period float64 // repetition period [s]
	Slew   float64 // edge transition time [s]
}

// At evaluates the pulse train.
func (p Pulse) At(t float64) float64 {
	if t < p.Delay {
		return p.V0
	}
	tc := t - p.Delay
	if p.Period > 0 {
		n := int(tc / p.Period)
		tc -= float64(n) * p.Period
	}
	switch {
	case tc < p.Slew:
		return units.Lerp(p.V0, p.V1, tc/p.Slew)
	case tc < p.Width:
		return p.V1
	case tc < p.Width+p.Slew:
		return units.Lerp(p.V1, p.V0, (tc-p.Width)/p.Slew)
	default:
		return p.V0
	}
}
