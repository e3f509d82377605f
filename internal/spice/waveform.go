package spice

import "ageguard/internal/units"

// Waveform is a driven-node voltage as a function of time.
type Waveform interface {
	At(t float64) float64
}

// DC is a constant voltage waveform.
type DC float64

// At returns the constant value.
func (d DC) At(float64) float64 { return float64(d) }

// Ramp is a single linear transition from V0 to V1 starting at T0.
//
// Slew is expressed in the library convention (20%-80% time divided by
// 0.6); the full 0-100% ramp therefore takes exactly Slew seconds, making
// characterized output slews directly reusable as input slews.
type Ramp struct {
	T0   float64 // transition start time [s]
	Slew float64 // full-swing transition time [s]
	V0   float64 // initial voltage [V]
	V1   float64 // final voltage [V]
}

// At evaluates the ramp.
func (r Ramp) At(t float64) float64 {
	if t <= r.T0 {
		return r.V0
	}
	if r.Slew <= 0 || t >= r.T0+r.Slew {
		return r.V1
	}
	return units.Lerp(r.V0, r.V1, (t-r.T0)/r.Slew)
}
