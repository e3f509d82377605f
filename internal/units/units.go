// Package units provides physical constants and unit helpers shared across
// the device, aging and circuit-simulation packages.
//
// All internal computation is done in SI units (volts, amperes, farads,
// seconds, meters). The helpers here exist to keep magnitudes readable at
// call sites (e.g. 5*units.Ps, 20*units.FF) and to format quantities in the
// units used by the paper (ps, fF, mV).
package units

import "fmt"

// Fundamental physical constants (SI).
const (
	// Q is the elementary charge in coulombs.
	Q = 1.602176634e-19
	// Boltzmann is the Boltzmann constant in J/K.
	Boltzmann = 1.380649e-23
	// Eps0 is the vacuum permittivity in F/m.
	Eps0 = 8.8541878128e-12
	// EpsSiO2 is the relative permittivity of SiO2.
	EpsSiO2 = 3.9
	// EpsSi is the relative permittivity of silicon.
	EpsSi = 11.7
)

// Convenient scale factors. Multiply to convert into SI:
// e.g. 5 * Ps == 5e-12 s, 0.5 * FF == 5e-16 F.
const (
	Ns = 1e-9  // nanosecond in seconds
	Ps = 1e-12 // picosecond in seconds
	FF = 1e-15 // femtofarad in farads
	PF = 1e-12 // picofarad in farads
	Nm = 1e-9  // nanometer in meters
	Um = 1e-6  // micrometer in meters
	MV = 1e-3  // millivolt in volts
	MA = 1e-3  // milliampere in amperes
	UA = 1e-6  // microampere in amperes

	// SecondsPerYear is the length of a (Julian) year in seconds, used by
	// the aging model to convert lifetimes expressed in years.
	SecondsPerYear = 365.25 * 24 * 3600
)

// RoomTempK is the default junction temperature used for characterization.
// The paper characterizes libraries at a fixed elevated operating
// temperature typical for aging analysis.
const RoomTempK = 300.0

// PsString formats a time in seconds as picoseconds with two decimals.
func PsString(sec float64) string { return fmt.Sprintf("%.2fps", sec/Ps) }

// FFString formats a capacitance in farads as femtofarads with two decimals.
func FFString(f float64) string { return fmt.Sprintf("%.2ffF", f/FF) }

// MVString formats a voltage in volts as millivolts with one decimal.
func MVString(v float64) string { return fmt.Sprintf("%.1fmV", v/MV) }

// Clamp limits x to the inclusive range [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
