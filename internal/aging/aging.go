// Package aging implements the physics-based BTI (Bias Temperature
// Instability) degradation model used to build degradation-aware cell
// libraries.
//
// Following the framework the paper adopts (Joshi et al., IRPS'12; Amrouch
// et al., ICCAD'14), BTI is modelled as the joint effect of
//
//   - interface traps (NIT): Si-H bond dissociation at the Si/SiO2
//     interface, following a reaction-diffusion power law ~ t^(1/6), and
//   - oxide traps (NOT): charge capture in pre-existing dielectric
//     vacancies, following a log-time capture law,
//
// both scaled by an activity factor derived from the transistor's duty
// cycle lambda (the fraction of time the device is under stress: gate low
// for pMOS/NBTI, gate high for nMOS/PBTI).
//
// The two observable degradations are exactly the paper's Eq. (2) and (3):
//
//	dVth = q/Cox * (dNIT + dNOT)                                   (2)
//	mu   = mu0 / (1 + alpha*dNIT)                                  (3)
//
// NBTI (pMOS) is stronger than PBTI (nMOS) in high-k/metal-gate nodes; the
// default constants are calibrated so that 10 years of worst-case stress
// (lambda = 1) produce a pMOS dVth of ~65 mV with ~11% mobility loss and
// an nMOS dVth of ~31 mV with <1% mobility loss — the magnitudes behind
// the paper's reported gate-delay shifts. The kinetics are capture
// dominated (log-time), so ~85% of the 10-year shift is present after the
// first year of stress.
package aging

import (
	"fmt"
	"math"
	"strconv"

	"ageguard/internal/units"
)

// Scenario describes one aging stress condition for a whole library:
// how long, how hot, at what supply, and with which duty cycles for the
// two device polarities. The paper sweeps LambdaP x LambdaN over
// {0.0, 0.1, ..., 1.0} producing 121 scenarios (plus the fresh case).
type Scenario struct {
	Years   float64 // operational lifetime [years]
	TempK   float64 // stress temperature [K]
	Vdd     float64 // stress voltage [V]
	LambdaP float64 // duty cycle of pMOS devices (fraction of time gate=0)
	LambdaN float64 // duty cycle of nMOS devices (fraction of time gate=1)
}

// Fresh returns the no-aging scenario (t = 0).
func Fresh() Scenario { return Scenario{TempK: units.RoomTempK, Vdd: 1.1} }

// WorstCase returns the paper's worst-case static stress: both duty cycles
// at 1.0 for the given lifetime.
func WorstCase(years float64) Scenario {
	return Scenario{Years: years, TempK: units.RoomTempK + 80, Vdd: 1.1, LambdaP: 1, LambdaN: 1}
}

// BalanceCase returns the lambda = 0.5 scenario that duty-cycle-balancing
// mitigation techniques aim for.
func BalanceCase(years float64) Scenario {
	s := WorstCase(years)
	s.LambdaP, s.LambdaN = 0.5, 0.5
	return s
}

// WithLambda returns a copy of s with the duty cycles replaced.
func (s Scenario) WithLambda(lp, ln float64) Scenario {
	s.LambdaP, s.LambdaN = lp, ln
	return s
}

// Validate reports whether the scenario is physically meaningful:
// every field finite, lifetime non-negative, duty cycles in [0, 1].
// NaN must be rejected by name — it slips through plain range
// comparisons (every comparison involving NaN is false), which is
// exactly how an unguarded workload-derived duty cycle used to reach
// the degradation model and poison every downstream delay.
func (s Scenario) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"years", s.Years},
		{"temp_k", s.TempK},
		{"vdd", s.Vdd},
		{"lambda_p", s.LambdaP},
		{"lambda_n", s.LambdaN},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("aging: scenario %s = %g is not finite", f.name, f.v)
		}
	}
	if s.Years < 0 {
		return fmt.Errorf("aging: negative lifetime %g years", s.Years)
	}
	if s.LambdaP < 0 || s.LambdaP > 1 || s.LambdaN < 0 || s.LambdaN > 1 {
		return fmt.Errorf("aging: duty cycles (%g, %g) outside [0, 1]", s.LambdaP, s.LambdaN)
	}
	return nil
}

// String formats the scenario as e.g. "10.0y lp=1.0 ln=1.0".
func (s Scenario) String() string {
	return fmt.Sprintf("%.1fy lp=%.1f ln=%.1f", s.Years, s.LambdaP, s.LambdaN)
}

// Key returns a compact identifier usable in cell/library names, using the
// paper's index convention, e.g. "0.4_0.6" for lambdaP=0.4, lambdaN=0.6.
// It names the duty cycles only, to one decimal: scenarios that differ
// in lifetime, temperature, supply or a finer duty cycle share it. Cache
// keys use ExactKey.
func (s Scenario) Key() string {
	return fmt.Sprintf("%.1f_%.1f", s.LambdaP, s.LambdaN)
}

// ExactKey identifies the scenario with full fidelity, for cache keys
// and cache file names: every field as the hex of its IEEE-754 bits,
// joined by '_'. Distinct scenarios never share it (Key would alias
// worst case at 10 and at 10.04 years, or duty cycles 0.25/0.75 and
// 0.2/0.8), it uses only file-name-safe characters, and it is an order
// of magnitude cheaper than shortest-decimal formatting.
func (s Scenario) ExactKey() string {
	b := make([]byte, 0, 84)
	for i, f := range [...]float64{s.Years, s.TempK, s.Vdd, s.LambdaP, s.LambdaN} {
		if i > 0 {
			b = append(b, '_')
		}
		b = strconv.AppendUint(b, math.Float64bits(f), 16)
	}
	return string(b)
}

// Model holds the BTI model constants. The zero value is not useful;
// use DefaultModel (calibrated as described in the package comment).
type Model struct {
	// Interface-trap generation: dNIT = KitP/N * A(lambda) * (t/t0)^ExpN
	// * field and temperature acceleration.
	KitP, KitN float64 // prefactor [traps/m^2] at reference stress
	ExpN       float64 // time exponent (reaction-diffusion: 1/6)
	T0         float64 // reference time [s]

	// Oxide-trap capture: dNOT = KotP/N * A(lambda) * ln(1 + t/TauOT).
	KotP, KotN float64 // prefactor [traps/m^2]
	TauOT      float64 // capture time constant [s]

	// Field & temperature acceleration (applied to both mechanisms).
	GammaE float64 // field exponent: (Vdd/VddRef)^GammaE
	VddRef float64 // reference stress voltage [V]
	EaIT   float64 // activation energy [eV]
	TRef   float64 // reference temperature [K]

	// Activity (duty-cycle) exponent: A(lambda) = lambda^ExpLambda.
	// Sub-linear, matching measured AC/DC BTI ratios (~0.75 at 50%).
	ExpLambda float64

	// Mobility degradation coupling alpha of Eq. (3) [m^2/trap].
	AlphaMuP, AlphaMuN float64

	// Cox used in Eq. (2) [F/m^2]; must match the device technology card.
	Cox float64
}

// DefaultModel returns the calibrated 45 nm high-k BTI model.
func DefaultModel() Model {
	// The trap mix follows high-k CET-map measurements: oxide-trap capture
	// (log-time, saturating early) dominates, with a smaller
	// reaction-diffusion interface component — so roughly 85% of the
	// 10-year threshold shift is already present after the first year,
	// which is what makes unguardbanded designs fail early (Fig. 7).
	return Model{
		KitP:      2.15e15, // -> ~10 mV interface share @10y worst-case pMOS
		KitN:      0.65e15, // PBTI interface generation is weak in HKMG
		ExpN:      1.0 / 6.0,
		T0:        10 * units.SecondsPerYear,
		KotP:      6.05e14, // -> ~55 mV oxide share @10y worst-case pMOS
		KotN:      3.08e14, // PBTI is oxide-trap dominated
		TauOT:     1.0,     // fast-capture CET tail
		GammaE:    3.0,
		VddRef:    1.1,
		EaIT:      0.09,
		TRef:      units.RoomTempK + 80,
		ExpLambda: 0.35,
		AlphaMuP:  5.86e-17,
		AlphaMuN:  1.08e-17,
		Cox:       3.45e-2,
	}
}

// Degradation is the device-observable outcome of BTI stress.
type Degradation struct {
	DVth     float64 // threshold-voltage shift magnitude [V]
	MuFactor float64 // mobility multiplier mu/mu0 in (0, 1]
	NIT      float64 // generated interface traps [1/m^2]
	NOT      float64 // captured oxide traps [1/m^2]
}

// String formats the degradation for reports.
func (d Degradation) String() string {
	return fmt.Sprintf("dVth=%s mu/mu0=%.3f", units.MVString(d.DVth), d.MuFactor)
}

// accel returns the combined voltage/temperature acceleration factor.
func (m Model) accel(s Scenario) float64 {
	v := math.Pow(s.Vdd/m.VddRef, m.GammaE)
	// Arrhenius around the reference temperature (eV -> J via units.Q).
	t := math.Exp(m.EaIT * units.Q / units.Boltzmann * (1/m.TRef - 1/s.TempK))
	return v * t
}

// activity maps a duty cycle to the fraction of DC degradation observed
// under AC stress with that duty cycle.
func (m Model) activity(lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	return math.Pow(units.Clamp(lambda, 0, 1), m.ExpLambda)
}

// PMOS returns the NBTI degradation of a pMOS device under scenario s.
func (m Model) PMOS(s Scenario) Degradation {
	return m.degrade(s, s.LambdaP, m.KitP, m.KotP, m.AlphaMuP)
}

// NMOS returns the PBTI degradation of an nMOS device under scenario s.
func (m Model) NMOS(s Scenario) Degradation {
	return m.degrade(s, s.LambdaN, m.KitN, m.KotN, m.AlphaMuN)
}

func (m Model) degrade(s Scenario, lambda, kit, kot, alphaMu float64) Degradation {
	if s.Years <= 0 || lambda <= 0 {
		return Degradation{MuFactor: 1}
	}
	t := s.Years * units.SecondsPerYear
	acc := m.accel(s)
	act := m.activity(lambda)
	nit := kit * act * acc * math.Pow(t/m.T0, m.ExpN)
	not := kot * act * acc * math.Log1p(t/m.TauOT)
	dvth := units.Q / m.Cox * (nit + not)
	mu := 1 / (1 + alphaMu*nit)
	return Degradation{DVth: dvth, MuFactor: mu, NIT: nit, NOT: not}
}

// VthOnly returns a copy of d with the mobility degradation removed. It is
// used to model the state-of-the-art approaches the paper compares against
// ([9,11,12,13]) which consider Vth degradation only (Fig. 5a).
func (d Degradation) VthOnly() Degradation {
	d.MuFactor = 1
	return d
}

// LambdaGrid returns the paper's duty-cycle grid {0.0, 0.1, ..., 1.0}.
func LambdaGrid() []float64 {
	g := make([]float64, 11)
	for i := range g {
		g[i] = float64(i) / 10
	}
	return g
}

// GridScenarios enumerates the paper's 121 (lambdaP, lambdaN) scenarios for
// the given lifetime, in row-major (lambdaP outer) order.
func GridScenarios(years float64) []Scenario {
	base := WorstCase(years)
	var out []Scenario
	for _, lp := range LambdaGrid() {
		for _, ln := range LambdaGrid() {
			out = append(out, base.WithLambda(lp, ln))
		}
	}
	return out
}

// SnapLambda rounds a duty cycle to the nearest grid point (0.1 step),
// used when annotating netlists with workload-extracted activities.
func SnapLambda(l float64) float64 {
	return math.Round(units.Clamp(l, 0, 1)*10) / 10
}
