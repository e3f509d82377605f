// Package device implements a 45 nm-class MOSFET compact model in the
// spirit of the high-performance Predictive Technology Model (PTM) used by
// the paper. The model is a velocity-saturated square law (a reduced BSIM4
// form) with channel-length modulation; it captures the interdependencies
// that matter for aging analysis: the drain current — and hence gate delay —
// depends jointly on threshold voltage (Vth) and carrier mobility (mu), so
// BTI-induced degradations of either parameter propagate to delay.
//
// Aged devices are expressed as a fresh parameter set plus a Vth shift and a
// mobility multiplier produced by package aging; see Degrade.
package device

import (
	"fmt"

	"ageguard/internal/units"
)

// Type distinguishes n-channel from p-channel transistors.
type Type int

const (
	// NMOS is an n-channel MOSFET (subject to PBTI).
	NMOS Type = iota
	// PMOS is a p-channel MOSFET (subject to NBTI).
	PMOS
)

// String returns "nmos" or "pmos".
func (t Type) String() string {
	if t == PMOS {
		return "pmos"
	}
	return "nmos"
}

// Tech bundles technology-level constants shared by all transistors of one
// process corner. The defaults model a 45 nm high-k/metal-gate process at
// Vdd = 1.1 V (PTM 45 nm HP class; the paper uses the same family).
type Tech struct {
	Vdd  float64 // nominal supply voltage [V]
	L    float64 // drawn channel length [m]
	Cox  float64 // areal gate-oxide capacitance [F/m^2]
	TOxE float64 // effective oxide thickness [m] (for reference/reporting)

	// Per-type zero-bias parameters.
	VthN, VthP float64 // |Vth0| [V]
	MuN, MuP   float64 // low-field effective mobility [m^2/Vs]
	VsatN      float64 // electron saturation velocity [m/s]
	VsatP      float64 // hole saturation velocity [m/s]
	LambdaCLM  float64 // channel-length modulation [1/V]

	// Parasitic capacitance coefficients.
	CgOverlap float64 // gate overlap cap per unit width [F/m]
	CjDrain   float64 // drain junction cap per unit width [F/m]
}

// Default45 returns the 45 nm high-k technology card used throughout the
// reproduction. Values are PTM-45HP-flavoured; absolute currents are within
// a small factor of silicon, which preserves all delay *ratios* the paper's
// evaluation depends on.
func Default45() Tech {
	return Tech{
		Vdd:       1.1,
		L:         45 * units.Nm,
		Cox:       3.45e-2, // ~1.0 nm EOT -> 34.5 fF/um^2
		TOxE:      1.0 * units.Nm,
		VthN:      0.466,
		VthP:      0.412,
		MuN:       0.0350,
		MuP:       0.0190,
		VsatN:     1.00e5,
		VsatP:     0.85e5,
		LambdaCLM: 0.08,
		CgOverlap: 0.35e-9, // 0.35 fF/um
		CjDrain:   0.70e-9, // 0.70 fF/um
	}
}

// Params is one transistor instance: geometry plus (possibly aged)
// electrical parameters. The zero value is not usable; construct with
// Tech.Transistor and optionally apply Degrade.
type Params struct {
	Type Type
	W    float64 // channel width [m]
	L    float64 // channel length [m]

	Vth  float64 // threshold voltage magnitude [V] (aged value)
	Mu   float64 // effective mobility [m^2/Vs] (aged value)
	Vsat float64 // saturation velocity [m/s]
	CLM  float64 // channel-length modulation [1/V]
	Cox  float64 // areal gate-oxide capacitance [F/m^2]

	// Parasitics derived from geometry.
	CGate  float64 // total gate capacitance (channel + overlap) [F]
	CDrain float64 // drain junction capacitance [F]
}

// Transistor builds a fresh transistor of the given type and width.
func (t Tech) Transistor(typ Type, w float64) Params {
	p := Params{Type: typ, W: w, L: t.L, CLM: t.LambdaCLM, Cox: t.Cox}
	switch typ {
	case NMOS:
		p.Vth, p.Mu, p.Vsat = t.VthN, t.MuN, t.VsatN
	case PMOS:
		p.Vth, p.Mu, p.Vsat = t.VthP, t.MuP, t.VsatP
	}
	p.CGate = t.Cox*w*t.L + t.CgOverlap*w
	p.CDrain = t.CjDrain * w
	return p
}

// Degrade returns a copy of p with the threshold voltage shifted by dVth
// (magnitude, volts) and the mobility scaled by muFactor in (0, 1].
// This is how BTI aging (package aging) is applied to a device.
func (p Params) Degrade(dVth, muFactor float64) Params {
	q := p
	q.Vth += dVth
	q.Mu *= muFactor
	return q
}

// EsatL returns the velocity-saturation critical voltage Esat*L for the
// device, where Esat = 2*vsat/mu.
func (p Params) EsatL() float64 { return 2 * p.Vsat / p.Mu * p.L }

// Model is a device's compact model in the form the transient solver
// evaluates: the bias-independent parameter combinations (EsatL, the
// saturation and linear-region current prefactors) folded into six
// scalars, so the solver's inner loop neither copies a full Params value
// per evaluation nor recomputes them. The device tests keep the model
// written over Params (IdsDeriv) as the reference Eval must match bit for
// bit over a bias grid: the prefactors are folded in its association
// order.
type Model struct {
	pmos bool
	vth  float64
	el   float64 // EsatL
	kSat float64 // W*Vsat*Cox
	kLin float64 // Mu*Cox*(W/L)
	clm  float64
}

// Model precomputes the compact-model constants of p.
func (p Params) Model() Model {
	return Model{
		pmos: p.Type == PMOS,
		vth:  p.Vth,
		el:   p.EsatL(),
		kSat: p.W * p.Vsat * p.Cox,
		kLin: p.Mu * p.Cox * (p.W / p.L),
		clm:  p.CLM,
	}
}

// Eval returns the drain-to-source channel current for terminal voltages
// vd, vg, vs (all referred to ground) together with its partial
// derivatives with respect to the three terminal voltages:
//
//	gds = dIds/dVd, gm = dIds/dVg, gms = dIds/dVs
//
// The sign convention is physical: for NMOS, positive current flows from
// the higher of (vd, vs) to the lower; ids is the current flowing INTO
// the "d" terminal (i.e. out of the node wired as drain), so it can be
// stamped directly into nodal analysis: I(d) = +ids, I(s) = -ids. The
// transient solver stamps the derivatives into its Newton Jacobian.
//
// The model is symmetric in drain/source (required for transmission
// gates) and continuous everywhere; it is C1 except exactly at the
// linear/saturation boundary when CLM > 0 (a measure-zero set where
// finite differences are equally arbitrary), and Newton iteration only
// requires the residual to be exact, which it is. Because the model
// depends only on voltage differences, gms == -(gds+gm) holds
// identically; it is returned anyway so callers can stamp without
// re-deriving the identity.
func (m *Model) Eval(vd, vg, vs float64) (ids, gds, gm, gms float64) {
	if m.pmos {
		if vd <= vs {
			i, dg, dd := m.channelDeriv(vs-vg, vs-vd)
			return -i, dd, dg, -(dg + dd)
		}
		i, dg, dd := m.channelDeriv(vd-vg, vd-vs)
		return i, dg + dd, -dg, -dd
	}
	if vd >= vs {
		i, dg, dd := m.channelDeriv(vg-vs, vd-vs)
		return i, dd, dg, -(dg + dd)
	}
	i, dg, dd := m.channelDeriv(vg-vd, vs-vd)
	return -i, dg + dd, -dg, -dd
}

// channelDeriv evaluates the velocity-saturated square-law current for
// vgs, vds >= 0 in the NMOS frame, a non-negative current, together with
// its partial derivatives with respect to vgs and vds.
func (m *Model) channelDeriv(vgs, vds float64) (i, dg, dd float64) {
	vov := vgs - m.vth
	if vov <= 0 {
		return 0, 0, 0 // long-term aging study: subthreshold leakage irrelevant
	}
	el := m.el
	// Velocity-saturated model (Toh-Ko-Meyer form):
	//   Vdsat = vov*EL/(vov+EL)
	//   Isat  = W*vsat*Cox*vov^2/(vov+EL)
	//   Ilin  = mu*Cox*(W/L)*(vov - vds/2)*vds / (1 + vds/EL)
	vdsat := vov * el / (vov + el)
	if vds >= vdsat {
		den := vov + el
		isat := m.kSat * vov * vov / den
		clm := 1 + m.clm*(vds-vdsat)
		i = isat * clm
		// d(isat)/dvov and d(vdsat)/dvov chain through vov = vgs - Vth.
		dIsat := m.kSat * vov * (vov + 2*el) / (den * den)
		dVdsat := el * el / (den * den)
		dg = dIsat*clm - isat*m.clm*dVdsat
		dd = isat * m.clm
		return i, dg, dd
	}
	den := 1 + vds/el
	i = m.kLin * (vov - vds/2) * vds / den
	dg = m.kLin * vds / den
	// Quotient rule on N/den with N = vov*vds - vds^2/2, den' = 1/el.
	dd = m.kLin * ((vov-vds)*den - (vov*vds-vds*vds/2)/el) / (den * den)
	return i, dg, dd
}

// String describes the device ("pmos W=630nm Vth=412.0mV mu=0.0190").
func (p Params) String() string {
	return fmt.Sprintf("%s W=%.0fnm Vth=%s mu=%.4f", p.Type, p.W/units.Nm, units.MVString(p.Vth), p.Mu)
}
