package device

import (
	"math"
	"testing"
	"testing/quick"

	"ageguard/internal/units"
)

func freshN() Params { return Default45().Transistor(NMOS, 400*units.Nm) }
func freshP() Params { return Default45().Transistor(PMOS, 800*units.Nm) }

func TestOnCurrentMagnitude(t *testing.T) {
	tech := Default45()
	n, p := freshN(), freshP()
	in := n.OnCurrent(tech.Vdd)
	ip := p.OnCurrent(tech.Vdd)
	// 45nm-class on-currents: order 0.1-1 mA for sub-micron widths.
	if in < 50*units.UA || in > 2*units.MA {
		t.Errorf("nMOS Ion = %g A out of plausible range", in)
	}
	if ip < 50*units.UA || ip > 2*units.MA {
		t.Errorf("pMOS Ion = %g A out of plausible range", ip)
	}
	// The 2:1 width ratio should roughly balance n/p drive.
	if r := in / ip; r < 0.6 || r > 1.8 {
		t.Errorf("Ion ratio n/p = %v, want near 1 for 2:1 sizing", r)
	}
}

func TestCutoff(t *testing.T) {
	n := freshN()
	if got := n.Ids(1.1, 0, 0); got != 0 {
		t.Errorf("nMOS with Vgs=0 should be off, got %g", got)
	}
	p := freshP()
	if got := p.Ids(0, 1.1, 1.1); got != 0 {
		t.Errorf("pMOS with Vgs=0 should be off, got %g", got)
	}
}

func TestSymmetry(t *testing.T) {
	// Swapping drain and source must negate the current (transmission
	// gates rely on this).
	n := freshN()
	f := func(vd, vg, vs float64) bool {
		vd = units.Clamp(vd, 0, 1.1)
		vg = units.Clamp(vg, 0, 1.1)
		vs = units.Clamp(vs, 0, 1.1)
		a := n.Ids(vd, vg, vs)
		b := n.Ids(vs, vg, vd)
		return math.Abs(a+b) <= 1e-12*(1+math.Abs(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMonotoneInVgs(t *testing.T) {
	n := freshN()
	prev := -1.0
	for vg := 0.0; vg <= 1.1; vg += 0.01 {
		i := n.Ids(1.1, vg, 0)
		if i < prev-1e-15 {
			t.Fatalf("Ids not monotone in Vgs at vg=%v", vg)
		}
		prev = i
	}
}

func TestContinuityAcrossVdsat(t *testing.T) {
	n := freshN()
	vov := 1.1 - n.Vth
	el := n.EsatL()
	vdsat := vov * el / (vov + el)
	below := n.Ids(vdsat-1e-7, 1.1, 0)
	above := n.Ids(vdsat+1e-7, 1.1, 0)
	if rel := math.Abs(above-below) / above; rel > 1e-3 {
		t.Errorf("current discontinuity at Vdsat: %g vs %g", below, above)
	}
}

func TestDegradeReducesCurrent(t *testing.T) {
	n := freshN()
	aged := n.Degrade(0.05, 0.9)
	iFresh := n.OnCurrent(1.1)
	iAged := aged.OnCurrent(1.1)
	if iAged >= iFresh {
		t.Errorf("aged current %g not below fresh %g", iAged, iFresh)
	}
	// Degrading only Vth must reduce current less than Vth+mu together.
	vthOnly := n.Degrade(0.05, 1.0)
	if vo := vthOnly.OnCurrent(1.1); vo <= iAged {
		t.Errorf("Vth-only current %g should exceed Vth+mu current %g", vo, iAged)
	}
}

func TestDegradeDoesNotMutate(t *testing.T) {
	n := freshN()
	vth := n.Vth
	_ = n.Degrade(0.1, 0.5)
	if n.Vth != vth {
		t.Error("Degrade mutated the receiver")
	}
}

func TestGmGdsPositiveInSaturation(t *testing.T) {
	n := freshN()
	if gm := n.Gm(1.1, 0.8, 0); gm <= 0 {
		t.Errorf("gm = %g, want > 0", gm)
	}
	if gds := n.Gds(1.1, 0.8, 0); gds <= 0 {
		t.Errorf("gds = %g, want > 0", gds)
	}
}

func TestParasiticCaps(t *testing.T) {
	n := freshN()
	if n.CGate <= 0 || n.CDrain <= 0 {
		t.Fatal("parasitic caps must be positive")
	}
	// Gate cap of a 400nm/45nm device: order of a femtofarad.
	if n.CGate < 0.1*units.FF || n.CGate > 10*units.FF {
		t.Errorf("CGate = %v out of plausible range", units.FFString(n.CGate))
	}
}

func TestEffectiveResistance(t *testing.T) {
	n := freshN()
	r := n.EffectiveResistance(1.1)
	if r < 100 || r > 100e3 {
		t.Errorf("Reff = %v ohm out of plausible range", r)
	}
	aged := n.Degrade(0.06, 0.88)
	if aged.EffectiveResistance(1.1) <= r {
		t.Error("aged device should have higher effective resistance")
	}
}

func TestPMOSCurrentSign(t *testing.T) {
	p := freshP()
	// Source at Vdd, gate low, drain low: current flows INTO drain node
	// (charging it), i.e. Ids (drain current, d->s) is negative.
	if i := p.Ids(0, 0, 1.1); i >= 0 {
		t.Errorf("pMOS pull-up current sign wrong: %g", i)
	}
}

// TestIdsDerivMatchesValue: the ids returned by IdsDeriv must be
// bit-identical to Ids at every bias (the solver uses it for the residual,
// so any discrepancy would change simulated waveforms, not just the
// Newton path).
func TestIdsDerivMatchesValue(t *testing.T) {
	for _, p := range []Params{freshN(), freshP(), freshN().Degrade(0.065, 0.89), freshP().Degrade(0.031, 0.97)} {
		for vd := -0.2; vd <= 1.3; vd += 0.05 {
			for vg := -0.2; vg <= 1.3; vg += 0.05 {
				for vs := -0.2; vs <= 1.3; vs += 0.05 {
					ids, _, _, _ := p.IdsDeriv(vd, vg, vs)
					if want := p.Ids(vd, vg, vs); ids != want {
						t.Fatalf("%s IdsDeriv(%g,%g,%g) value %g != Ids %g",
							p.Type, vd, vg, vs, ids, want)
					}
				}
			}
		}
	}
}

// TestIdsDerivMatchesFiniteDifference: each analytic partial derivative
// must agree with a central finite difference of Ids away from the
// piecewise-model boundaries (cutoff, drain/source exchange, vdsat), where
// one-sided slopes legitimately differ.
func TestIdsDerivMatchesFiniteDifference(t *testing.T) {
	const h = 1e-6
	near := func(a, b float64) bool { return math.Abs(a-b) < 10*h }
	for _, p := range []Params{freshN(), freshP(), freshN().Degrade(0.065, 0.89), freshP().Degrade(0.031, 0.97)} {
		checked := 0
		for vd := 0.0; vd <= 1.21; vd += 0.11 {
			for vg := 0.0; vg <= 1.21; vg += 0.11 {
				for vs := 0.0; vs <= 1.21; vs += 0.11 {
					// Skip biases within 10h of a piecewise boundary: the
					// central difference would straddle two branches there.
					if near(vd, vs) {
						continue
					}
					vgs, vds := vg-vs, vd-vs
					if p.Type == PMOS {
						vgs, vds = vs-vg, vs-vd
					}
					if vds < 0 {
						vgs, vds = vgs+vds, -vds
					}
					vov := vgs - p.Vth
					if near(vov, 0) {
						continue
					}
					if el := p.EsatL(); vov > 0 && near(vds, vov*el/(vov+el)) {
						continue
					}
					_, gds, gm, gms := p.IdsDeriv(vd, vg, vs)
					fd := func(f func(h float64) float64) float64 {
						return (f(h) - f(-h)) / (2 * h)
					}
					wantGds := fd(func(e float64) float64 { return p.Ids(vd+e, vg, vs) })
					wantGm := fd(func(e float64) float64 { return p.Ids(vd, vg+e, vs) })
					wantGms := fd(func(e float64) float64 { return p.Ids(vd, vg, vs+e) })
					scale := math.Max(1e-6, math.Abs(wantGds)+math.Abs(wantGm)+math.Abs(wantGms))
					for _, c := range []struct {
						name      string
						got, want float64
					}{{"gds", gds, wantGds}, {"gm", gm, wantGm}, {"gms", gms, wantGms}} {
						if math.Abs(c.got-c.want) > 1e-5*scale+1e-9 {
							t.Fatalf("%s %s(%g,%g,%g) = %g, finite difference %g",
								p.Type, c.name, vd, vg, vs, c.got, c.want)
						}
					}
					checked++
				}
			}
		}
		if checked < 500 {
			t.Fatalf("only %d interior biases checked for %s", checked, p.Type)
		}
	}
}

// TestIdsDerivDifferenceIdentity: the model depends on terminal voltages
// only through differences, so the derivative sum must vanish.
func TestIdsDerivDifferenceIdentity(t *testing.T) {
	p := freshN()
	for vd := 0.0; vd <= 1.1; vd += 0.1 {
		for vg := 0.0; vg <= 1.1; vg += 0.1 {
			_, gds, gm, gms := p.IdsDeriv(vd, vg, 0.3)
			if s := gds + gm + gms; math.Abs(s) > 1e-12 {
				t.Fatalf("gds+gm+gms = %g at (%g,%g,0.3)", s, vd, vg)
			}
		}
	}
}

// TestModelMatchesIdsDeriv: the precomputed Model form used by the
// transient solver's inner loop must be bit-identical to IdsDeriv — the
// prefactors are folded in the same association order, so every output
// must match exactly, not just within tolerance.
func TestModelMatchesIdsDeriv(t *testing.T) {
	for _, p := range []Params{freshN(), freshP(), freshN().Degrade(0.065, 0.89), freshP().Degrade(0.031, 0.97)} {
		m := p.Model()
		for vd := -0.2; vd <= 1.3; vd += 0.05 {
			for vg := -0.2; vg <= 1.3; vg += 0.05 {
				for vs := -0.2; vs <= 1.3; vs += 0.05 {
					i0, gds0, gm0, gms0 := p.IdsDeriv(vd, vg, vs)
					i1, gds1, gm1, gms1 := m.Eval(vd, vg, vs)
					if i0 != i1 || gds0 != gds1 || gm0 != gm1 || gms0 != gms1 {
						t.Fatalf("%s Model.Eval(%g,%g,%g) = (%g,%g,%g,%g) != IdsDeriv (%g,%g,%g,%g)",
							p.Type, vd, vg, vs, i1, gds1, gm1, gms1, i0, gds0, gm0, gms0)
					}
				}
			}
		}
	}
}

// Gm returns the numerical transconductance dIds/dVg at the operating point.
func (p Params) Gm(vd, vg, vs float64) float64 {
	const h = 1e-4
	return (p.Ids(vd, vg+h, vs) - p.Ids(vd, vg-h, vs)) / (2 * h)
}

// Gds returns the numerical output conductance dIds/dVd.
func (p Params) Gds(vd, vg, vs float64) float64 {
	const h = 1e-4
	return (p.Ids(vd+h, vg, vs) - p.Ids(vd-h, vg, vs)) / (2 * h)
}

// EffectiveResistance estimates the switching resistance Vdd/(2*Ion),
// used for quick RC delay sanity checks in tests.
func (p Params) EffectiveResistance(vdd float64) float64 {
	ion := p.OnCurrent(vdd)
	if ion <= 0 {
		return math.Inf(1)
	}
	return vdd / (2 * ion)
}

// OnCurrent returns the saturated on-current at full gate drive with the
// given supply, a convenient figure of merit for tests and calibration.
func (p Params) OnCurrent(vdd float64) float64 {
	if p.Type == NMOS {
		return p.Ids(vdd, vdd, 0)
	}
	return -p.Ids(0, 0, vdd)
}

// Ids is the compact model's channel current written over Params, with
// Model.Eval's terminal and sign conventions: the value half of the
// reference IdsDeriv.
func (p Params) Ids(vd, vg, vs float64) float64 {
	switch p.Type {
	case NMOS:
		if vd >= vs {
			return p.channel(vg-vs, vd-vs)
		}
		return -p.channel(vg-vd, vs-vd)
	default: // PMOS: mirror voltages
		if vd <= vs {
			return -p.channel(vs-vg, vs-vd)
		}
		return p.channel(vd-vg, vd-vs)
	}
}

// IdsDeriv is the compact model written over Params: the reference
// Model.Eval must match bit for bit (TestModelMatchesIdsDeriv). Its
// current equals Ids at every bias, and its partial derivatives are
// checked against finite differences of Ids.
func (p Params) IdsDeriv(vd, vg, vs float64) (ids, gds, gm, gms float64) {
	switch p.Type {
	case NMOS:
		if vd >= vs {
			i, dg, dd := p.channelDeriv(vg-vs, vd-vs)
			return i, dd, dg, -(dg + dd)
		}
		i, dg, dd := p.channelDeriv(vg-vd, vs-vd)
		return -i, dg + dd, -dg, -dd
	default: // PMOS: mirror voltages
		if vd <= vs {
			i, dg, dd := p.channelDeriv(vs-vg, vs-vd)
			return -i, dd, dg, -(dg + dd)
		}
		i, dg, dd := p.channelDeriv(vd-vg, vd-vs)
		return i, dg + dd, -dg, -dd
	}
}

// channel evaluates the velocity-saturated square-law current for
// vgs, vds >= 0 in the NMOS frame, returning a non-negative current.
func (p Params) channel(vgs, vds float64) float64 {
	vov := vgs - p.Vth
	if vov <= 0 {
		return 0 // long-term aging study: subthreshold leakage irrelevant
	}
	el := p.EsatL()
	// Velocity-saturated model (Toh-Ko-Meyer form):
	//   Vdsat = vov*EL/(vov+EL)
	//   Isat  = W*vsat*Cox*vov^2/(vov+EL)
	//   Ilin  = mu*Cox*(W/L)*(vov - vds/2)*vds / (1 + vds/EL)
	vdsat := vov * el / (vov + el)
	if vds >= vdsat {
		isat := p.W * p.Vsat * p.Cox * vov * vov / (vov + el)
		return isat * (1 + p.CLM*(vds-vdsat))
	}
	return p.Mu * p.Cox * (p.W / p.L) * (vov - vds/2) * vds / (1 + vds/el)
}

// channelDeriv evaluates channel together with its partial derivatives
// with respect to vgs and vds. The value path mirrors channel exactly so
// that ids from IdsDeriv is bit-identical to Ids.
func (p Params) channelDeriv(vgs, vds float64) (i, dg, dd float64) {
	vov := vgs - p.Vth
	if vov <= 0 {
		return 0, 0, 0
	}
	el := p.EsatL()
	vdsat := vov * el / (vov + el)
	if vds >= vdsat {
		den := vov + el
		isat := p.W * p.Vsat * p.Cox * vov * vov / den
		clm := 1 + p.CLM*(vds-vdsat)
		i = isat * clm
		// d(isat)/dvov and d(vdsat)/dvov chain through vov = vgs - Vth.
		dIsat := p.W * p.Vsat * p.Cox * vov * (vov + 2*el) / (den * den)
		dVdsat := el * el / (den * den)
		dg = dIsat*clm - isat*p.CLM*dVdsat
		dd = isat * p.CLM
		return i, dg, dd
	}
	g := p.Mu * p.Cox * (p.W / p.L)
	den := 1 + vds/el
	i = g * (vov - vds/2) * vds / den
	dg = g * vds / den
	// Quotient rule on N/den with N = vov*vds - vds^2/2, den' = 1/el.
	dd = g * ((vov-vds)*den - (vov*vds-vds*vds/2)/el) / (den * den)
	return i, dg, dd
}
