package spice

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"ageguard/internal/device"
	"ageguard/internal/units"
)

const vdd = 1.1

// inverter wires a CMOS inverter with the given load and aged device
// parameters and returns (circuit, in, out).
func inverter(load float64, dvthP, muP, dvthN, muN float64) (*Circuit, NodeID, NodeID) {
	tech := device.Default45()
	c := New(vdd)
	in := c.Node("in")
	out := c.Node("out")
	nm := tech.Transistor(device.NMOS, 400*units.Nm).Degrade(dvthN, muN)
	pm := tech.Transistor(device.PMOS, 800*units.Nm).Degrade(dvthP, muP)
	c.MOS(nm, out, in, c.Gnd())
	c.MOS(pm, out, in, c.Vdd())
	c.C(out, c.Gnd(), load)
	return c, in, out
}

func TestRCStepResponse(t *testing.T) {
	// 1kOhm + 10fF driven by a step: tau = 10ps; V(tau) ~ 63.2% of Vdd.
	c := New(vdd)
	in := c.Input("in", Ramp{T0: 10 * units.Ps, Slew: 0.01 * units.Ps, V0: 0, V1: vdd})
	out := c.Node("out")
	c.R(in, out, 1000)
	c.C(out, c.Gnd(), 10*units.FF)
	res, err := c.Run(context.Background(), 100*units.Ps, Options{MaxStep: 0.2 * units.Ps})
	if err != nil {
		t.Fatal(err)
	}
	got := res.At(out, 20*units.Ps) // one tau after the step
	want := vdd * (1 - math.Exp(-1))
	if math.Abs(got-want) > 0.03*vdd {
		t.Errorf("V(tau) = %v, want %v", got, want)
	}
	if f := res.Final(out); math.Abs(f-vdd) > 1e-3 {
		t.Errorf("final = %v, want %v", f, vdd)
	}
}

func TestInverterStatic(t *testing.T) {
	c, in, out := inverter(2*units.FF, 0, 1, 0, 1)
	c.Drive(in, DC(0))
	res, err := c.Run(context.Background(), 500*units.Ps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Final(out); math.Abs(v-vdd) > 0.01 {
		t.Errorf("inv(0) = %v, want %v", v, vdd)
	}
	c2, in2, out2 := inverter(2*units.FF, 0, 1, 0, 1)
	c2.Drive(in2, DC(vdd))
	res2, err := c2.Run(context.Background(), 500*units.Ps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := res2.Final(out2); math.Abs(v) > 0.01 {
		t.Errorf("inv(1) = %v, want 0", v)
	}
}

// invDelay measures the input-rise (output-fall) 50%-50% delay.
func invDelay(t *testing.T, load, slew float64, dvthP, muP, dvthN, muN float64) float64 {
	t.Helper()
	c, in, out := inverter(load, dvthP, muP, dvthN, muN)
	t0 := 200 * units.Ps
	c.Drive(in, Ramp{T0: t0, Slew: slew, V0: 0, V1: vdd})
	res, err := c.Run(context.Background(), t0+slew+3*units.Ns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tin, ok := res.Cross(in, vdd/2, true, 0)
	if !ok {
		t.Fatal("no input crossing")
	}
	tout, ok := res.Cross(out, vdd/2, false, t0)
	if !ok {
		t.Fatal("no output crossing")
	}
	return tout - tin
}

func TestInverterDelayPlausible(t *testing.T) {
	d := invDelay(t, 2*units.FF, 20*units.Ps, 0, 1, 0, 1)
	// 45nm-class FO-ish inverter: a few ps.
	if d < 0.2*units.Ps || d > 50*units.Ps {
		t.Errorf("inverter delay = %s, implausible", units.PsString(d))
	}
}

func TestDelayIncreasesWithLoad(t *testing.T) {
	d1 := invDelay(t, 1*units.FF, 20*units.Ps, 0, 1, 0, 1)
	d2 := invDelay(t, 5*units.FF, 20*units.Ps, 0, 1, 0, 1)
	d3 := invDelay(t, 20*units.FF, 20*units.Ps, 0, 1, 0, 1)
	if !(d1 < d2 && d2 < d3) {
		t.Errorf("delay not monotone in load: %s %s %s",
			units.PsString(d1), units.PsString(d2), units.PsString(d3))
	}
}

func TestAgedInverterSlower(t *testing.T) {
	fresh := invDelay(t, 4*units.FF, 50*units.Ps, 0, 1, 0, 1)
	// Output fall is driven by the nMOS: degrade it.
	aged := invDelay(t, 4*units.FF, 50*units.Ps, 0, 1, 0.033, 0.99)
	if aged <= fresh {
		t.Errorf("aged fall delay %s not above fresh %s",
			units.PsString(aged), units.PsString(fresh))
	}
	rel := (aged - fresh) / fresh
	if rel > 0.5 {
		t.Errorf("aging impact %v%% implausibly large", rel*100)
	}
}

func TestOutputSlewMeasurement(t *testing.T) {
	c, in, out := inverter(10*units.FF, 0, 1, 0, 1)
	t0 := 100 * units.Ps
	c.Drive(in, Ramp{T0: t0, Slew: 20 * units.Ps, V0: 0, V1: vdd})
	res, err := c.Run(context.Background(), t0+4*units.Ns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := res.Slew(out, vdd, false, t0)
	if !ok {
		t.Fatal("no output slew measured")
	}
	if s <= 0 || s > 1*units.Ns {
		t.Errorf("output slew = %s implausible", units.PsString(s))
	}
}

func TestTransmissionGatePassesBothRails(t *testing.T) {
	// TG with both gates on must pass 0 and Vdd to within a millivolt.
	tech := device.Default45()
	for _, level := range []float64{0, vdd} {
		c := New(vdd)
		src := c.Input("src", DC(level))
		out := c.Node("out")
		nm := tech.Transistor(device.NMOS, 200*units.Nm)
		pm := tech.Transistor(device.PMOS, 200*units.Nm)
		c.MOS(nm, out, c.Vdd(), src) // nMOS gate high
		c.MOS(pm, out, c.Gnd(), src) // pMOS gate low
		c.C(out, c.Gnd(), 1*units.FF)
		res, err := c.Run(context.Background(), 2*units.Ns, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Final(out); math.Abs(v-level) > 2*units.MV {
			t.Errorf("TG output = %v, want %v", v, level)
		}
	}
}

func TestCrossLinearInterpolation(t *testing.T) {
	r := &Result{T: []float64{0, 1, 2}, nn: 1, v: []float64{0, 1, 0}}
	tc, ok := r.Cross(0, 0.5, true, 0)
	if !ok || math.Abs(tc-0.5) > 1e-12 {
		t.Errorf("rising cross = %v, %v", tc, ok)
	}
	tf, ok := r.Cross(0, 0.5, false, 0)
	if !ok || math.Abs(tf-1.5) > 1e-12 {
		t.Errorf("falling cross = %v, %v", tf, ok)
	}
	if _, ok := r.Cross(0, 2.0, true, 0); ok {
		t.Error("found impossible crossing")
	}
}

func TestWaveforms(t *testing.T) {
	r := Ramp{T0: 10, Slew: 10, V0: 0, V1: 1}
	for _, tc := range []struct{ t, want float64 }{{0, 0}, {10, 0}, {15, 0.5}, {20, 1}, {99, 1}} {
		if got := r.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Ramp.At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	p := PWL{T: []float64{0, 1, 2}, V: []float64{0, 1, 0}}
	if got := p.At(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("PWL.At(0.5) = %v", got)
	}
	if got := p.At(-1); got != 0 {
		t.Errorf("PWL before first point = %v", got)
	}
	pu := Pulse{V0: 0, V1: 1, Delay: 10, Width: 20, Period: 50, Slew: 2}
	if got := pu.At(0); got != 0 {
		t.Errorf("Pulse.At(0) = %v", got)
	}
	if got := pu.At(11); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Pulse mid-edge = %v", got)
	}
	if got := pu.At(20); got != 1 {
		t.Errorf("Pulse high = %v", got)
	}
	if got := pu.At(45); got != 0 {
		t.Errorf("Pulse low = %v", got)
	}
	if got := pu.At(70); got != 1 {
		t.Errorf("Pulse second period high = %v", got)
	}
	if got := DC(0.7).At(123); got != 0.7 {
		t.Errorf("DC = %v", got)
	}
}

func TestResultAt(t *testing.T) {
	r := &Result{T: []float64{0, 2}, nn: 1, v: []float64{0, 2}}
	if got := r.At(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("At = %v", got)
	}
	if got := r.At(0, -5); got != 0 {
		t.Errorf("At before start = %v", got)
	}
	if got := r.At(0, 99); got != 2 {
		t.Errorf("At after end = %v", got)
	}
}

// TestConcurrentIndependentCircuits validates the documented concurrency
// contract: distinct Circuit instances built and Run from many goroutines
// (as the parallel characterizer does) share no state and produce results
// identical to serial runs. Run under -race this also proves the package
// has no hidden globals.
func TestConcurrentIndependentCircuits(t *testing.T) {
	loads := []float64{0.5 * units.FF, 2 * units.FF, 8 * units.FF, 20 * units.FF}
	simulate := func(load float64) (float64, error) {
		c, in, out := inverter(load, 0.03, 0.9, 0.02, 0.95)
		c.Drive(in, Ramp{T0: 50 * units.Ps, Slew: 100 * units.Ps, V0: 0, V1: vdd})
		res, err := c.Run(context.Background(), 2*units.Ns, Options{MaxStep: 25 * units.Ps})
		if err != nil {
			return 0, err
		}
		tf, ok := res.Cross(out, vdd/2, false, 50*units.Ps)
		if !ok {
			return 0, fmt.Errorf("no output crossing at load %v", load)
		}
		return tf, nil
	}
	want := make([]float64, len(loads))
	for i, l := range loads {
		w, err := simulate(l)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	const replicas = 8
	var wg sync.WaitGroup
	got := make([]float64, len(loads)*replicas)
	errs := make([]error, len(loads)*replicas)
	for r := 0; r < replicas; r++ {
		for i, l := range loads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[r*len(loads)+i], errs[r*len(loads)+i] = simulate(l)
			}()
		}
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", k, err)
		}
		if got[k] != want[k%len(loads)] {
			t.Errorf("concurrent run %d: crossing %v differs from serial %v",
				k, got[k], want[k%len(loads)])
		}
	}
}

// Supply returns the supply voltage the circuit was created with.
func (c *Circuit) Supply() float64 { return c.vdd }

// NodeName returns the name given to n at creation.
func (c *Circuit) NodeName(n NodeID) string { return c.nodes[n].name }

// R adds a resistor of value ohms between nodes a and b.
func (c *Circuit) R(a, b NodeID, ohms float64) {
	c.res = append(c.res, resInst{a: a, b: b, g: 1 / ohms})
}

// Final returns the last sampled voltage of node n.
func (r *Result) Final(n NodeID) float64 { return r.Voltage(len(r.T)-1, n) }
