package cells

import (
	"context"
	"math"
	"testing"

	"ageguard/internal/device"
	"ageguard/internal/spice"
	"ageguard/internal/units"
)

// TestTopologyImplementsFunction validates every combinational cell's
// transistor netlist against its declared Boolean function by DC-settling
// the circuit for every input combination and checking the output rail.
// This is the ground truth linking the SPICE level to the logic level.
func TestTopologyImplementsFunction(t *testing.T) {
	tech := device.Default45()
	vdd := tech.Vdd
	for _, c := range All() {
		if c.Seq || c.Drive != 1 {
			continue // one drive per base suffices: same topology scaled
		}
		n := c.NumInputs()
		for bits := uint(0); bits < 1<<n; bits++ {
			ckt := spice.New(vdd)
			nodes := map[string]spice.NodeID{
				NodeGND: ckt.Gnd(),
				NodeVDD: ckt.Vdd(),
			}
			get := func(name string) spice.NodeID {
				if id, ok := nodes[name]; ok {
					return id
				}
				id := ckt.Node(name)
				nodes[name] = id
				return id
			}
			for _, spec := range c.Topo.Devices {
				p := c.DeviceParams(tech, spec)
				ckt.MOS(p, get(spec.D), get(spec.G), get(spec.S))
			}
			for i, pin := range c.Inputs {
				v := 0.0
				if bits>>i&1 == 1 {
					v = vdd
				}
				ckt.Drive(get(pin), spice.DC(v))
			}
			out := get(c.Output)
			ckt.C(out, ckt.Gnd(), 1*units.FF)
			res, err := ckt.Run(context.Background(), 2*units.Ns, spice.Options{})
			if err != nil {
				t.Fatalf("%s bits=%b: %v", c.Name, bits, err)
			}
			final := res.Voltage(res.Samples()-1, out)
			got := final > vdd/2
			if want := c.Eval(bits); got != want {
				t.Errorf("%s(%0*b) = %v (%.3fV), want %v",
					c.Name, n, bits, got, final, want)
			}
		}
	}
}

// wave is a stateless waveform given as a function of time.
type wave func(t float64) float64

// At evaluates the waveform.
func (w wave) At(t float64) float64 { return w(t) }

// TestDFFCapturesOnRisingEdge clocks the flip-flop topology through a
// full transient sequence and checks edge-triggered capture behaviour.
func TestDFFCapturesOnRisingEdge(t *testing.T) {
	tech := device.Default45()
	vdd := tech.Vdd
	c := MustByName("DFF_X1")
	ckt := spice.New(vdd)
	nodes := map[string]spice.NodeID{NodeGND: ckt.Gnd(), NodeVDD: ckt.Vdd()}
	get := func(name string) spice.NodeID {
		if id, ok := nodes[name]; ok {
			return id
		}
		id := ckt.Node(name)
		nodes[name] = id
		return id
	}
	for _, spec := range c.Topo.Devices {
		ckt.MOS(c.DeviceParams(tech, spec), get(spec.D), get(spec.G), get(spec.S))
	}
	// D rises well before the second clock edge and falls before the
	// third. The clock rises at every period from the first on and falls
	// half a period later.
	period := 2 * units.Ns
	dUp := spice.Ramp{T0: 0.5 * period, Slew: 50 * units.Ps, V1: vdd}
	dDown := spice.Ramp{T0: 2.4 * period, Slew: 50 * units.Ps, V1: vdd}
	ckt.Drive(get("D"), wave(func(t float64) float64 { return dUp.At(t) - dDown.At(t) }))
	ckUp := spice.Ramp{Slew: 30 * units.Ps, V1: vdd}
	ckDown := spice.Ramp{T0: period / 2, Slew: 30 * units.Ps, V1: vdd}
	ckt.Drive(get("CK"), wave(func(t float64) float64 {
		if t < period {
			return 0
		}
		tc := math.Mod(t, period)
		return ckUp.At(tc) - ckDown.At(tc)
	}))
	out := get("Q")
	ckt.C(out, ckt.Gnd(), 2*units.FF)
	res, err := ckt.Run(context.Background(), 4*period, spice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// After edge 1 (t=period): D=1 captured -> Q=1.
	if v := res.At(out, 1.4*period); v < 0.9*vdd {
		t.Errorf("Q after first edge = %.3fV, want high", v)
	}
	// Between edges, D falls at 2.4*period; Q must hold until edge at 3*period.
	if v := res.At(out, 2.9*period); v < 0.9*vdd {
		t.Errorf("Q should hold high before next edge, got %.3fV", v)
	}
	// After edge at t=3*period with D=0: Q -> 0.
	if v := res.At(out, 3.5*period); v > 0.1*vdd {
		t.Errorf("Q after capture of 0 = %.3fV, want low", v)
	}
}
