package cells

import (
	"context"
	"testing"

	"ageguard/internal/device"
	"ageguard/internal/spice"
	"ageguard/internal/units"
)

// Bisect the DFF setup time: latest D arrival before the clock edge that
// still captures correctly.
func TestMeasureDFFSetup(t *testing.T) {
	tech := device.Default45()
	vdd := tech.Vdd
	c := MustByName("DFF_X1")
	captures := func(tSetup float64) bool {
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
		edge := 2 * units.Ns
		ckt.Drive(get("D"), spice.Ramp{T0: edge - tSetup - 20*units.Ps, Slew: 20 * units.Ps, V0: 0, V1: vdd})
		ckt.Drive(get("CK"), spice.Ramp{T0: edge, Slew: 20 * units.Ps, V0: 0, V1: vdd})
		out := get("Q")
		ckt.C(out, ckt.Gnd(), 2*units.FF)
		res, err := ckt.Run(context.Background(), edge+1.5*units.Ns, spice.Options{})
		if err != nil {
			return false
		}
		return res.Voltage(res.Samples()-1, out) > 0.9*vdd
	}
	lo, hi := 0.0, 60*units.Ps
	if !captures(hi) {
		t.Fatal("DFF cannot capture even with 60ps setup")
	}
	for i := 0; i < 10; i++ {
		mid := (lo + hi) / 2
		if captures(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	t.Logf("measured DFF_X1 setup ~ %s (D stable before CK 50%%)", units.PsString(hi))
}
