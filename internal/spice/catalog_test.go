package spice

import (
	"math"
	"math/rand"
	"testing"

	"ageguard/internal/cells"
	"ageguard/internal/device"
	"ageguard/internal/units"
)

// This file checks the solver's two shortcuts on every cell of the
// catalog: the analytic MOS Jacobian against finite differences of the
// same assembled residual, and Newton solves started from the predictor
// against solves started from the last accepted state.

// catalogCircuit wires the transistor netlist of cell c into a fresh
// circuit (unaged devices, sized as characterization sizes them) with a
// 4 fF load on the output, and returns it with its node map.
func catalogCircuit(c *cells.Cell, tech device.Tech) (*Circuit, map[string]NodeID) {
	ckt := New(tech.Vdd)
	nodes := map[string]NodeID{cells.NodeGND: ckt.Gnd(), cells.NodeVDD: ckt.Vdd()}
	get := func(name string) NodeID {
		n, ok := nodes[name]
		if !ok {
			n = ckt.Node(name)
			nodes[name] = n
		}
		return n
	}
	for _, spec := range c.Topo.Devices {
		ckt.MOS(c.DeviceParams(tech, spec), get(spec.D), get(spec.G), get(spec.S))
	}
	ckt.C(get(c.Output), ckt.Gnd(), 4*units.FF)
	return ckt, nodes
}

// TestAnalyticJacobianMatchesFiniteDifference: at random operating points
// of every catalog cell, each entry of the assembled Newton Jacobian
// equals the central finite difference of the assembled residual with
// respect to that unknown. The residual is what Newton drives to zero,
// so a wrong stamp (a sign, an offset, a missing term) shows here even
// where it would only slow convergence in a transient.
func TestAnalyticJacobianMatchesFiniteDifference(t *testing.T) {
	tech := device.Default45()
	rng := rand.New(rand.NewSource(1))
	const (
		h      = 5 * units.Ps
		delta  = 1e-6 // finite-difference step [V]
		relTol = 1e-6 // of the row's absolute sum
		trials = 4
	)
	entries := 0
	for _, c := range cells.All() {
		ckt, nodes := catalogCircuit(c, tech)
		for _, pin := range c.Inputs {
			ckt.Drive(nodes[pin], DC(0))
		}
		s := &solver{}
		s.compile(ckt)
		s.initState(Options{})
		nu := s.nu
		ana := make([]float64, nu*nu)
		plus := make([]float64, nu)
		for trial := 0; trial < trials; trial++ {
			// Free and driven nodes anywhere in and slightly beyond the
			// rails, so devices sit in every region and both orientations.
			for i, nd := range ckt.nodes {
				if nd.kind == kindFree || nd.kind == kindDriven {
					s.vCur[i] = -0.1 + (tech.Vdd+0.2)*rng.Float64()
					s.vPrev[i] = -0.1 + (tech.Vdd+0.2)*rng.Float64()
				}
			}
			s.assemble(h)
			copy(ana, s.jac)
			for k, f := range s.frees {
				v := s.vCur[f.node]
				s.vCur[f.node] = v + delta
				s.assemble(h)
				copy(plus, s.rhs)
				s.vCur[f.node] = v - delta
				s.assemble(h)
				s.vCur[f.node] = v
				for i := 0; i < nu; i++ {
					// rhs is -F, so dF_i/dv_k = -(rhs+ - rhs-)/(2 delta).
					fd := -(plus[i] - s.rhs[i]) / (2 * delta)
					var scale float64
					for j := 0; j < nu; j++ {
						scale += math.Abs(ana[i*nu+j])
					}
					if got := ana[i*nu+k]; math.Abs(got-fd) > relTol*scale+1e-15 {
						t.Fatalf("%s trial %d: J[%s][%s] = %g, finite difference %g (row scale %g)",
							c.Name, trial, ckt.NodeName(NodeID(s.frees[i].node)),
							ckt.NodeName(NodeID(f.node)), got, fd, scale)
					}
					entries++
				}
			}
		}
	}
	if entries == 0 {
		t.Fatal("compared no Jacobian entries")
	}
	t.Logf("compared %d Jacobian entries", entries)
}

// TestPredictorKeepsNewtonSolution runs a transient of every catalog cell,
// the flip-flops included, under a binary-counter stimulus that walks its
// inputs through every combination. At each step where the predictor
// moves the Newton start point, the step is solved again from the last
// accepted state: both solves must land on the same node voltages, since
// the predictor only changes where Newton starts, never what it solves.
func TestPredictorKeepsNewtonSolution(t *testing.T) {
	tech := device.Default45()
	const (
		bit  = 400 * units.Ps // period of the fastest input
		tol  = 1e-6           // [V]; Newton stops at updates below 1e-7
		slew = 40 * units.Ps
	)
	seq := 0
	for _, c := range cells.All() {
		ckt, nodes := catalogCircuit(c, tech)
		period := bit
		for _, pin := range c.Inputs {
			ckt.Drive(nodes[pin], Pulse{V1: tech.Vdd, Delay: 100 * units.Ps, Width: period / 2, Period: period, Slew: slew})
			period *= 2
		}
		tstop := 100*units.Ps + period
		opts := Options{MaxStep: 25 * units.Ps}
		opts.fill(tstop)
		s := &solver{}
		s.compile(ckt)
		s.initState(opts)
		if err := s.settle(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		predicted := make([]float64, len(s.vCur))
		compared := 0
		tm, h := 0.0, opts.MaxStep/16
		for tm < tstop {
			h = math.Min(h, tstop-tm)
			ok, dv := s.step(tm+h, h)
			if s.havePrev && s.hPrev > 0 {
				copy(predicted, s.vCur)
				s.havePrev = false
				ok0, _ := s.step(tm+h, h)
				s.havePrev = true
				if ok && ok0 {
					for _, f := range s.frees {
						if d := math.Abs(predicted[f.node] - s.vCur[f.node]); d > tol {
							t.Fatalf("%s t=%s: node %s solves to %g with the predictor, %g without",
								c.Name, units.PsString(tm+h), ckt.NodeName(NodeID(f.node)),
								predicted[f.node], s.vCur[f.node])
						}
					}
					compared++
				}
				copy(s.vCur, predicted)
			}
			// The step control of runTransient.
			switch {
			case !ok:
				h /= 4
				if h < opts.MinStep {
					t.Fatalf("%s: no convergence at t=%s", c.Name, units.PsString(tm))
				}
			case dv > 2*opts.DVTarget && h > 64*opts.MinStep:
				s.reject()
				h /= 2
			default:
				s.acceptStep(h)
				tm += h
				if dv < opts.DVTarget/4 {
					h = math.Min(h*1.5, opts.MaxStep)
				}
			}
		}
		if compared < 100 {
			t.Errorf("%s: compared only %d predicted steps", c.Name, compared)
		}
		if c.Seq {
			seq++
		}
	}
	if seq == 0 {
		t.Error("the catalog's flip-flops were not covered")
	}
}
