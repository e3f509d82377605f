// Package spice implements a compact transistor-level transient circuit
// simulator — the reproduction's substitute for HSPICE in the paper's
// library-characterization flow (Fig. 4a).
//
// It performs nodal analysis with Backward-Euler integration and damped
// Newton-Raphson solution of the nonlinear system at each time step.
// Supported elements are MOSFETs (package device), capacitors, resistors
// and driven voltage nodes with arbitrary waveforms. Circuits of interest
// are standard cells (4-30 transistors, <25 nodes), so a dense LU solver
// is used.
//
// Crucially for the paper's argument, the simulator resolves contention
// (short-circuit) currents between partially-on pull-up and pull-down
// networks during slow input ramps. This is the physical mechanism that
// makes the delay impact of BTI depend on the operating conditions (input
// slew, output load) of each gate, and it emerges here from the device
// equations rather than being modelled explicitly.
//
// # Concurrency
//
// The package holds no global mutable state, so independent Circuit
// instances may be built and Run concurrently from many goroutines — this
// is what the parallel characterizer (package char) relies on: one private
// Circuit per transient simulation. A single Circuit, however, is NOT safe
// for concurrent use: Run mutates solver bookkeeping stored on the circuit
// (node unknown indices), and element constructors append to its slices.
// Waveform implementations passed to Drive must be stateless (the provided
// DC and Ramp are), and device.Model.Eval must stay pure (it is).
package spice

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"ageguard/internal/conc"
	"ageguard/internal/device"
	"ageguard/internal/obs"
	"ageguard/internal/units"
)

// NodeID identifies a circuit node. The zero value is the ground node of
// the circuit that created it.
type NodeID int

type nodeKind int

const (
	kindFree nodeKind = iota
	kindGround
	kindSupply
	kindDriven
)

type node struct {
	name string
	kind nodeKind
	wave Waveform // for kindDriven
	idx  int      // unknown index for kindFree, else -1
}

type mosInst struct {
	p       device.Params
	d, g, s NodeID
}

type capInst struct {
	a, b NodeID
	c    float64
}

type resInst struct {
	a, b NodeID
	g    float64 // conductance
}

// Circuit is a device-level circuit under construction. Create with New,
// add elements, then call Run. A Circuit must be confined to one goroutine
// (or externally synchronized), but any number of distinct Circuits may be
// used concurrently — see the package documentation.
type Circuit struct {
	vdd   float64
	nodes []node
	mos   []mosInst
	caps  []capInst
	res   []resInst
}

// New returns an empty circuit with ground (NodeID 0) and a supply node
// (NodeID 1) fixed at vdd volts.
func New(vdd float64) *Circuit {
	return &Circuit{
		vdd: vdd,
		nodes: []node{
			{name: "gnd", kind: kindGround, idx: -1},
			{name: "vdd", kind: kindSupply, idx: -1},
		},
	}
}

// Gnd returns the ground node.
func (c *Circuit) Gnd() NodeID { return 0 }

// Vdd returns the supply node.
func (c *Circuit) Vdd() NodeID { return 1 }

// Node creates a new free (solved-for) node with the given name.
func (c *Circuit) Node(name string) NodeID {
	c.nodes = append(c.nodes, node{name: name, kind: kindFree, idx: -1})
	return NodeID(len(c.nodes) - 1)
}

// NumNodes returns the total node count including ground and supply.
func (c *Circuit) NumNodes() int { return len(c.nodes) }

// Drive converts node n into a driven node following waveform w.
// Driving ground or supply is an error surfaced at Run time.
func (c *Circuit) Drive(n NodeID, w Waveform) {
	c.nodes[n].kind = kindDriven
	c.nodes[n].wave = w
}

// Input creates a new driven node with the given waveform.
func (c *Circuit) Input(name string, w Waveform) NodeID {
	n := c.Node(name)
	c.Drive(n, w)
	return n
}

// MOS adds a MOSFET with the given parameters between drain d, gate g and
// source s. The device's gate and drain parasitic capacitances are added
// automatically (gate-to-ground and drain-to-ground lumps).
func (c *Circuit) MOS(p device.Params, d, g, s NodeID) {
	c.mos = append(c.mos, mosInst{p: p, d: d, g: g, s: s})
	if p.CGate > 0 {
		c.C(g, c.Gnd(), p.CGate)
	}
	if p.CDrain > 0 {
		c.C(d, c.Gnd(), p.CDrain)
		// Source diffusion contributes a comparable junction cap.
		c.C(s, c.Gnd(), p.CDrain)
	}
}

// C adds a capacitor of value farads between nodes a and b.
func (c *Circuit) C(a, b NodeID, farads float64) {
	if farads <= 0 {
		return
	}
	c.caps = append(c.caps, capInst{a: a, b: b, c: farads})
}

// Options tunes the transient analysis. The zero value selects defaults
// suitable for standard-cell characterization.
type Options struct {
	MaxStep  float64 // largest time step [s]; default tstop/200
	MinStep  float64 // smallest step before giving up [s]; default 1e-16
	DVTarget float64 // per-step voltage change target [V]; default 0.03
	// NewtonClamp limits each Newton voltage update [V]; default 0.4.
	// Smaller values damp the iteration harder: slower convergence on
	// well-behaved circuits, but far more robust on stiff ones — the
	// retry ladder lowers it rung by rung.
	NewtonClamp float64
	InitV       func(name string) (float64, bool)
	// InitV optionally provides initial voltages for free nodes by name;
	// unspecified nodes start at 0 V.

	// FaultHook, when non-nil, is consulted at the start of every
	// transient attempt with the escalation-ladder rung (0 = first try,
	// see RunRetry). A non-nil return aborts the attempt with that
	// error exactly as if the solver had failed. It is a deterministic
	// fault-injection seam for exercising retry/salvage/resume paths in
	// tests; production configurations leave it nil.
	FaultHook func(attempt int) error

	attempt int // escalation-ladder rung, set by RunRetry
}

func (o *Options) fill(tstop float64) {
	if o.MaxStep == 0 {
		o.MaxStep = tstop / 200
	}
	if o.MinStep == 0 {
		o.MinStep = 1e-16
	}
	if o.DVTarget == 0 {
		o.DVTarget = 0.03
	}
	if o.NewtonClamp == 0 {
		o.NewtonClamp = 0.4
	}
}

// Result holds sampled waveforms for every node of a transient run.
// Voltages are stored in one flat arena (stride = node count) appended to
// in place as steps are accepted, so the transient loop performs no
// per-step slice allocation; read them through At, Voltage, Final, Cross
// and Slew.
type Result struct {
	c  *Circuit
	T  []float64 // sample times, ascending
	nn int       // voltages per sample (total node count)
	v  []float64 // flat sample arena: sample i starts at i*nn
}

// Samples returns the number of recorded time samples.
func (r *Result) Samples() int { return len(r.T) }

// Voltage returns the voltage of node n at sample index i.
func (r *Result) Voltage(i int, n NodeID) float64 { return r.v[i*r.nn+int(n)] }

// ErrNoConvergence is returned when Newton iteration fails even at the
// minimum time step.
var ErrNoConvergence = errors.New("spice: newton iteration did not converge")

// Run performs a transient analysis from t=0 to tstop. The circuit
// is first settled: a DC-like relaxation with all waveforms held at their
// t=0 values, so feedback structures (latches) reach a consistent state
// before time begins.
//
// Cancellation of ctx is honoured at every time step, so an interrupted
// sweep stops within one simulation step; the error then matches both
// conc.ErrCanceled and the context's own error. Solver effort (accepted
// and rejected steps, Newton iterations, wall time) is recorded into the
// metrics registry carried by ctx (obs.From).
func (c *Circuit) Run(ctx context.Context, tstop float64, opts Options) (*Result, error) {
	reg := obs.From(ctx)
	s := acquireSolver(reg)
	defer s.release()
	return c.runTransient(ctx, tstop, opts, s, reg)
}

// runTransient performs one transient attempt on a caller-owned solver.
// The solver's compiled stamp program is reused when it already belongs
// to this circuit (the retry ladder passes one solver through every
// rung); only the voltage state is reinitialized per attempt.
func (c *Circuit) runTransient(ctx context.Context, tstop float64, opts Options, s *solver, reg *obs.Registry) (*Result, error) {
	opts.fill(tstop)
	if s.c != c {
		s.compile(c)
	}
	s.initState(opts)

	t0 := time.Now()
	accepted, rejected := int64(0), int64(0)
	defer func() {
		reg.Counter("spice.transients").Inc()
		reg.Counter("spice.steps.accepted").Add(accepted)
		reg.Counter("spice.steps.rejected").Add(rejected)
		reg.Counter("spice.newton.iterations").Add(s.iters)
		reg.Histogram("spice.transient.seconds").Since(t0)
	}()

	// Check before the DC settle: it is the most expensive single solve of
	// the run, and a canceled caller should not pay for it.
	if err := ctx.Err(); err != nil {
		reg.Counter("spice.canceled").Inc()
		return nil, fmt.Errorf("spice: transient canceled before settle: %w",
			conc.WrapCanceled(err))
	}
	if opts.FaultHook != nil {
		if err := opts.FaultHook(opts.attempt); err != nil {
			reg.Counter("spice.faults.injected").Inc()
			if errors.Is(err, ErrNoConvergence) {
				reg.Counter("spice.noconverge").Inc()
			}
			return nil, fmt.Errorf("injected fault (attempt %d): %w", opts.attempt, err)
		}
	}
	if err := s.settle(); err != nil {
		reg.Counter("spice.noconverge").Inc()
		return nil, err
	}
	// Pre-size the sample arena for the expected step count; adaptive
	// stepping may exceed it, in which case append's amortized doubling
	// takes over.
	est := int(tstop/opts.MaxStep) + 16
	res := &Result{
		c:  c,
		nn: len(c.nodes),
		T:  make([]float64, 0, 2*est),
		v:  make([]float64, 0, 2*est*len(c.nodes)),
	}
	res.appendSample(0, s.vPrev)
	t, h := 0.0, opts.MaxStep/16
	for t < tstop {
		if err := ctx.Err(); err != nil {
			reg.Counter("spice.canceled").Inc()
			return nil, fmt.Errorf("spice: transient canceled at t=%s: %w",
				units.PsString(t), conc.WrapCanceled(err))
		}
		if t+h > tstop {
			h = tstop - t
		}
		ok, dvmax := s.step(t+h, h)
		switch {
		case !ok:
			rejected++
			h /= 4
			if h < opts.MinStep {
				reg.Counter("spice.noconverge").Inc()
				return nil, fmt.Errorf("%w at t=%s", ErrNoConvergence, units.PsString(t))
			}
		case dvmax > 2*opts.DVTarget && h > 64*opts.MinStep:
			s.reject()
			rejected++
			h /= 2
		default:
			s.acceptStep(h)
			accepted++
			t += h
			res.appendSample(t, s.vPrev)
			if dvmax < opts.DVTarget/4 {
				h = math.Min(h*1.5, opts.MaxStep)
			}
		}
	}
	return res, nil
}

// appendSample records one accepted time sample by copying v (the
// committed node voltages) onto the end of the flat arena.
func (r *Result) appendSample(t float64, v []float64) {
	r.T = append(r.T, t)
	r.v = append(r.v, v...)
}

// At returns the voltage of node n at time t by linear interpolation.
func (r *Result) At(n NodeID, t float64) float64 {
	ts := r.T
	if t <= ts[0] {
		return r.Voltage(0, n)
	}
	if t >= ts[len(ts)-1] {
		return r.Voltage(len(ts)-1, n)
	}
	// Binary search for the bracketing interval.
	lo, hi := 0, len(ts)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ts[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := (t - ts[lo]) / (ts[hi] - ts[lo])
	return units.Lerp(r.Voltage(lo, n), r.Voltage(hi, n), f)
}

// Cross returns the first time after 'after' at which node n crosses
// voltage v in the given direction (rising: from below to at-or-above).
// ok is false if no crossing is found. The scan starts at the first
// sample at or after 'after' (binary search, not a walk from t=0), so
// measuring a late transition does not pay for the whole trace; Slew
// calls Cross twice per measurement.
func (r *Result) Cross(n NodeID, v float64, rising bool, after float64) (t float64, ok bool) {
	// First candidate pair (i-1, i) has T[i] >= after.
	i := sort.SearchFloat64s(r.T, after)
	if i < 1 {
		i = 1
	}
	for ; i < len(r.T); i++ {
		a, b := r.Voltage(i-1, n), r.Voltage(i, n)
		if rising && a < v && b >= v || !rising && a > v && b <= v {
			f := (v - a) / (b - a)
			return units.Lerp(r.T[i-1], r.T[i], f), true
		}
	}
	return 0, false
}

// Slew measures the 20%-80% transition time of node n (for the first
// transition in the given direction after 'after'), scaled by 1/0.6 to a
// full-swing-equivalent slew — the same convention used for input ramps,
// so characterized output slews can be fed back as input slews.
func (r *Result) Slew(n NodeID, vdd float64, rising bool, after float64) (float64, bool) {
	lo, hi := 0.2*vdd, 0.8*vdd
	var t1, t2 float64
	var ok bool
	if rising {
		if t1, ok = r.Cross(n, lo, true, after); !ok {
			return 0, false
		}
		if t2, ok = r.Cross(n, hi, true, t1); !ok {
			return 0, false
		}
	} else {
		if t1, ok = r.Cross(n, hi, false, after); !ok {
			return 0, false
		}
		if t2, ok = r.Cross(n, lo, false, t1); !ok {
			return 0, false
		}
	}
	return (t2 - t1) / 0.6, true
}
