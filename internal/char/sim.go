package char

import (
	"context"
	"fmt"

	"ageguard/internal/aging"
	"ageguard/internal/cells"
	"ageguard/internal/conc"
	"ageguard/internal/device"
	"ageguard/internal/liberty"
	"ageguard/internal/spice"
	"ageguard/internal/units"
)

// build instantiates the cell's transistor topology as a spice circuit with
// devices degraded per the scenario. It returns the circuit and the node
// map (topology name -> node).
func (cfg Config) build(c *cells.Cell, s aging.Scenario) (*spice.Circuit, map[string]spice.NodeID) {
	degP, degN := cfg.degradations(s)
	ckt := spice.New(cfg.Tech.Vdd)
	nodes := map[string]spice.NodeID{
		cells.NodeGND: ckt.Gnd(),
		cells.NodeVDD: ckt.Vdd(),
	}
	get := func(name string) spice.NodeID {
		if n, ok := nodes[name]; ok {
			return n
		}
		n := ckt.Node(name)
		nodes[name] = n
		return n
	}
	for _, spec := range c.Topo.Devices {
		p := c.DeviceParams(cfg.Tech, spec)
		if spec.Type == device.PMOS {
			p = p.Degrade(degP.DVth, degP.MuFactor)
		} else {
			p = p.Degrade(degN.DVth, degN.MuFactor)
		}
		// Unconditional: the zero Perturb adds 0 and scales by 1, both
		// exact, so nominal builds stay bit-identical.
		p = p.Perturbed(cfg.Perturb)
		ckt.MOS(p, get(spec.D), get(spec.G), get(spec.S))
	}
	return ckt, nodes
}

// measurement is the outcome of one transient characterization point.
type measurement struct {
	delay, slew float64
}

// gridSweep fans the (edge, slew, load) operating-condition points of one
// arc out over goroutines gated by lim, the simulation limiter shared by
// the whole characterization run. Every point writes its measurement into
// the pre-allocated table slot (i, j) of its edge — distinct slots, no
// appends — so results are bit-identical to the serial sweep regardless of
// completion order. With a single-token limiter the plain nested loops run
// inline instead, preserving the exact serial execution.
//
// A point whose transient still fails to converge after the retry ladder
// does not abort the sweep (unless Config.Strict): its failure is
// recorded in a per-slot grid and, once every other point has finished,
// salvageArc repairs the isolated holes by neighbor interpolation — or
// fails the arc with a point-identifying error when the failures exceed
// the salvage policy.
func (cfg Config) gridSweep(ctx context.Context, lim conc.Limiter, base Point, arc *liberty.Arc,
	sim func(ctx context.Context, outEdge liberty.Edge, i, j int) (measurement, error)) error {

	edges := []liberty.Edge{liberty.Rise, liberty.Fall}
	for _, e := range edges {
		arc.Delay[e] = liberty.NewTable(cfg.Slews, cfg.Loads)
		arc.OutSlew[e] = liberty.NewTable(cfg.Slews, cfg.Loads)
	}
	failed := newFailGrid(len(cfg.Slews), len(cfg.Loads))
	point := func(ctx context.Context, e liberty.Edge, i, j int) error {
		m, err := sim(ctx, e, i, j)
		if err != nil {
			err = fmt.Errorf("%s slew=%s load=%s: %w",
				e, units.PsString(cfg.Slews[i]), units.FFString(cfg.Loads[j]), err)
			// Permanent convergence failures become salvage candidates;
			// cancellations, measurement errors and Strict-mode runs
			// abort the arc immediately.
			if !cfg.Strict && spice.Classify(err) == spice.FailConvergence {
				failed[e][i][j] = err
				return nil
			}
			return err
		}
		arc.Delay[e].Values[i][j] = m.delay
		arc.OutSlew[e].Values[i][j] = m.slew
		return nil
	}
	if lim.Cap() == 1 {
		for _, e := range edges {
			for i := range cfg.Slews {
				for j := range cfg.Loads {
					if err := ctx.Err(); err != nil {
						return conc.WrapCanceled(err)
					}
					if err := point(ctx, e, i, j); err != nil {
						return err
					}
				}
			}
		}
		return cfg.salvageArc(ctx, base, arc, failed)
	}
	// Bound live point goroutines by the limiter capacity instead of
	// spawning one per grid point: a sweep-wide flood (tens of thousands
	// across a library) swamps the scheduler's run queue, which on a
	// small-GOMAXPROCS host starves the signal-watcher goroutine and turns
	// Ctrl-C from milliseconds into seconds.
	g, gctx := conc.NewGroup(ctx)
	g.SetLimit(lim.Cap())
dispatch:
	for _, e := range edges {
		for i := range cfg.Slews {
			for j := range cfg.Loads {
				if gctx.Err() != nil {
					break dispatch
				}
				g.Go(func() error {
					if err := lim.Acquire(gctx); err != nil {
						return conc.WrapCanceled(err)
					}
					defer lim.Release()
					return point(gctx, e, i, j)
				})
			}
		}
	}
	if err := g.Wait(); err != nil {
		return err
	}
	// Dispatch may have stopped early on a parent cancellation that no
	// in-flight task happened to observe; an incomplete sweep must not
	// return a nil error.
	if err := conc.WrapCanceled(ctx.Err()); err != nil {
		return err
	}
	return cfg.salvageArc(ctx, base, arc, failed)
}

// combArc characterizes one combinational arc over the full OPC grid.
func (cfg Config) combArc(ctx context.Context, lim conc.Limiter, c *cells.Cell, s aging.Scenario, spec ArcSpec) (*liberty.Arc, error) {
	arc := &liberty.Arc{Pin: spec.Pin, Sense: spec.Sense, When: spec.When}
	pi := c.PinIndex(spec.Pin)
	base := Point{Cell: c.Name, Pin: spec.Pin}
	err := cfg.gridSweep(ctx, lim, base, arc, func(ctx context.Context, outEdge liberty.Edge, i, j int) (measurement, error) {
		inEdge := spec.Sense.InputEdge(outEdge)
		p := Point{Cell: c.Name, Pin: spec.Pin, Edge: outEdge, I: i, J: j}
		return cfg.simComb(ctx, c, s, spec, p, pi, inEdge, outEdge, cfg.Slews[i], cfg.Loads[j])
	})
	if err != nil {
		return nil, err
	}
	return arc, nil
}

// solverOpts binds the per-point fault-injection seam (if any) into the
// solver options; p identifies the grid point to the hook.
func (cfg Config) solverOpts(opts spice.Options, p Point) spice.Options {
	if cfg.FaultInject != nil {
		opts.FaultHook = func(attempt int) error { return cfg.FaultInject(p, attempt) }
	}
	return opts
}

func (cfg Config) simComb(ctx context.Context, c *cells.Cell, s aging.Scenario, spec ArcSpec,
	p Point, pi int, inEdge, outEdge liberty.Edge, slew, load float64) (measurement, error) {

	vdd := cfg.Tech.Vdd
	ckt, nodes := cfg.build(c, s)

	// Side inputs at their sensitizing DC values.
	for k, pin := range c.Inputs {
		if k == pi {
			continue
		}
		v := 0.0
		if spec.When>>k&1 == 1 {
			v = vdd
		}
		ckt.Drive(nodes[pin], spice.DC(v))
	}
	t0 := 100 * units.Ps
	v0, v1 := 0.0, vdd
	if inEdge == liberty.Fall {
		v0, v1 = vdd, 0
	}
	ckt.Drive(nodes[spec.Pin], spice.Ramp{T0: t0, Slew: slew, V0: v0, V1: v1})
	out := nodes[c.Output]
	ckt.C(out, ckt.Gnd(), load)

	tstop := t0 + slew + 3*units.Ns
	opts := cfg.solverOpts(spice.Options{MaxStep: 25 * units.Ps}, p)
	res, err := ckt.RunRetry(ctx, tstop, opts, cfg.retries())
	if err != nil {
		return measurement{}, err
	}
	tIn := t0 + slew/2 // linear ramp crosses 50% at its midpoint
	tOut, ok := res.Cross(out, vdd/2, outEdge == liberty.Rise, t0)
	if !ok {
		return measurement{}, fmt.Errorf("output did not cross 50%%")
	}
	oslew, ok := res.Slew(out, vdd, outEdge == liberty.Rise, t0)
	if !ok {
		return measurement{}, fmt.Errorf("output slew unmeasurable")
	}
	return measurement{delay: tOut - tIn, slew: oslew}, nil
}

// clockArc characterizes the CK->Q arc of a flip-flop: Q rise with D=1 and
// Q fall with D=0, over clock slew x output load. The slave latch is
// initialized to the opposite state so the clock edge produces a Q toggle.
func (cfg Config) clockArc(ctx context.Context, lim conc.Limiter, c *cells.Cell, s aging.Scenario) (*liberty.Arc, error) {
	arc := &liberty.Arc{Pin: c.Clock, Sense: liberty.PositiveUnate}
	base := Point{Cell: c.Name, Pin: c.Clock}
	err := cfg.gridSweep(ctx, lim, base, arc, func(ctx context.Context, outEdge liberty.Edge, i, j int) (measurement, error) {
		p := Point{Cell: c.Name, Pin: c.Clock, Edge: outEdge, I: i, J: j}
		m, err := cfg.simClock(ctx, c, s, p, outEdge, cfg.Slews[i], cfg.Loads[j])
		if err != nil {
			return m, fmt.Errorf("CK->Q: %w", err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return arc, nil
}

func (cfg Config) simClock(ctx context.Context, c *cells.Cell, s aging.Scenario,
	p Point, outEdge liberty.Edge, slew, load float64) (measurement, error) {

	vdd := cfg.Tech.Vdd
	ckt, nodes := cfg.build(c, s)
	dVal := vdd // Q will rise
	if outEdge == liberty.Fall {
		dVal = 0
	}
	ckt.Drive(nodes[c.Data], spice.DC(dVal))
	t0 := 150 * units.Ps
	ckt.Drive(nodes[c.Clock], spice.Ramp{T0: t0, Slew: slew, V0: 0, V1: vdd})
	out := nodes[c.Output]
	ckt.C(out, ckt.Gnd(), load)

	// Initialize the slave latch to hold !D so the edge toggles Q.
	// Node names follow the DFF topology in cells: n4 = !Q internal.
	hold := vdd - dVal // previous Q value
	init := map[string]float64{
		"n4": vdd - hold, // n4 = !Qprev
		"n5": hold,
		"n6": vdd - hold,
		"Q":  hold,
	}
	opts := cfg.solverOpts(spice.Options{
		MaxStep: 25 * units.Ps,
		InitV: func(name string) (float64, bool) {
			v, ok := init[name]
			return v, ok
		},
	}, p)
	tstop := t0 + slew + 3*units.Ns
	res, err := ckt.RunRetry(ctx, tstop, opts, cfg.retries())
	if err != nil {
		return measurement{}, err
	}
	tCk := t0 + slew/2
	tOut, ok := res.Cross(out, vdd/2, outEdge == liberty.Rise, tCk)
	if !ok {
		return measurement{}, fmt.Errorf("Q did not toggle")
	}
	oslew, ok := res.Slew(out, vdd, outEdge == liberty.Rise, tCk)
	if !ok {
		return measurement{}, fmt.Errorf("Q slew unmeasurable")
	}
	return measurement{delay: tOut - tCk, slew: oslew}, nil
}
