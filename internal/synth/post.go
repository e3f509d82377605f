package synth

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"ageguard/internal/liberty"
	"ageguard/internal/logic"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
	"ageguard/internal/sta"
	"ageguard/internal/units"
)

// Synthesize runs the full flow the paper drives through Design Compiler:
// technology mapping with the provided library, sequential wrapping, and
// timing-driven gate sizing plus buffer insertion with maximum effort on
// performance (the paper's compile_ultra setting). Like compile_ultra's
// multiple optimization strategies, several mapper seeds are explored and
// the fastest result *under the provided library* wins. The resulting
// netlist is optimized for the delays in that library — hand it the
// degradation-aware library and the circuit is optimized against aging.
//
// ctx is checked between mapping seeds and optimization rounds (each is
// pure in-memory CPU work, so that is the natural interruption
// granularity), and the run is traced under a "synth.synthesize" span
// with per-netlist counters.
func Synthesize(ctx context.Context, a *logic.AIG, lib *liberty.Library, name string, cfg Config) (*netlist.Netlist, error) {
	ctx, sp := obs.StartSpan(ctx, "synth.synthesize")
	defer sp.End()
	sp.SetAttr("circuit", name)
	sp.SetAttr("lib", lib.Name)
	reg := obs.From(ctx)
	t0 := time.Now()
	defer func() {
		reg.Counter("synth.netlists").Inc()
		reg.Histogram("synth.synthesize.seconds").Since(t0)
	}()
	cfg.fill()
	// Seeds: two library-driven mappings plus three library-agnostic
	// structural strategies shared by every library (so that comparisons
	// between flows given different libraries are not confounded by
	// mapping-quality luck: the library still decides the winner and all
	// sizing/buffering).
	seeds := []Config{cfg, cfg, cfg, cfg, cfg, cfg}
	seeds[1].DPDrive = 1
	seeds[2].DPDrive = 4
	seeds[3].UnitDelay = true
	seeds[4].UnitDelay = true
	seeds[4].UnitMode = 1
	seeds[5].UnitDelay = true
	seeds[5].UnitMode = 2
	var nl *netlist.Netlist
	bestCP := 0.0
	for _, seed := range seeds {
		if err := ctx.Err(); err != nil {
			sp.EndErr(err)
			return nil, fmt.Errorf("synth: %s: %w", name, err)
		}
		cand, err := synthesizeOne(ctx, a, lib, name, seed)
		if err != nil {
			return nil, err
		}
		res, err := sta.Analyze(ctx, cand, lib, cfg.STA)
		if err != nil {
			return nil, err
		}
		if nl == nil || res.CP < bestCP {
			nl, bestCP = cand, res.CP
		}
	}
	// Post-selection polish: the winning netlist gets one more full
	// sizing/buffering round before area recovery.
	nl, err := SizeGates(ctx, nl, lib, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Buffering {
		if nl, err = BufferCriticalNets(ctx, nl, lib, cfg); err != nil {
			return nil, err
		}
	}
	return RecoverArea(ctx, nl, lib, cfg)
}

// synthesizeOne is one mapping seed: map, register, fix design rules,
// size, buffer.
func synthesizeOne(ctx context.Context, a *logic.AIG, lib *liberty.Library, name string, cfg Config) (*netlist.Netlist, error) {
	nl, err := Map(a, lib, name, cfg)
	if err != nil {
		return nil, err
	}
	nl = WrapSequential(nl)
	nl = FixDesignRules(nl, lib)
	nl, err = SizeGates(ctx, nl, lib, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Buffering {
		nl, err = BufferCriticalNets(ctx, nl, lib, cfg)
		if err != nil {
			return nil, err
		}
	}
	return nl, nil
}

// FixDesignRules repairs max-capacitance violations the way commercial
// flows do before timing optimization: every driver is upsized until its
// load per unit drive falls under the rule limit. This matters most for
// library-agnostic (unit-delay) mapping seeds, which are load-blind.
func FixDesignRules(nl *netlist.Netlist, lib *liberty.Library) *netlist.Netlist {
	out := nl.Clone()
	look := netlist.LibraryLookup(lib)
	fan, err := out.FanoutMap(look)
	if err != nil {
		return nl
	}
	// Load per net from sink pin caps.
	loadOf := func(net string) float64 {
		l := 2e-15 // wire estimate, matching the STA model
		for _, s := range fan[net] {
			l += lib.MustCell(s.Inst.Cell).PinCap[s.Pin]
		}
		return l
	}
	const loadPerDrive = 3.0e-15 // max cap rule: 3 fF per unit drive
	for _, in := range out.Insts {
		ct := lib.MustCell(in.Cell)
		load := loadOf(in.Pins[ct.Output])
		need := load / loadPerDrive
		if float64(ct.Drive) >= need {
			continue
		}
		for _, v := range variantsIn(lib, ct.Base) {
			if float64(v.Drive) >= need || v.Drive > ct.Drive {
				if v.Drive > ct.Drive {
					in.Cell = v.Name
				}
				if float64(v.Drive) >= need {
					break
				}
			}
		}
	}
	return out
}

// RecoverArea downsizes instances with timing slack, verifying with full
// STA that the critical path is not degraded — the standard area-recovery
// step after performance-driven optimization, run (as in real flows) down
// to small slack margins.
//
// This pass is where the provided library matters most for reliability:
// recovery driven by the fresh library happily leaves slack paths with
// weak drivers and slow slews — precisely the operating conditions under
// which BTI degradation is amplified severalfold (Fig. 1) — whereas
// recovery driven by the degradation-aware library sees those aged delays
// and keeps such paths strong. This is the mechanism behind the paper's
// observation that traditionally optimized circuits need large guardbands
// while aging-aware synthesis contains them.
func RecoverArea(ctx context.Context, nl *netlist.Netlist, lib *liberty.Library, cfg Config) (*netlist.Netlist, error) {
	cfg.fill()
	cur := nl.Clone()
	a, err := sta.NewAnalyzer(ctx, cur, lib, cfg.STA)
	if err != nil {
		return nil, err
	}
	res := a.Result()
	for _, frac := range []float64{0.5, 0.3, 0.2, 0.12, 0.06} {
		threshold := frac * res.CP
		var swaps []sta.CellSwap
		for _, in := range cur.Insts {
			ct := lib.MustCell(in.Cell)
			if ct.Seq || ct.Drive == 1 {
				continue
			}
			outNet := in.Pins[ct.Output]
			if s, ok := res.Slack[outNet]; !ok || s < threshold {
				continue
			}
			smaller := fmt.Sprintf("%s_X%d", ct.Base, ct.Drive/2)
			if _, ok := lib.Cell(smaller); ok {
				swaps = append(swaps, sta.CellSwap{Inst: in.Name, Cell: smaller})
			}
		}
		if len(swaps) == 0 {
			continue
		}
		undo, err := a.Swap(ctx, swaps...)
		if err != nil {
			return nil, err
		}
		if a.CP() > res.CP*1.001 {
			// Too aggressive at this threshold: reject and try the next.
			if _, err := a.Swap(ctx, undo...); err != nil {
				return nil, err
			}
			continue
		}
		res = a.Result()
	}
	return cur, nil
}

// SizeGates iteratively resizes instances on the critical path, choosing
// per instance the drive strength that minimizes the local stage delay
// (its own arc delay at the real load plus the upstream penalty of its
// changed pin capacitance), and keeps a round only when full STA confirms
// the critical path improved.
func SizeGates(ctx context.Context, nl *netlist.Netlist, lib *liberty.Library, cfg Config) (*netlist.Netlist, error) {
	cfg.fill()
	cur := nl.Clone()
	a, err := sta.NewAnalyzer(ctx, cur, lib, cfg.STA)
	if err != nil {
		return nil, err
	}
	res := a.Result()
	for round := 0; round < sizingRounds; round++ {
		// Decisions are computed on a scratch clone so that later choices
		// in the same round see earlier ones (the pin-cap deltas interact),
		// then applied to the engine as one incremental swap batch.
		next := cur.Clone()
		byName := instIndex(next)
		for _, step := range res.Worst.Steps {
			in := byName[step.Inst]
			if in == nil {
				continue
			}
			bestCell, improved := bestVariant(lib, res, in, step)
			if improved && bestCell != in.Cell {
				in.Cell = bestCell
			}
		}
		// Global phase: every instance in the near-critical region (not
		// just the single worst path) gets its locally best drive, so the
		// netlist converges to the library-specific optimum rather than
		// to whatever the worst-path ordering happened to visit.
		resizeNearCritical(lib, res, next, byName)
		swaps := diffSwaps(cur, next)
		if len(swaps) == 0 {
			break
		}
		undo, err := a.Swap(ctx, swaps...)
		if err != nil {
			return nil, err
		}
		if a.CP() >= res.CP {
			// No global gain: restore the previous netlist and stop.
			if _, err := a.Swap(ctx, undo...); err != nil {
				return nil, err
			}
			break
		}
		res = a.Result()
	}
	return cur, nil
}

// diffSwaps returns the cell substitutions that turn base into next (two
// netlists with identical instance lists, e.g. a netlist and its mutated
// clone).
func diffSwaps(base, next *netlist.Netlist) []sta.CellSwap {
	var out []sta.CellSwap
	for i, in := range base.Insts {
		if nc := next.Insts[i].Cell; nc != in.Cell {
			out = append(out, sta.CellSwap{Inst: in.Name, Cell: nc})
		}
	}
	return out
}

// resizeNearCritical applies the local drive choice to every
// combinational instance whose output slack is within 3% of the critical
// path, returning the number of changes.
func resizeNearCritical(lib *liberty.Library, res *sta.Result, nl *netlist.Netlist,
	byName map[string]*netlist.Inst) int {

	margin := 0.03 * res.CP
	changed := 0
	for _, in := range nl.Insts {
		ct := lib.MustCell(in.Cell)
		if ct.Seq {
			continue
		}
		outNet := in.Pins[ct.Output]
		s, ok := res.Slack[outNet]
		if !ok || s > margin {
			continue
		}
		outLoad := res.Load[outNet]
		cost := func(v *liberty.CellTiming) float64 {
			worst := 0.0
			for _, pin := range v.Inputs {
				inNet := in.Pins[pin]
				sl := res.Slew[inNet]
				slew := math.Max(sl[0], sl[1])
				if slew <= 0 {
					slew = 20 * units.Ps
				}
				d, _, ok := arcTiming(v, pin, slew, outLoad)
				if !ok {
					return math.Inf(1)
				}
				// Pin-cap penalty on the upstream stage.
				d += (v.PinCap[pin] - ct.PinCap[pin]) / (1 * units.FF) * 1 * units.Ps
				if d > worst {
					worst = d
				}
			}
			return worst
		}
		best, bestCost := in.Cell, cost(ct)
		for _, v := range variantsIn(lib, ct.Base) {
			if c := cost(v); c < bestCost-0.01*units.Ps {
				best, bestCost = v.Name, c
			}
		}
		if best != in.Cell {
			in.Cell = best
			changed++
		}
	}
	return changed
}

func instIndex(nl *netlist.Netlist) map[string]*netlist.Inst {
	m := make(map[string]*netlist.Inst, len(nl.Insts))
	for _, in := range nl.Insts {
		m[in.Name] = in
	}
	return m
}

// variantsIn returns the library cells sharing a base, ascending by drive.
func variantsIn(lib *liberty.Library, base string) []*liberty.CellTiming {
	var out []*liberty.CellTiming
	for _, d := range []int{1, 2, 4, 8} {
		if ct, ok := lib.Cell(fmt.Sprintf("%s_X%d", base, d)); ok {
			out = append(out, ct)
		}
	}
	return out
}

// bestVariant evaluates drive alternatives for the instance traversed by
// a critical-path step using the annotated STA result.
func bestVariant(lib *liberty.Library, res *sta.Result, in *netlist.Inst, step sta.Step) (string, bool) {
	cur := lib.MustCell(in.Cell)
	outLoad := res.Load[step.ToNet]
	inSlew := slewOf(res, step.FromNet, step.InEdge)
	inLoad := res.Load[step.FromNet]

	cost := func(ct *liberty.CellTiming) float64 {
		// Edge-specific delay of the exact critical-path transition.
		d := math.Inf(1)
		for _, arc := range ct.Arcs {
			if arc.Pin != step.Pin || arc.Delay[step.OutEdge] == nil {
				continue
			}
			if !ct.Seq && arc.Sense.InputEdge(step.OutEdge) != step.InEdge {
				continue
			}
			if v := arc.Delay[step.OutEdge].At(inSlew, outLoad); v < d {
				d = v
			}
		}
		if math.IsInf(d, 1) {
			var ok bool
			if d, _, ok = arcTiming(ct, step.Pin, inSlew, outLoad); !ok {
				return math.Inf(1)
			}
		}
		// Upstream penalty: the driver of FromNet sees the pin-cap delta.
		delta := ct.PinCap[step.Pin] - cur.PinCap[step.Pin]
		// Approximate dDelay/dLoad of the upstream stage with the slope of
		// the stage's slew/load relation: use a proportional penalty.
		penalty := 0.0
		if inLoad > 0 {
			penalty = delta / inLoad * slewOf(res, step.FromNet, step.InEdge) * 0.5
		}
		return d + penalty
	}
	best, bestCost := in.Cell, cost(cur)
	for _, v := range variantsIn(lib, cur.Base) {
		if c := cost(v); c < bestCost-0.01*units.Ps {
			best, bestCost = v.Name, c
		}
	}
	return best, best != in.Cell
}

func slewOf(res *sta.Result, net string, e liberty.Edge) float64 {
	if s, ok := res.Slew[net]; ok && s[e] > 0 {
		return s[e]
	}
	return 20 * units.Ps
}

// BufferCriticalNets splits high-fanout nets on the critical path: the
// critical sink keeps the direct connection while the remaining sinks move
// behind a buffer, unloading the critical transition. Changes are kept
// only when STA confirms an improvement. It edits netlist structure (new
// buffer instances and rewired pins), which invalidates a compiled
// Analyzer topology, so each round is verified with a full analysis
// rather than an incremental swap.
func BufferCriticalNets(ctx context.Context, nl *netlist.Netlist, lib *liberty.Library, cfg Config) (*netlist.Netlist, error) {
	cfg.fill()
	cur := nl
	res, err := sta.Analyze(ctx, cur, lib, cfg.STA)
	if err != nil {
		return nil, err
	}
	look := netlist.LibraryLookup(lib)
	for round := 0; round < 3; round++ {
		fan, err := cur.FanoutMap(look)
		if err != nil {
			return nil, err
		}
		next := cur.Clone()
		nfan, _ := next.FanoutMap(look)
		changed := 0
		for i, step := range res.Worst.Steps {
			if i+1 >= len(res.Worst.Steps) {
				break
			}
			net := step.ToNet
			sinks := fan[net]
			if len(sinks) < 4 {
				continue
			}
			critInst := res.Worst.Steps[i+1].Inst
			critPin := res.Worst.Steps[i+1].Pin
			bufNet := net + "_buf"
			if strings.HasSuffix(net, "_buf") || netExists(next, bufNet) {
				continue
			}
			moved := 0
			for _, s := range nfan[net] {
				if s.Inst.Name == critInst && s.Pin == critPin {
					continue
				}
				s.Inst.Pins[s.Pin] = bufNet
				moved++
			}
			if moved == 0 {
				continue
			}
			next.AddInst("buf_"+net, "BUF_X4", map[string]string{"A": net, "Z": bufNet})
			changed++
		}
		if changed == 0 {
			break
		}
		nres, err := sta.Analyze(ctx, next, lib, cfg.STA)
		if err != nil {
			return nil, err
		}
		if nres.CP >= res.CP {
			break
		}
		cur, res = next, nres
	}
	return cur, nil
}

func netExists(nl *netlist.Netlist, net string) bool {
	for _, in := range nl.Insts {
		for _, n := range in.Pins {
			if n == net {
				return true
			}
		}
	}
	return false
}

// ctx is checked between rounds; STA timings are recorded into the
// registry carried by ctx.
func SizeGatesDual(ctx context.Context, nl *netlist.Netlist, costLib, critLib *liberty.Library, cfg Config) (*netlist.Netlist, error) {
	cfg.fill()
	cur := nl.Clone()
	// Two incremental engines over the same netlist, kept in lockstep: one
	// times under the aged (criticality) library, the other under the
	// fresh (costing) library.
	aCrit, err := sta.NewAnalyzer(ctx, cur, critLib, cfg.STA)
	if err != nil {
		return nil, err
	}
	aCost, err := sta.NewAnalyzer(ctx, cur, costLib, cfg.STA)
	if err != nil {
		return nil, err
	}
	crit := aCrit.Result()
	for round := 0; round < sizingRounds; round++ {
		cost := aCost.Result()
		next := cur.Clone()
		byName := instIndex(next)
		for _, step := range crit.Worst.Steps {
			in := byName[step.Inst]
			if in == nil {
				continue
			}
			bestCell, improved := bestVariant(costLib, cost, in, step)
			if improved && bestCell != in.Cell {
				in.Cell = bestCell
			}
		}
		swaps := diffSwaps(cur, next)
		if len(swaps) == 0 {
			break
		}
		// Apply to both engines; undo comes from the first (the second sees
		// already-updated cells, so its own undo would be a no-op).
		undo, err := aCrit.Swap(ctx, swaps...)
		if err != nil {
			return nil, err
		}
		if _, err := aCost.Swap(ctx, swaps...); err != nil {
			return nil, err
		}
		if aCrit.CP() >= crit.CP {
			if _, err := aCrit.Swap(ctx, undo...); err != nil {
				return nil, err
			}
			if _, err := aCost.Swap(ctx, undo...); err != nil {
				return nil, err
			}
			break
		}
		crit = aCrit.Result()
	}
	return cur, nil
}
