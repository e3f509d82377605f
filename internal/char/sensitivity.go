package char

import (
	"context"
	"fmt"

	"ageguard/internal/aging"
	"ageguard/internal/cells"
	"ageguard/internal/conc"
	"ageguard/internal/device"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
)

// This file implements the sensitivity-based re-characterization path of
// the process-variation Monte Carlo subsystem. Re-simulating every cell
// for every sampled device perturbation would cost a full characterization
// per sample; instead we characterize the library a handful of times —
// once nominal plus once per variation parameter at a small step — and
// build first-order per-arc sensitivity tables
//
//	S_p[i][j] = (D_{step p}[i][j] - D_nominal[i][j]) / step_p
//
// for every arc's delay and output-slew tables. A sampled instance with
// parameter draws (dVthP, dVthN, dMuP, dMuN) then gets the table
//
//	D[i][j] = D_nominal[i][j] + sum_p draw_p * S_p[i][j]
//
// Because NLDM interpolation (liberty.Table.At) is linear in the table
// values, applying the delta at the grid points is exactly equivalent to
// applying it after interpolation — the first-order model composes with
// the table lookup without additional error. The exact validation mode
// (CharacterizeCellPerturbed) re-simulates a cell with the drawn
// perturbation through the same SPICE path, so the difference between the
// two is purely the first-order truncation error, which the differential
// test (core's TestMCGuardbandSensitivityMatchesExact) bounds.

// Finite-difference steps for the sensitivity characterizations. The Vth
// step is chosen near the per-instance sigma so the secant slope averages
// the curvature over the region actually sampled; the mobility step is
// negative because both aging and slow-corner variation reduce mobility.
const (
	SensStepVth = 0.010 // [V]
	SensStepMu  = -0.05 // relative
)

// Variation parameter indices within ArcSens.
const (
	sensVthP = iota
	sensVthN
	sensMuP
	sensMuN
	numSensParams
)

// ArcSens holds per-unit-parameter derivative tables for one timing arc:
// Delay[p][e] is dDelay/dparam_p for output edge e, on the library's
// slew x load grid. A nil table mirrors a nil table in the base arc.
type ArcSens struct {
	Delay   [numSensParams][2]*liberty.Table
	OutSlew [numSensParams][2]*liberty.Table
}

// Sensitivity is a characterized library together with first-order
// per-arc sensitivities to the four variation parameters. Build with
// Config.Sensitivities; materialize per-sample instance libraries with
// SampleLibrary. Immutable after construction and safe for concurrent
// use.
type Sensitivity struct {
	// Base is the nominal library the sensitivities are taken around.
	Base *liberty.Library

	arcs map[string][]ArcSens // cell name -> per-arc sensitivities
}

// Sensitivities characterizes the nominal library plus one single-axis
// perturbed library per variation parameter (five characterizations, all
// cache-eligible since Config.Perturb enters the cache hash) and returns
// the finite-difference sensitivity tables. The perturbed runs execute
// sequentially — each is internally parallel under cfg.Parallelism, so
// stacking them would only oversubscribe the simulation limiter.
func (cfg Config) Sensitivities(ctx context.Context, s aging.Scenario) (*Sensitivity, error) {
	ctx, sp := obs.StartSpan(ctx, "char.sensitivities")
	defer sp.End()
	sp.SetAttr("scenario", s.String())

	base, err := cfg.Characterize(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("char: sensitivity base: %w", err)
	}
	steps := [numSensParams]device.Perturb{
		sensVthP: {DVthP: SensStepVth},
		sensVthN: {DVthN: SensStepVth},
		sensMuP:  {DMuP: SensStepMu},
		sensMuN:  {DMuN: SensStepMu},
	}
	stepSize := [numSensParams]float64{SensStepVth, SensStepVth, SensStepMu, SensStepMu}
	var perturbed [numSensParams]*liberty.Library
	for p, step := range steps {
		pcfg := cfg
		pcfg.Perturb = cfg.Perturb.Add(step)
		lib, err := pcfg.Characterize(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("char: sensitivity step %v: %w", step, err)
		}
		perturbed[p] = lib
	}

	sn := &Sensitivity{Base: base, arcs: make(map[string][]ArcSens, len(base.Cells))}
	for name, ct := range base.Cells {
		arcSens := make([]ArcSens, len(ct.Arcs))
		for p := 0; p < numSensParams; p++ {
			pct, ok := perturbed[p].Cells[name]
			if !ok || len(pct.Arcs) != len(ct.Arcs) {
				return nil, fmt.Errorf("char: sensitivity library %d misaligned for cell %s", p, name)
			}
			for ai := range ct.Arcs {
				b, q := &ct.Arcs[ai], &pct.Arcs[ai]
				if b.Pin != q.Pin || b.Sense != q.Sense {
					return nil, fmt.Errorf("char: sensitivity arc %d misaligned for cell %s", ai, name)
				}
				for e := 0; e < 2; e++ {
					arcSens[ai].Delay[p][e] = diffTable(q.Delay[e], b.Delay[e], stepSize[p])
					arcSens[ai].OutSlew[p][e] = diffTable(q.OutSlew[e], b.OutSlew[e], stepSize[p])
				}
			}
		}
		sn.arcs[name] = arcSens
	}
	return sn, nil
}

// diffTable returns (pert - base)/step per grid point, or nil when either
// input is nil (mirroring absent edge tables).
func diffTable(pert, base *liberty.Table, step float64) *liberty.Table {
	if pert == nil || base == nil {
		return nil
	}
	out := liberty.NewTable(base.Slews, base.Loads)
	for i, row := range base.Values {
		for j, v := range row {
			out.Values[i][j] = (pert.Values[i][j] - v) / step
		}
	}
	return out
}

// InstDraw is one placed instance together with its sampled perturbation:
// the input to per-sample library materialization.
type InstDraw struct {
	Inst string // instance name in the netlist
	Cell string // base library cell name
	Pb   device.Perturb
}

// VariantCell names the per-instance cell of inst in a Monte Carlo sample
// library ("NAND2_X1@u7"). The '@' cannot occur in catalog cell names or
// lambda-indexed merged names, so variants never collide with base cells.
func VariantCell(cell, inst string) string { return cell + "@" + inst }

// SampleLibrary materializes the instance-variant library of one Monte
// Carlo sample: for every drawn instance it adds a cell named
// VariantCell(draw.Cell, draw.Inst) whose delay and output-slew tables are
// the nominal tables plus the first-order sensitivity deltas for the
// instance's draws. Instances with a zero draw share the nominal tables
// outright. Pin capacitances are geometry-only and therefore shared
// unchanged, which keeps netlist loads — and hence the compiled STA
// topology — identical across samples.
func (sn *Sensitivity) SampleLibrary(name string, draws []InstDraw) (*liberty.Library, error) {
	lib := &liberty.Library{
		Name:     name,
		Scenario: sn.Base.Scenario,
		Vdd:      sn.Base.Vdd,
		Slews:    sn.Base.Slews,
		Loads:    sn.Base.Loads,
		Cells:    make(map[string]*liberty.CellTiming, len(draws)),
	}
	for _, d := range draws {
		ct, ok := sn.Base.Cells[d.Cell]
		if !ok {
			return nil, fmt.Errorf("char: sample library: no cell %q for instance %q", d.Cell, d.Inst)
		}
		vname := VariantCell(d.Cell, d.Inst)
		cp := *ct
		cp.Name = vname
		if !d.Pb.IsZero() {
			sens := sn.arcs[d.Cell]
			scale := [numSensParams]float64{d.Pb.DVthP, d.Pb.DVthN, d.Pb.DMuP, d.Pb.DMuN}
			arcs := make([]liberty.Arc, len(ct.Arcs))
			for ai := range ct.Arcs {
				a := ct.Arcs[ai]
				for e := 0; e < 2; e++ {
					a.Delay[e] = applyDelta(ct.Arcs[ai].Delay[e], sens[ai].Delay, e, scale)
					a.OutSlew[e] = applyDelta(ct.Arcs[ai].OutSlew[e], sens[ai].OutSlew, e, scale)
				}
				arcs[ai] = a
			}
			cp.Arcs = arcs
		}
		lib.Cells[vname] = &cp
	}
	return lib, nil
}

// applyDelta builds base + sum_p scale[p]*sens[p] for one edge table.
// Delay and slew floors at zero guard against a large negative draw driving
// a tiny fast-corner table entry below the physical floor.
func applyDelta(base *liberty.Table, sens [numSensParams][2]*liberty.Table, e int, scale [numSensParams]float64) *liberty.Table {
	if base == nil {
		return nil
	}
	out := liberty.NewTable(base.Slews, base.Loads)
	for i, row := range base.Values {
		for j, v := range row {
			for p := 0; p < numSensParams; p++ {
				if s := sens[p][e]; s != nil {
					v += scale[p] * s.Values[i][j]
				}
			}
			if v < 0 {
				v = 0
			}
			out.Values[i][j] = v
		}
	}
	return out
}

// CharacterizeCellPerturbed re-simulates one cell with an additional
// per-instance perturbation through the full SPICE sweep — the exact
// validation path of the Monte Carlo subsystem. It bypasses the disk
// cache, checkpoints and singleflight (perturbations are per-instance
// draws that would only pollute the cache); lim bounds the concurrently
// running transient simulations.
func (cfg Config) CharacterizeCellPerturbed(ctx context.Context, lim conc.Limiter, cell string, s aging.Scenario, pb device.Perturb) (*liberty.CellTiming, error) {
	c, ok := cells.ByName(cell)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoCell, cell)
	}
	pcfg := cfg
	pcfg.Perturb = cfg.Perturb.Add(pb)
	ct, err := pcfg.characterizeCell(ctx, lim, c, s)
	if err != nil {
		return nil, fmt.Errorf("char: exact cell %s: %w", cell, err)
	}
	return ct, nil
}
