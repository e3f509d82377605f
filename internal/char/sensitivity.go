package char

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"ageguard/internal/aging"
	"ageguard/internal/device"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
)

// This file implements the sensitivity-based re-characterization path of
// the process-variation Monte Carlo subsystem. Re-simulating every cell
// for every sampled device perturbation would cost a full characterization
// per sample; instead we characterize the library a handful of times —
// once nominal plus once per variation parameter at a small step — and
// take first-order per-arc sensitivities
//
//	S_p[i][j] = (D_{step p}[i][j] - D_nominal[i][j]) / step_p
//
// of every arc's delay and output-slew tables. A sampled instance with
// parameter draws (dVthP, dVthN, dMuP, dMuN) then times with the table
//
//	D[i][j] = max(0, D_nominal[i][j] + sum_p draw_p * S_p[i][j])
//
// The sensitivities have one layout, built here once per scenario: each
// nominal table interleaved with its S_p (liberty.ShiftTable, one
// liberty.ArcShift per arc). The built tables go to disk as they are, in
// the scenario's sensitivity file (sensfile.go), which later fills read
// instead of the four perturbed libraries. Because NLDM interpolation is
// linear in the table values, a lookup on a sample's table reads only
// four shifted grid points, so the Monte Carlo loop
// (core.MCGuardbandNetlist) never builds it: sta.BatchTimer.BindDeltas
// shares these tables with every instance of a cell, and
// sta.DeltaBinding times each sample by shifting just the grid points a
// lookup reads (liberty.ShiftTable.At).
// SampleLibrary materializes the same tables (liberty.ShiftTable.Shifted)
// as a per-sample instance-variant library, the reference the tests and
// the benchmark's replay compare that loop against. The exact reference
// (a helper of core's tests) re-simulates each instance's cell with its
// drawn perturbation through the same SPICE path (Config.Perturb), so the
// difference between the two is purely the first-order truncation error,
// which core's TestMCGuardbandSensitivityMatchesExact bounds.

// Finite-difference steps for the sensitivity characterizations. The Vth
// step is chosen near the per-instance sigma so the secant slope averages
// the curvature over the region actually sampled; the mobility step is
// negative because both aging and slow-corner variation reduce mobility.
const (
	SensStepVth = 0.010 // [V]
	SensStepMu  = -0.05 // relative
)

// Variation parameter indices within liberty.DeltaWeights.
const (
	sensVthP = iota
	sensVthN
	sensMuP
	sensMuN
	numSensParams
)

// sensSteps are the single-axis perturbations of the sensitivity
// characterizations, and sensStepSize their sizes, per parameter.
var (
	sensSteps = [numSensParams]device.Perturb{
		sensVthP: {DVthP: SensStepVth},
		sensVthN: {DVthN: SensStepVth},
		sensMuP:  {DMuP: SensStepMu},
		sensMuN:  {DMuN: SensStepMu},
	}
	sensStepSize = [numSensParams]float64{SensStepVth, SensStepVth, SensStepMu, SensStepMu}
)

// Sensitivity is a characterized library together with first-order
// per-arc sensitivities to the four variation parameters. Build with
// Config.Sensitivities or Config.SensitivitiesAround; time samples from
// Base and Shifts (sta.BatchTimer.BindDeltas), or materialize a
// sample's instance library with SampleLibrary. Immutable after
// construction and safe for concurrent use.
type Sensitivity struct {
	// Base is the nominal library the sensitivities are taken around.
	Base *liberty.Library

	// cell name -> per-arc tables interleaved with their sensitivities;
	// an edge without base tables holds the zero ShiftTable.
	arcs map[string][]liberty.ArcShift
}

// Shifts returns the per-cell, per-arc interleaved tables, aligned with
// Base's arcs. The map and its tables are shared: treat them as
// read-only.
func (sn *Sensitivity) Shifts() map[string][]liberty.ArcShift { return sn.arcs }

// Weights returns a perturbation's draws as the weights of the
// sensitivities.
func Weights(pb device.Perturb) liberty.DeltaWeights {
	return liberty.DeltaWeights{sensVthP: pb.DVthP, sensVthN: pb.DVthN, sensMuP: pb.DMuP, sensMuN: pb.DMuN}
}

// Sensitivities characterizes the nominal library of s and builds the
// sensitivities around it (SensitivitiesAround).
func (cfg Config) Sensitivities(ctx context.Context, s aging.Scenario) (*Sensitivity, error) {
	base, err := cfg.Characterize(ctx, s)
	if err != nil {
		return nil, fmt.Errorf("char: sensitivity base: %w", err)
	}
	return cfg.SensitivitiesAround(ctx, s, base)
}

// SensitivitiesAround builds the sensitivities of s around base: base's
// tables interleaved with their finite-difference sensitivities to the
// four variation parameters. base must be this configuration's nominal
// library for s: a caller that holds it, such as ageguardd's library
// cache, saves loading it again. A base of another scenario or on other
// axes is rejected, since its tables would not pair grid point for grid
// point with the perturbed ones.
//
// The tables come from the scenario's sensitivity file when it holds
// base's tables (char.sens.hits). Otherwise (char.sens.misses; a file
// that exists but is rejected also counts char.sens.corrupt) they are
// built from the four single-axis perturbed libraries (perturbed), and
// the file is written, unless a perturbed library has salvaged points,
// so that Strict runs can trust every file. A failed write costs only
// the next fill's time and is counted under char.sens.store.errors.
func (cfg Config) SensitivitiesAround(ctx context.Context, s aging.Scenario, base *liberty.Library) (*Sensitivity, error) {
	ctx, sp := obs.StartSpan(ctx, "char.sensitivities")
	defer sp.End()
	sp.SetAttr("scenario", s.String())

	if base == nil {
		return nil, fmt.Errorf("char: sensitivity base for %s is nil", s)
	}
	if base.Scenario != s || !slices.Equal(base.Slews, cfg.Slews) || !slices.Equal(base.Loads, cfg.Loads) {
		return nil, fmt.Errorf("char: sensitivity base %s (%s) on a %dx%d grid is not %s on this config's %dx%d grid",
			base.Name, base.Scenario.ExactKey(), len(base.Slews), len(base.Loads), s.ExactKey(), len(cfg.Slews), len(cfg.Loads))
	}
	reg := obs.From(ctx)
	arcs, err := cfg.loadSens(s, base)
	switch {
	case err == nil:
		reg.Counter("char.sens.hits").Inc()
		sp.SetAttr("sens", "hit")
		return &Sensitivity{Base: base, arcs: arcs}, nil
	case errors.Is(err, ErrCacheCorrupt):
		reg.Counter("char.sens.corrupt").Inc()
		sp.SetAttr("sens", "corrupt")
	default:
		sp.SetAttr("sens", "miss")
	}
	reg.Counter("char.sens.misses").Inc()
	sn, salvaged, err := cfg.perturbed(ctx, s, base)
	if err != nil {
		return nil, err
	}
	if !salvaged {
		if err := cfg.storeSens(s, sn); err != nil {
			reg.Counter("char.sens.store.errors").Inc()
		}
	}
	return sn, nil
}

// perturbed characterizes one single-axis perturbed library per
// variation parameter (four characterizations, all cache-eligible since
// Config.Perturb enters the cache hash) and interleaves each of base's
// tables with its finite-difference sensitivities; salvaged reports
// whether a perturbed library has salvaged points. Every interleaved
// table has a sensitivity to each parameter, so a perturbed library
// whose arcs have other tables than the base's is rejected. The
// perturbed runs execute sequentially — each is internally parallel
// under cfg.Parallelism, so stacking them would only oversubscribe the
// simulation limiter.
func (cfg Config) perturbed(ctx context.Context, s aging.Scenario, base *liberty.Library) (sn *Sensitivity, salvaged bool, err error) {
	var libs [numSensParams]*liberty.Library
	for p, step := range sensSteps {
		pcfg := cfg
		pcfg.Perturb = cfg.Perturb.Add(step)
		lib, err := pcfg.Characterize(ctx, s)
		if err != nil {
			return nil, false, fmt.Errorf("char: sensitivity step %v: %w", step, err)
		}
		libs[p] = lib
		salvaged = salvaged || lib.SalvagedPoints() > 0
	}

	sn = &Sensitivity{Base: base, arcs: make(map[string][]liberty.ArcShift, len(base.Cells))}
	for name, ct := range base.Cells {
		var pcts [numSensParams]*liberty.CellTiming
		for p, lib := range libs {
			pct, ok := lib.Cells[name]
			if !ok || len(pct.Arcs) != len(ct.Arcs) {
				return nil, false, fmt.Errorf("char: sensitivity library %d misaligned for cell %s", p, name)
			}
			pcts[p] = pct
		}
		shifts := make([]liberty.ArcShift, len(ct.Arcs))
		for ai := range ct.Arcs {
			b := &ct.Arcs[ai]
			var delay, slew [2][numSensParams]*liberty.Table
			for p, pct := range pcts {
				q := &pct.Arcs[ai]
				if b.Pin != q.Pin || b.Sense != q.Sense {
					return nil, false, fmt.Errorf("char: sensitivity arc %d misaligned for cell %s", ai, name)
				}
				for e := 0; e < 2; e++ {
					if (q.Delay[e] == nil) != (b.Delay[e] == nil) || (q.OutSlew[e] == nil) != (b.OutSlew[e] == nil) {
						return nil, false, fmt.Errorf("char: sensitivity library %d: arc %d of cell %s has other tables than the base's", p, ai, name)
					}
					delay[e][p], slew[e][p] = q.Delay[e], q.OutSlew[e]
				}
			}
			for e := 0; e < 2; e++ {
				shifts[ai].Delay[e] = b.Delay[e].Interleave(delay[e], sensStepSize)
				shifts[ai].OutSlew[e] = b.OutSlew[e].Interleave(slew[e], sensStepSize)
			}
		}
		sn.arcs[name] = shifts
	}
	return sn, salvaged, nil
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
// the nominal tables shifted by the instance's weighted sensitivities
// (liberty.ShiftTable.Shifted). Instances with a zero draw share the nominal
// tables outright. Pin capacitances are geometry-only and therefore shared
// unchanged, which keeps netlist loads — and hence the compiled STA
// topology — identical across samples. The Monte Carlo loop does not call
// it (see the file comment); it is the reference that loop's tests and
// the benchmark's replay compare against.
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
			sh := sn.arcs[d.Cell]
			w := Weights(d.Pb)
			arcs := make([]liberty.Arc, len(ct.Arcs))
			for ai := range ct.Arcs {
				a := ct.Arcs[ai]
				for e := liberty.Rise; e <= liberty.Fall; e++ {
					a.Delay[e] = sh[ai].Delay[e].Shifted(&w)
					a.OutSlew[e] = sh[ai].OutSlew[e].Shifted(&w)
				}
				arcs[ai] = a
			}
			cp.Arcs = arcs
		}
		lib.Cells[vname] = &cp
	}
	return lib, nil
}
