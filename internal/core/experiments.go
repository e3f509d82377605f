package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"ageguard/internal/aging"
	"ageguard/internal/conc"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
	"ageguard/internal/sta"
	"ageguard/internal/synth"
	"ageguard/internal/units"
)

// ----------------------------------------------------------------------------
// Fig. 1: impact of aging on a gate's delay across operating conditions.

// Surface is a delay-change surface over the OPC grid for one cell arc.
type Surface struct {
	Cell     string
	Edge     liberty.Edge
	Slews    []float64   // input slew axis [s]
	Loads    []float64   // output load axis [F]
	DeltaPct [][]float64 // [slew][load] delay change in percent
}

// AgingSurface computes the paper's Fig. 1 surface: the percentage delay
// change of the cell's first timing arc, per OPC, between the fresh
// library and worst-case aging at the flow lifetime.
func (f Flow) AgingSurface(ctx context.Context, cell string, edge liberty.Edge) (*Surface, error) {
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return nil, err
	}
	aged, err := f.WorstLibrary(ctx)
	if err != nil {
		return nil, err
	}
	fa := fresh.MustCell(cell).Arcs[0]
	aa := aged.MustCell(cell).Arcs[0]
	s := &Surface{Cell: cell, Edge: edge, Slews: fresh.Slews, Loads: fresh.Loads}
	for i := range fresh.Slews {
		row := make([]float64, len(fresh.Loads))
		for j := range fresh.Loads {
			fd := fa.Delay[edge].Values[i][j]
			ad := aa.Delay[edge].Values[i][j]
			row[j] = deltaPct(fd, ad)
		}
		s.DeltaPct = append(s.DeltaPct, row)
	}
	return s, nil
}

// deltaPct returns the percent change from fresh to aged delay, guarding
// against near-zero fresh delays (possible at extreme slews).
func deltaPct(fresh, aged float64) float64 {
	den := math.Abs(fresh)
	if den < 1*units.Ps {
		den = 1 * units.Ps
	}
	return (aged - fresh) / den * 100
}

// Format renders the surface as an aligned table (slew rows x load cols).
func (s *Surface) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (output %s) delay change %% under worst-case aging\n", s.Cell, s.Edge)
	fmt.Fprintf(&b, "%12s", "slew\\load")
	for _, l := range s.Loads {
		fmt.Fprintf(&b, "%9s", units.FFString(l))
	}
	b.WriteByte('\n')
	for i, sl := range s.Slews {
		fmt.Fprintf(&b, "%12s", units.PsString(sl))
		for j := range s.Loads {
			fmt.Fprintf(&b, "%+9.1f", s.DeltaPct[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ----------------------------------------------------------------------------
// Fig. 2: distribution of delay changes, single OPC vs all OPCs.

// Distribution summarizes per-cell delay changes under worst-case aging.
type Distribution struct {
	Single []float64 // one value per (cell, arc, edge) at the single OPC
	Multi  []float64 // one value per (cell, arc, edge, OPC)
}

// ImprovedFraction returns the fraction of observations that improved
// (negative delta) — the paper reports ~16% under multiple OPCs.
func improvedFraction(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	n := 0
	for _, x := range v {
		if x < 0 {
			n++
		}
	}
	return float64(n) / float64(len(v))
}

// ImprovedFractionMulti is the improved share across all OPCs.
func (d *Distribution) ImprovedFractionMulti() float64 { return improvedFraction(d.Multi) }

// ImprovedFractionSingle is the improved share at the single OPC.
func (d *Distribution) ImprovedFractionSingle() float64 { return improvedFraction(d.Single) }

// Range returns the min and max of the multi-OPC deltas.
func (d *Distribution) Range() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range d.Multi {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// Histogram bins values into n equal bins over [lo, hi].
func Histogram(v []float64, lo, hi float64, n int) []int {
	bins := make([]int, n)
	w := (hi - lo) / float64(n)
	for _, x := range v {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		bins[i]++
	}
	return bins
}

// DelayChangeDistribution computes the paper's Fig. 2 data over the whole
// combinational cell set. The "single OPC" column follows [12,13]: the
// slowest input slew with the smallest output capacitance.
func (f Flow) DelayChangeDistribution(ctx context.Context) (*Distribution, error) {
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return nil, err
	}
	aged, err := f.WorstLibrary(ctx)
	if err != nil {
		return nil, err
	}
	d := &Distribution{}
	// Single-OPC reference: the nominal corner (fastest slew, smallest
	// load). This reproduces the paper's Fig. 2 single-OPC histogram, in
	// which all delays degrade by at most ~15%.
	si := 0
	for _, name := range fresh.CellNames() {
		fc := fresh.Cells[name]
		ac, ok := aged.Cells[name]
		if !ok || fc.Seq {
			continue
		}
		for ai := range fc.Arcs {
			for e := liberty.Rise; e <= liberty.Fall; e++ {
				ft := fc.Arcs[ai].Delay[e]
				at := ac.Arcs[ai].Delay[e]
				if ft == nil || at == nil {
					continue
				}
				d.Single = append(d.Single, deltaPct(ft.Values[si][0], at.Values[si][0]))
				for i := range fresh.Slews {
					for j := range fresh.Loads {
						// Points whose fresh delay is essentially zero
						// (slow-ramp crossover artifacts) have no meaningful
						// percentage and are excluded, as in any percentage
						// histogram over measured delays.
						if math.Abs(ft.Values[i][j]) < 2*units.Ps {
							continue
						}
						d.Multi = append(d.Multi, deltaPct(ft.Values[i][j], at.Values[i][j]))
					}
				}
			}
		}
	}
	return d, nil
}

// ----------------------------------------------------------------------------
// Fig. 5 baselines.

// SingleOPCLibrary models the state-of-the-art flows [12,13] that measure
// aging at one operating condition only: each arc's aged/fresh delay ratio
// at a single pessimistic OPC (a slow slew with the smallest output
// capacitance, following the paper's "slowest signal slew along with the
// smallest output capacitance") is applied uniformly across the whole
// table, so the strong slew/load dependence of aging (Fig. 1) is lost and
// gates that would improve or degrade mildly are all penalized alike.
func SingleOPCLibrary(fresh, aged *liberty.Library) *liberty.Library {
	out := &liberty.Library{
		Name:     fresh.Name + "_singleopc",
		Scenario: aged.Scenario,
		Vdd:      fresh.Vdd,
		Slews:    fresh.Slews,
		Loads:    fresh.Loads,
		Cells:    map[string]*liberty.CellTiming{},
	}
	si := 2 * len(fresh.Slews) / 3
	for name, fc := range fresh.Cells {
		ac, ok := aged.Cells[name]
		if !ok {
			continue
		}
		cp := *fc
		cp.Arcs = make([]liberty.Arc, len(fc.Arcs))
		for ai := range fc.Arcs {
			arc := fc.Arcs[ai]
			na := arc
			for e := liberty.Rise; e <= liberty.Fall; e++ {
				if arc.Delay[e] == nil {
					continue
				}
				fd := arc.Delay[e].Values[si][0]
				ad := ac.Arcs[ai].Delay[e].Values[si][0]
				factor := scaleFactor(fd, ad)
				na.Delay[e] = arc.Delay[e].Scale(factor)
				na.OutSlew[e] = arc.OutSlew[e].Scale(factor)
			}
			cp.Arcs[ai] = na
		}
		out.Cells[name] = &cp
	}
	return out
}

// scaleFactor converts a (fresh, aged) delay pair at the reference OPC
// into a multiplicative aging factor, guarded against tiny or negative
// reference delays and clamped to a sane range.
func scaleFactor(fresh, aged float64) float64 {
	den := fresh
	if den < 2*units.Ps {
		den = 2 * units.Ps
	}
	return units.Clamp(1+(aged-fresh)/den, 0.2, 10)
}

// Fig5Row is one circuit's guardband comparison (Fig. 5a/b/c).
type Fig5Row struct {
	Circuit string
	Full    float64 // guardband from the full degradation-aware flow [s]
	Base    float64 // guardband from the state-of-the-art baseline [s]
	// DeltaPct = (Base-Full)/Full*100: negative = underestimation.
	DeltaPct float64
}

// Fig5Report is the full comparison across the benchmark set.
type Fig5Report struct {
	Aspect string // "mu", "opc" or "cpswitch"
	Rows   []Fig5Row
	AvgPct float64
}

func summarize(aspect string, rows []Fig5Row) *Fig5Report {
	r := &Fig5Report{Aspect: aspect, Rows: rows}
	for i := range rows {
		rows[i].DeltaPct = (rows[i].Base - rows[i].Full) / rows[i].Full * 100
		r.AvgPct += rows[i].DeltaPct
	}
	r.AvgPct /= float64(len(rows))
	return r
}

// Fig5a quantifies neglecting the mobility degradation: guardbands from
// the Vth-only library versus the full (Vth + mu) library, over the given
// circuits (paper: -19% on average).
func (f Flow) Fig5a(ctx context.Context, circuits []string) (*Fig5Report, error) {
	vth, err := f.VthOnlyLibrary(ctx)
	if err != nil {
		return nil, err
	}
	return f.fig5(ctx, circuits, "mu", func(ctx context.Context, nl *netlist.Netlist, full Guardband) (float64, error) {
		fresh, err := f.FreshLibrary(ctx)
		if err != nil {
			return 0, err
		}
		fcp, err := f.CP(ctx, nl, fresh)
		if err != nil {
			return 0, err
		}
		vcp, err := f.CP(ctx, nl, vth)
		if err != nil {
			return 0, err
		}
		return vcp - fcp, nil
	})
}

// Fig5b quantifies using a single OPC: guardbands from the single-OPC
// scaled library versus the full library (paper: +214% on average).
func (f Flow) Fig5b(ctx context.Context, circuits []string) (*Fig5Report, error) {
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return nil, err
	}
	aged, err := f.WorstLibrary(ctx)
	if err != nil {
		return nil, err
	}
	single := SingleOPCLibrary(fresh, aged)
	return f.fig5(ctx, circuits, "opc", func(ctx context.Context, nl *netlist.Netlist, full Guardband) (float64, error) {
		scp, err := f.CP(ctx, nl, single)
		if err != nil {
			return 0, err
		}
		return scp - full.FreshCP, nil
	})
}

// Fig5c quantifies neglecting critical-path switching: the aged delay of
// the *initially* critical path versus the true aged critical path
// (paper: ~-6% on average).
func (f Flow) Fig5c(ctx context.Context, circuits []string) (*Fig5Report, error) {
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return nil, err
	}
	aged, err := f.WorstLibrary(ctx)
	if err != nil {
		return nil, err
	}
	return f.fig5(ctx, circuits, "cpswitch", func(ctx context.Context, nl *netlist.Netlist, full Guardband) (float64, error) {
		res, err := sta.Analyze(ctx, nl, fresh, f.STA)
		if err != nil {
			return 0, err
		}
		agedInitPath, err := sta.PathDelayUnder(ctx, nl, res.Worst, aged, f.STA)
		if err != nil {
			return 0, err
		}
		return agedInitPath - res.CP, nil
	})
}

// fig5 runs the per-circuit comparison concurrently: each circuit's
// synthesis + STA legs are independent (libraries are immutable and the
// characterizer deduplicates concurrent requests), and every leg writes
// only its own pre-indexed row, keeping report order deterministic. Each
// circuit leg is traced as a child of the "core.fig5" span.
func (f Flow) fig5(ctx context.Context, circuits []string, aspect string,
	baseline func(ctx context.Context, nl *netlist.Netlist, full Guardband) (float64, error)) (*Fig5Report, error) {

	ctx, sp := obs.StartSpan(ctx, "core.fig5")
	defer sp.End()
	sp.SetAttr("aspect", aspect)
	sp.SetAttr("circuits", len(circuits))
	rows := make([]Fig5Row, len(circuits))
	err := conc.ParFor(ctx, conc.Workers(0), len(circuits), func(i int) error {
		c := circuits[i]
		nl, err := f.SynthesizeTraditional(ctx, c)
		if err != nil {
			return err
		}
		full, err := f.StaticGuardband(ctx, c, nl, aging.WorstCase(f.Lifetime))
		if err != nil {
			return err
		}
		base, err := baseline(ctx, nl, full)
		if err != nil {
			return err
		}
		rows[i] = Fig5Row{Circuit: c, Full: full.Guardband, Base: base}
		return nil
	})
	if err != nil {
		err = conc.WrapCanceled(err)
		sp.EndErr(err)
		return nil, err
	}
	return summarize(aspect, rows), nil
}

// Format renders the report as the paper's per-circuit bar data.
func (r *Fig5Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig5(%s): guardband comparison\n", r.Aspect)
	fmt.Fprintf(&b, "%-10s %12s %12s %9s\n", "circuit", "full[ps]", "baseline[ps]", "delta%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %12.1f %12.1f %+9.1f\n",
			row.Circuit, row.Full/units.Ps, row.Base/units.Ps, row.DeltaPct)
	}
	fmt.Fprintf(&b, "%-10s %25s %+9.1f\n", "AVERAGE", "", r.AvgPct)
	return b.String()
}

// ----------------------------------------------------------------------------
// Fig. 6a/b: guardband containment by aging-aware synthesis.

// ContainmentRow compares the traditional and aging-aware designs of one
// circuit (paper Fig. 6a/b).
type ContainmentRow struct {
	Circuit      string
	TradFreshCP  float64 // baseline: traditional design, fresh library
	TradAgedCP   float64
	AwareAgedCP  float64
	RequiredGB   float64 // TradAgedCP - TradFreshCP
	ContainedGB  float64 // AwareAgedCP - TradFreshCP
	ReductionPct float64 // guardband shrink
	FreqGainPct  float64 // aged-frequency gain of the aware design
	TradArea     float64 // um^2
	AwareArea    float64
	AreaOvhPct   float64
}

// Containment runs the Fig. 6a/b comparison for one circuit,
// traced under a "core.containment" span.
func (f Flow) Containment(ctx context.Context, circuit string) (ContainmentRow, error) {
	ctx, sp := obs.StartSpan(ctx, "core.containment")
	defer sp.End()
	sp.SetAttr("circuit", circuit)
	var row ContainmentRow
	row.Circuit = circuit
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return row, err
	}
	aged, err := f.WorstLibrary(ctx)
	if err != nil {
		return row, err
	}
	trad, err := f.Synthesized(ctx, circuit, fresh)
	if err != nil {
		return row, err
	}
	aware, err := f.Synthesized(ctx, circuit, aged)
	if err != nil {
		return row, err
	}
	if row.TradFreshCP, err = f.CP(ctx, trad, fresh); err != nil {
		return row, err
	}
	if row.TradAgedCP, err = f.CP(ctx, trad, aged); err != nil {
		return row, err
	}
	if row.AwareAgedCP, err = f.CP(ctx, aware, aged); err != nil {
		return row, err
	}
	row.RequiredGB = row.TradAgedCP - row.TradFreshCP
	row.ContainedGB = row.AwareAgedCP - row.TradFreshCP
	row.ReductionPct = (1 - row.ContainedGB/row.RequiredGB) * 100
	row.FreqGainPct = (row.TradAgedCP/row.AwareAgedCP - 1) * 100
	if row.TradArea, err = Area(trad); err != nil {
		return row, err
	}
	if row.AwareArea, err = Area(aware); err != nil {
		return row, err
	}
	row.AreaOvhPct = (row.AwareArea/row.TradArea - 1) * 100
	return row, nil
}

// ContainmentReport aggregates Fig. 6a/b rows.
type ContainmentReport struct {
	Rows            []ContainmentRow
	AvgReductionPct float64
	MaxReductionPct float64
	AvgFreqGainPct  float64
	AvgAreaOvhPct   float64
}

// ContainmentAll runs the comparison over the circuit list. Circuits are
// analyzed concurrently (one worker per CPU) into pre-indexed
// rows; the aggregation stays serial and order-stable. Canceling ctx
// stops circuit dispatch and all in-flight synthesis/characterization
// work; the error then matches conc.ErrCanceled.
func (f Flow) ContainmentAll(ctx context.Context, circuits []string) (*ContainmentReport, error) {
	ctx, sp := obs.StartSpan(ctx, "core.containment.all")
	defer sp.End()
	sp.SetAttr("circuits", len(circuits))
	rows := make([]ContainmentRow, len(circuits))
	err := conc.ParFor(ctx, conc.Workers(0), len(circuits), func(i int) error {
		row, err := f.Containment(ctx, circuits[i])
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		err = conc.WrapCanceled(err)
		sp.EndErr(err)
		return nil, err
	}
	rep := &ContainmentReport{Rows: rows}
	for _, row := range rows {
		rep.AvgReductionPct += row.ReductionPct
		rep.MaxReductionPct = math.Max(rep.MaxReductionPct, row.ReductionPct)
		rep.AvgFreqGainPct += row.FreqGainPct
		rep.AvgAreaOvhPct += row.AreaOvhPct
	}
	n := float64(len(rep.Rows))
	rep.AvgReductionPct /= n
	rep.AvgFreqGainPct /= n
	rep.AvgAreaOvhPct /= n
	return rep, nil
}

// Format renders the containment report (Fig. 6a/b rows).
func (r *ContainmentReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig6a/b: guardband containment by aging-aware synthesis\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %9s %8s %10s %10s %8s\n",
		"circuit", "reqGB[ps]", "contGB[ps]", "reduc%", "freq+%", "areaT", "areaA", "area+%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10.1f %10.1f %9.1f %8.2f %10.0f %10.0f %8.2f\n",
			row.Circuit, row.RequiredGB/units.Ps, row.ContainedGB/units.Ps,
			row.ReductionPct, row.FreqGainPct, row.TradArea, row.AwareArea, row.AreaOvhPct)
	}
	fmt.Fprintf(&b, "AVERAGE reduction %.1f%% (max %.1f%%), freq gain %.2f%%, area overhead %.2f%%\n",
		r.AvgReductionPct, r.MaxReductionPct, r.AvgFreqGainPct, r.AvgAreaOvhPct)
	return b.String()
}

// BenchmarkCircuits returns the paper's evaluation circuits in figure
// order.
func BenchmarkCircuits() []string {
	return []string{"DSP", "FFT", "RISC-6P", "RISC-5P", "VLIW", "DCT", "IDCT"}
}

// SortedKeys is a small helper for deterministic map iteration in reports.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ----------------------------------------------------------------------------
// Related-work baseline [14]: iterative tightening.

// TighteningRow compares guardband containment achieved by the
// iterative-tightening baseline of the paper's related work ([14]:
// identify the paths that become critical after aging, then let ordinary
// — degradation-unaware — synthesis tighten them) against this work's
// degradation-aware synthesis.
type TighteningRow struct {
	Circuit       string
	RequiredGB    float64 // traditional design
	TightenedGB   float64 // baseline [14]
	ContainedGB   float64 // this work (degradation-aware library)
	BaselinePct   float64 // reduction achieved by [14]
	AgingAwarePct float64 // reduction achieved by this work
}

// IterativeTightening runs the [14]-style baseline on one circuit: aged
// timing identifies critical paths, fresh-library sizing re-optimizes
// them. Its structural weakness — the re-optimization cannot see which
// replacement cells age well — is exactly the paper's criticism.
func (f Flow) IterativeTightening(ctx context.Context, circuit string) (TighteningRow, error) {
	ctx, sp := obs.StartSpan(ctx, "core.tightening")
	defer sp.End()
	sp.SetAttr("circuit", circuit)
	var row TighteningRow
	row.Circuit = circuit
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return row, err
	}
	aged, err := f.WorstLibrary(ctx)
	if err != nil {
		return row, err
	}
	trad, err := f.Synthesized(ctx, circuit, fresh)
	if err != nil {
		return row, err
	}
	freshCP, err := f.CP(ctx, trad, fresh)
	if err != nil {
		return row, err
	}
	tradAged, err := f.CP(ctx, trad, aged)
	if err != nil {
		return row, err
	}
	tightened, err := synth.SizeGatesDual(ctx, trad, fresh, aged, f.synthConfig())
	if err != nil {
		return row, err
	}
	tightAged, err := f.CP(ctx, tightened, aged)
	if err != nil {
		return row, err
	}
	aware, err := f.Containment(ctx, circuit)
	if err != nil {
		return row, err
	}
	row.RequiredGB = tradAged - freshCP
	row.TightenedGB = tightAged - freshCP
	row.ContainedGB = aware.ContainedGB
	row.BaselinePct = (1 - row.TightenedGB/row.RequiredGB) * 100
	row.AgingAwarePct = aware.ReductionPct
	return row, nil
}

// ----------------------------------------------------------------------------
// Duty-cycle guardband grid: one netlist re-timed under every grid library.

// GuardbandGrid is the outcome of re-timing one synthesized netlist under
// the full duty-cycle library grid (the paper's Fig. 5 estimation sweep):
// the aged critical path as a function of (lambdaP, lambdaN).
type GuardbandGrid struct {
	Circuit string
	FreshCP float64     // critical path under the fresh library [s]
	Lambdas []float64   // duty-cycle axis, aging.LambdaGrid()
	AgedCP  [][]float64 // [iP][iN] critical path under WithLambda(lp, ln) [s]
}

// Guardband returns AgedCP[iP][iN] - FreshCP.
func (g *GuardbandGrid) Guardband(iP, iN int) float64 {
	return g.AgedCP[iP][iN] - g.FreshCP
}

// Worst returns the grid point with the largest guardband.
func (g *GuardbandGrid) Worst() (lp, ln, gb float64) {
	for i, row := range g.AgedCP {
		for j, cp := range row {
			if v := cp - g.FreshCP; v > gb {
				lp, ln, gb = g.Lambdas[i], g.Lambdas[j], v
			}
		}
	}
	return lp, ln, gb
}

// Format renders the guardband grid in picoseconds, lambdaP down,
// lambdaN across.
func (g *GuardbandGrid) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: guardband [ps] over duty cycles (fresh CP %s)\n",
		g.Circuit, units.PsString(g.FreshCP))
	fmt.Fprintf(&b, "%5s", "lP\\lN")
	for _, ln := range g.Lambdas {
		fmt.Fprintf(&b, "%7.1f", ln)
	}
	b.WriteByte('\n')
	for i, row := range g.AgedCP {
		fmt.Fprintf(&b, "%5.1f", g.Lambdas[i])
		for _, cp := range row {
			fmt.Fprintf(&b, "%7.1f", (cp-g.FreshCP)/units.Ps)
		}
		b.WriteByte('\n')
	}
	lp, ln, gb := g.Worst()
	fmt.Fprintf(&b, "worst %s at lambdaP=%.1f lambdaN=%.1f\n", units.PsString(gb), lp, ln)
	return b.String()
}

// GuardbandGridFor synthesizes the circuit traditionally, then times
// the one netlist under the fresh library and all 121 duty-cycle
// libraries of the paper's grid with one sta.BatchTimer: the netlist is
// compiled once and every library only rebinds timing views, fanning out
// over one worker per CPU. Canceling ctx stops both the characterization
// sweep and the timing mid-flight with an error matching
// conc.ErrCanceled.
func (f Flow) GuardbandGridFor(ctx context.Context, circuit string) (*GuardbandGrid, error) {
	ctx, sp := obs.StartSpan(ctx, "core.guardband.grid")
	defer sp.End()
	sp.SetAttr("circuit", circuit)
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return nil, err
	}
	nl, err := f.Synthesized(ctx, circuit, fresh)
	if err != nil {
		return nil, err
	}
	bt, err := sta.NewBatchTimer(ctx, nl, fresh, f.STA)
	if err != nil {
		return nil, err
	}
	fcp, err := bt.CP(ctx, fresh)
	if err != nil {
		return nil, err
	}
	scens := aging.GridScenarios(f.Lifetime)
	libs, err := f.Char.CharacterizeAll(ctx, scens)
	if err != nil {
		return nil, err
	}
	cps := make([]float64, len(libs))
	err = conc.ParFor(ctx, conc.Workers(0), len(libs), func(i int) error {
		cp, err := bt.CP(ctx, libs[i])
		cps[i] = cp
		return err
	})
	if err != nil {
		return nil, conc.WrapCanceled(err)
	}
	axis := aging.LambdaGrid()
	g := &GuardbandGrid{Circuit: circuit, FreshCP: fcp, Lambdas: axis}
	g.AgedCP = make([][]float64, len(axis))
	for i := range axis {
		g.AgedCP[i] = make([]float64, len(axis))
		for j := range axis {
			g.AgedCP[i][j] = cps[i*len(axis)+j]
		}
	}
	return g, nil
}
