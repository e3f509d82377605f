package core

import (
	"context"
	"math"
	"sort"
	"time"

	"ageguard/internal/aging"
	"ageguard/internal/char"
	"ageguard/internal/conc"
	"ageguard/internal/device"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
	"ageguard/internal/sta"
)

// This file implements process-variation Monte Carlo guardband estimation:
// instead of the single-corner guardband AgedCP - FreshCP, it samples N
// per-instance device perturbations (package device's counter-based
// streams), re-times fresh and aged critical paths per sample, and
// reduces the per-sample guardbands to distribution statistics. A sample
// is timed straight from the first-order sensitivities: char.Sensitivity
// holds each cell table interleaved with them (liberty.ShiftTable), and
// sta.BatchTimer.BindDeltas shares those tables with every instance of
// the cell. Each instance's lookups shift only the grid points they read,
// so no per-sample library is built, and a sample allocates nothing,
// reusing its binding's propagation states and a weights buffer. Nothing
// outlives the query.
// Identical draws are applied to the fresh and the aged timing of each
// sample, so the per-sample guardband isolates aging from the process
// spread itself.

// Default Monte Carlo knobs.
const (
	DefaultMCSamples = 256
	DefaultMCBins    = 32
)

// MCConfig controls one Monte Carlo guardband estimation.
type MCConfig struct {
	// Samples is the number of Monte Carlo samples (0 = DefaultMCSamples).
	Samples int

	// Seed selects the deterministic sample stream; equal seeds reproduce
	// bit-identical results at any parallelism.
	Seed uint64

	// Variation sets the per-instance sigma magnitudes. The zero value
	// draws nothing (every sample reproduces the nominal guardband);
	// callers wanting typical process spread use device.DefaultVariation.
	Variation device.Variation

	// Bins is the guardband histogram bin count (0 = DefaultMCBins).
	Bins int

	// Parallelism bounds concurrently timed samples (conc.Workers
	// semantics).
	Parallelism int
}

func (mc MCConfig) samples() int {
	if mc.Samples > 0 {
		return mc.Samples
	}
	return DefaultMCSamples
}

func (mc MCConfig) bins() int {
	if mc.Bins > 0 {
		return mc.Bins
	}
	return DefaultMCBins
}

func (mc MCConfig) workers() int { return conc.Workers(mc.Parallelism) }

// MCHistogram is a fixed-width histogram of the per-sample guardbands
// over [LoS, HiS] (the observed min and max).
type MCHistogram struct {
	LoS    float64 `json:"lo_s"`
	HiS    float64 `json:"hi_s"`
	Counts []int   `json:"counts"`
}

// MCResult is the outcome of one Monte Carlo guardband estimation: the
// nominal (zero-variation) point values, the per-sample guardbands in
// sample order, and their distribution statistics. Quantiles interpolate
// linearly between order statistics (see quantile).
type MCResult struct {
	Circuit   string
	Scenario  aging.Scenario
	Samples   int
	Seed      uint64
	Variation device.Variation

	FreshCPS float64 // nominal fresh critical path [s]
	AgedCPS  float64 // nominal aged critical path [s]

	Guardbands []float64 // per-sample guardband [s], index = sample

	MeanS, StdS       float64
	P50S, P95S, P999S float64
	MinS, MaxS        float64
	Hist              MCHistogram
}

// MCGuardband synthesizes the benchmark the traditional way (matching
// StaticGuardband's baseline) and runs the Monte Carlo estimation on it.
func (f Flow) MCGuardband(ctx context.Context, circuit string, s aging.Scenario, mc MCConfig) (*MCResult, error) {
	nl, err := f.SynthesizeTraditional(ctx, circuit)
	if err != nil {
		return nil, err
	}
	return f.MCGuardbandNetlist(ctx, circuit, nl, s, mc)
}

// MCGuardbandNetlist compiles an already-synthesized netlist against the
// fresh library and runs MCGuardbandTimer on it with the fresh and aged
// libraries of the flow.
func (f Flow) MCGuardbandNetlist(ctx context.Context, circuit string, nl *netlist.Netlist, s aging.Scenario, mc MCConfig) (*MCResult, error) {
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return nil, err
	}
	aged, err := f.Library(ctx, s)
	if err != nil {
		return nil, err
	}
	bt, err := sta.NewBatchTimer(ctx, nl, fresh, f.STA)
	if err != nil {
		return nil, err
	}
	return f.MCGuardbandTimer(ctx, circuit, bt, s, fresh, aged, mc)
}

// MCGuardbandTimer runs the Monte Carlo guardband estimation on a
// compiled netlist, whose footprints must be the flow's libraries'.
// fresh and aged are the flow's libraries for the fresh scenario and
// for s (Flow.FreshLibrary and Flow.Library), which the caller already
// holds; the sensitivities are taken around them, so only the perturbed
// libraries are loaded. Results are bit-identical for equal (netlist,
// scenario, MCConfig) regardless of MCConfig.Parallelism.
func (f Flow) MCGuardbandTimer(ctx context.Context, circuit string, bt *sta.BatchTimer, s aging.Scenario, fresh, aged *liberty.Library, mc MCConfig) (*MCResult, error) {
	ctx, sp := obs.StartSpan(ctx, "core.guardband.mc")
	defer sp.End()
	sp.SetAttr("circuit", circuit)
	sp.SetAttr("scenario", s.String())
	n := mc.samples()
	sp.SetAttr("samples", n)
	reg := obs.From(ctx)
	t0 := time.Now()
	defer func() {
		reg.Counter("core.mc.runs").Inc()
		reg.Counter("core.mc.samples").Add(int64(n))
		reg.Histogram("core.mc.seconds").Since(t0)
	}()

	snFresh, err := f.Char.SensitivitiesAround(ctx, aging.Fresh(), fresh)
	if err != nil {
		return nil, err
	}
	snAged, err := f.Char.SensitivitiesAround(ctx, s, aged)
	if err != nil {
		return nil, err
	}

	// The one compiled netlist serves the nominal point and every
	// sample: pin capacitances are geometry-only, so loads — and the
	// compiled topology — are shared by both scenarios. The nominal point
	// equals StaticGuardband's (BatchTimer.CP is bit-identical to
	// Analyze).
	fcp, err := bt.CP(ctx, snFresh.Base)
	if err != nil {
		return nil, err
	}
	acp, err := bt.CP(ctx, snAged.Base)
	if err != nil {
		return nil, err
	}

	res := &MCResult{
		Circuit:   circuit,
		Scenario:  s,
		Samples:   n,
		Seed:      mc.Seed,
		Variation: mc.Variation,
		FreshCPS:  fcp,
		AgedCPS:   acp,
	}
	res.Guardbands = make([]float64, n)

	fb, err := bt.BindDeltas(snFresh.Base, snFresh.Shifts())
	if err != nil {
		return nil, err
	}
	ab, err := bt.BindDeltas(snAged.Base, snAged.Shifts())
	if err != nil {
		return nil, err
	}
	// Samples reuse weights buffers. A buffer is made only when none is
	// free, so there are at most as many as samples timed at once.
	insts := bt.Insts()
	bufs := make(chan []liberty.DeltaWeights, mc.workers())
	err = conc.ParFor(ctx, mc.workers(), n, func(i int) error {
		var w []liberty.DeltaWeights
		select {
		case w = <-bufs:
		default:
			w = make([]liberty.DeltaWeights, len(insts))
		}
		defer func() { bufs <- w }()
		for k, inst := range insts {
			w[k] = char.Weights(mc.Variation.Sample(mc.Seed, uint64(i), inst))
		}
		sf, err := fb.CP(ctx, w)
		if err != nil {
			return err
		}
		sa, err := ab.CP(ctx, w)
		if err != nil {
			return err
		}
		res.Guardbands[i] = sa - sf
		return nil
	})
	if err != nil {
		return nil, conc.WrapCanceled(err)
	}

	res.reduce(mc.bins())
	return res, nil
}

// reduce fills the distribution statistics from the per-sample guardbands.
func (r *MCResult) reduce(bins int) {
	n := len(r.Guardbands)
	var sum, sum2 float64
	for _, g := range r.Guardbands {
		sum += g
		sum2 += g * g
	}
	r.MeanS = sum / float64(n)
	if v := sum2/float64(n) - r.MeanS*r.MeanS; v > 0 {
		r.StdS = math.Sqrt(v)
	}
	sorted := append([]float64(nil), r.Guardbands...)
	sort.Float64s(sorted)
	r.MinS, r.MaxS = sorted[0], sorted[n-1]
	r.P50S = quantile(sorted, 0.50)
	r.P95S = quantile(sorted, 0.95)
	r.P999S = quantile(sorted, 0.999)
	r.Hist = histogram(sorted, bins)
}

// quantile interpolates linearly between order statistics of an ascending
// sample: the q-quantile sits at fractional rank q*(n-1).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// histogram bins an ascending sample over [min, max]. A degenerate
// distribution (max == min) lands entirely in bin 0.
func histogram(sorted []float64, bins int) MCHistogram {
	lo, hi := sorted[0], sorted[len(sorted)-1]
	h := MCHistogram{LoS: lo, HiS: hi, Counts: make([]int, bins)}
	span := hi - lo
	for _, g := range sorted {
		idx := 0
		if span > 0 {
			idx = int((g - lo) / span * float64(bins))
			if idx >= bins {
				idx = bins - 1
			}
		}
		h.Counts[idx]++
	}
	return h
}
