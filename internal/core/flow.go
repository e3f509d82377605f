// Package core implements the paper's reliability-aware design flow
// (Fig. 4) end to end, and the experiment drivers that regenerate every
// figure of the evaluation:
//
//   - degradation-aware cell-library creation (Fig. 4a, package char),
//   - guardband estimation under static and dynamic (workload-driven)
//     aging stress (Fig. 4b, Sec. 4.2),
//   - guardband containment by synthesizing with the worst-case aged
//     library (Fig. 4c, Sec. 4.3),
//   - the motivational analyses (Figs. 1-3) and the evaluation
//     comparisons (Figs. 5-7) including the DCT-IDCT image study.
//
// All expensive artifacts (characterized libraries, synthesized netlists)
// are cached on disk, so experiments are cheap to re-run.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"path/filepath"

	"ageguard/internal/aging"
	"ageguard/internal/atomicfile"
	"ageguard/internal/char"
	"ageguard/internal/conc"
	"ageguard/internal/gatesim"
	"ageguard/internal/liberty"
	"ageguard/internal/logic"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
	"ageguard/internal/rtl"
	"ageguard/internal/sta"
	"ageguard/internal/synth"
)

// Flow bundles the tool configuration of the reliability-aware design
// flow. Construct with Default and override fields as needed.
type Flow struct {
	Char     char.Config
	STA      sta.Config
	Synth    synth.Config
	Lifetime float64 // projected lifetime in years (paper: 10)
}

// Default returns the paper's configuration: 45 nm devices, calibrated BTI
// model, 7x7 OPC grid, 10-year lifetime, caches under the repository.
func Default() Flow {
	return Flow{
		Char:     char.CachedConfig(),
		Synth:    synth.Config{Buffering: true},
		Lifetime: 10,
	}
}

// Library characterizes (or loads) the degradation-aware library
// for a scenario. Canceling ctx stops in-flight simulations within one
// time step; the error then matches conc.ErrCanceled.
func (f Flow) Library(ctx context.Context, s aging.Scenario) (*liberty.Library, error) {
	return f.Char.Characterize(ctx, s)
}

// FreshLibrary returns the unaged (initial) library.
func (f Flow) FreshLibrary(ctx context.Context) (*liberty.Library, error) {
	return f.Library(ctx, aging.Fresh())
}

// WorstLibrary returns the worst-case static-stress library
// (lambda = 1.0/1.0) at the flow lifetime.
func (f Flow) WorstLibrary(ctx context.Context) (*liberty.Library, error) {
	return f.Library(ctx, aging.WorstCase(f.Lifetime))
}

// VthOnlyLibrary returns the worst-case library characterized with
// the mobility degradation disabled — the paper's model of
// state-of-the-art Vth-only analyses (Fig. 5a).
func (f Flow) VthOnlyLibrary(ctx context.Context) (*liberty.Library, error) {
	cfg := f.Char
	cfg.VthOnly = true
	return cfg.Characterize(ctx, aging.WorstCase(f.Lifetime))
}

// CompleteLibrary merges the libraries of the given scenarios into
// the lambda-indexed complete library (paper Sec. 4.1).
func (f Flow) CompleteLibrary(ctx context.Context, scens []aging.Scenario) (*liberty.Merged, error) {
	return f.Char.CompleteLibrary(ctx, "complete", scens)
}

// Benchmark returns the named evaluation circuit as a logic network.
func Benchmark(name string) (*logic.AIG, error) {
	gen, ok := rtl.Benchmarks()[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown benchmark %q", name)
	}
	return gen(), nil
}

// Synthesized synthesizes the named benchmark with the given
// library, using the disk cache when Char.CacheDir is set. The run is
// traced under a "core.synthesized" span; cache outcomes count under
// core.netlist.cache.hits / .misses, and a cached netlist that fails its
// seal or netlist.Read also under .corrupt (it is synthesized again and
// replaced).
func (f Flow) Synthesized(ctx context.Context, circuit string, lib *liberty.Library) (*netlist.Netlist, error) {
	ctx, sp := obs.StartSpan(ctx, "core.synthesized")
	defer sp.End()
	sp.SetAttr("circuit", circuit)
	sp.SetAttr("lib", lib.Name)
	reg := obs.From(ctx)
	path := f.netlistCachePath(circuit, lib)
	outcome := "miss"
	if path != "" {
		nl, err := loadNetlist(path)
		if err == nil {
			reg.Counter("core.netlist.cache.hits").Inc()
			sp.SetAttr("cache", "hit")
			return nl, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			reg.Counter("core.netlist.cache.corrupt").Inc()
			outcome = "corrupt"
		}
	}
	reg.Counter("core.netlist.cache.misses").Inc()
	sp.SetAttr("cache", outcome)
	a, err := Benchmark(circuit)
	if err != nil {
		return nil, err
	}
	nl, err := synth.Synthesize(ctx, a, lib, circuit, f.synthConfig())
	if err != nil {
		return nil, conc.WrapCanceled(err)
	}
	// Written atomically, so concurrent experiment legs synthesizing the
	// same (circuit, library) never observe or produce a torn entry.
	if path != "" {
		if err := atomicfile.WriteSealed(path, func(w io.Writer) error { return netlist.Write(w, nl) }); err != nil {
			return nil, fmt.Errorf("core: caching netlist %s: %w", path, err)
		}
	}
	return nl, nil
}

// loadNetlist reads a cached netlist under its seal. The netlist does
// not alias the file's bytes: netlist.Read copies every name it keeps.
func loadNetlist(path string) (*netlist.Netlist, error) {
	body, err := atomicfile.ReadSealed(path)
	if err != nil {
		return nil, err
	}
	return netlist.Read(bytes.NewReader(body))
}

// synthConfig is the effective synthesis configuration: the flow's synth
// knobs with the flow's STA parameters threaded through, so the optimizer
// times candidates under exactly the conditions CP signs off with.
// An STA config set explicitly on Synth wins over the flow-level one.
func (f Flow) synthConfig() synth.Config {
	cfg := f.Synth
	if cfg.STA == (sta.Config{}) {
		cfg.STA = f.STA
	}
	return cfg
}

// synthVersion names the synthesis algorithms: logic optimization,
// technology mapping and the post-mapping passes. netlistCachePath
// includes it; bump it with every change that can alter a synthesized
// netlist, so netlists cached by older synthesis are never read back.
const synthVersion = 1

// netlistCachePath keys cached netlists by circuit, library name and a
// fingerprint of everything that shapes the synthesized result: the
// synthesis version, the library's exact scenario and the full
// characterization config (the library name rounds the scenario to one
// decimal and does not encode grid axes, model constants or the numerics
// version), and the effective synthesis config — which includes the
// threaded STA parameters, so changing Flow.STA can never silently reuse
// a netlist optimized under different timing conditions. A changed knob,
// scenario or algorithm therefore never reuses a stale netlist.
func (f Flow) netlistCachePath(circuit string, lib *liberty.Library) string {
	if f.Char.CacheDir == "" {
		return ""
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "synthesis=%d|scenario=%s|char=%016x|synth=%v",
		synthVersion, lib.Scenario.ExactKey(), f.Char.Hash(), f.synthConfig())
	return filepath.Join(f.Char.CacheDir,
		fmt.Sprintf("netl_%s_%s_h%016x.netl", circuit, lib.Name, h.Sum64()))
}

// SynthesizeTraditional synthesizes the benchmark the conventional
// way, with the initial (degradation-unaware) library.
func (f Flow) SynthesizeTraditional(ctx context.Context, circuit string) (*netlist.Netlist, error) {
	lib, err := f.FreshLibrary(ctx)
	if err != nil {
		return nil, err
	}
	return f.Synthesized(ctx, circuit, lib)
}

// SynthesizeAgingAware synthesizes with the worst-case
// degradation-aware library (paper Sec. 4.3).
func (f Flow) SynthesizeAgingAware(ctx context.Context, circuit string) (*netlist.Netlist, error) {
	lib, err := f.WorstLibrary(ctx)
	if err != nil {
		return nil, err
	}
	return f.Synthesized(ctx, circuit, lib)
}

// CP runs STA and returns the critical-path delay of the netlist
// under the library, recording the analysis in the registry carried by
// ctx.
func (f Flow) CP(ctx context.Context, nl *netlist.Netlist, lib *liberty.Library) (float64, error) {
	bt, err := sta.NewBatchTimer(ctx, nl, lib, f.STA)
	if err != nil {
		return 0, err
	}
	return bt.CP(ctx, lib)
}

// Guardband is one guardband estimation outcome (paper Fig. 4b): the
// timing margin that must be added on top of the fresh critical path so
// the circuit still meets timing after the projected aging.
type Guardband struct {
	Circuit   string
	FreshCP   float64 // critical path before aging [s]
	AgedCP    float64 // critical path under the aging scenario [s]
	Guardband float64 // AgedCP - FreshCP [s]
}

// StaticGuardband estimates the guardband of a netlist under a
// static aging stress scenario, traced under a "core.guardband.static"
// span.
func (f Flow) StaticGuardband(ctx context.Context, circuit string, nl *netlist.Netlist, s aging.Scenario) (Guardband, error) {
	ctx, sp := obs.StartSpan(ctx, "core.guardband.static")
	defer sp.End()
	sp.SetAttr("circuit", circuit)
	sp.SetAttr("scenario", s.String())
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return Guardband{}, err
	}
	aged, err := f.Library(ctx, s)
	if err != nil {
		return Guardband{}, err
	}
	bt, err := sta.NewBatchTimer(ctx, nl, fresh, f.STA)
	if err != nil {
		return Guardband{}, err
	}
	fcp, err := bt.CP(ctx, fresh)
	if err != nil {
		return Guardband{}, err
	}
	acp, err := bt.CP(ctx, aged)
	if err != nil {
		return Guardband{}, err
	}
	return Guardband{Circuit: circuit, FreshCP: fcp, AgedCP: acp, Guardband: acp - fcp}, nil
}

// DynamicGuardband estimates the guardband under the aging stress a
// specific workload induces (paper Sec. 4.2): simulate the workload,
// extract per-instance duty cycles, annotate the netlist with lambda
// indexes, and time it against the complete degradation-aware library.
// The scenario fan-out behind the complete library dominates the cost
// and is fully cancelable; traced as "core.guardband.dynamic".
func (f Flow) DynamicGuardband(ctx context.Context, circuit string, nl *netlist.Netlist,
	stim func(step int) map[string]uint64, steps int) (Guardband, *netlist.Netlist, error) {

	ctx, sp := obs.StartSpan(ctx, "core.guardband.dynamic")
	defer sp.End()
	sp.SetAttr("circuit", circuit)
	sp.SetAttr("steps", steps)
	sim, err := gatesim.New(nl)
	if err != nil {
		return Guardband{}, nil, err
	}
	prob := sim.Activities(stim, steps)
	lambdas, err := gatesim.DeriveLambdas(nl, prob)
	if err != nil {
		return Guardband{}, nil, err
	}
	ann := nl.Annotate(lambdas)
	base := aging.WorstCase(f.Lifetime)
	scens, err := netlist.AnnotatedScenarios(ann, base)
	if err != nil {
		return Guardband{}, nil, err
	}
	sp.SetAttr("scenarios", len(scens))
	merged, err := f.CompleteLibrary(ctx, scens)
	if err != nil {
		return Guardband{}, nil, err
	}
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		return Guardband{}, nil, err
	}
	fcp, err := f.CP(ctx, nl, fresh)
	if err != nil {
		return Guardband{}, nil, err
	}
	acp, err := f.CP(ctx, ann, &merged.Library)
	if err != nil {
		return Guardband{}, nil, err
	}
	return Guardband{Circuit: circuit, FreshCP: fcp, AgedCP: acp, Guardband: acp - fcp}, ann, nil
}

// Area returns the total cell area of a netlist in um^2.
func Area(nl *netlist.Netlist) (float64, error) {
	st, err := nl.ComputeStats(gatesim.CatalogLookup)
	if err != nil {
		return 0, err
	}
	return st.AreaUm2, nil
}
