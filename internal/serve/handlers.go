package serve

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"ageguard/internal/aging"
	"ageguard/internal/core"
	"ageguard/internal/liberty"
	"ageguard/internal/sta"
	"ageguard/pkg/ageguard/api"
)

// resolveScenario maps the wire scenario onto an aging.Scenario. A zero
// Years defaults to the flow lifetime; "fresh" takes no Years at all —
// a caller who sends one is asking for a contradiction (aging over a
// lifetime of a scenario defined as unaged) and gets a 400 instead of a
// silently ignored parameter.
func (s *Server) resolveScenario(a api.Scenario) (aging.Scenario, error) {
	years := a.Years
	if years == 0 {
		years = s.cfg.Flow.Lifetime
	}
	var sc aging.Scenario
	switch a.Kind {
	case "fresh":
		if a.Years != 0 {
			return aging.Scenario{}, badRequest(
				"years = %g contradicts scenario kind \"fresh\"; drop years or pick an aged kind",
				a.Years)
		}
		sc = aging.Fresh()
	case "worst":
		sc = aging.WorstCase(years)
	case "balance":
		sc = aging.BalanceCase(years)
	case "duty":
		sc = aging.WorstCase(years).WithLambda(a.LambdaP, a.LambdaN)
	default:
		return aging.Scenario{}, badRequest(
			"unknown scenario kind %q (want fresh, worst, balance or duty)", a.Kind)
	}
	if err := sc.Validate(); err != nil {
		return aging.Scenario{}, badRequest("%v", err)
	}
	return sc, nil
}

// checkCircuit validates a benchmark name without building it.
func checkCircuit(name string) error {
	if !slices.Contains(core.BenchmarkCircuits(), name) {
		return notFound("unknown circuit %q", name)
	}
	return nil
}

// checkPathsK validates and resolves the path-count parameter: only an
// absent (zero) k defaults to 5; a negative k is a caller mistake, not
// a default request.
func checkPathsK(k int) (int, error) {
	if k < 0 {
		return 0, badRequest("negative k = %d", k)
	}
	if k == 0 {
		k = 5
	}
	if k > 100 {
		return 0, badRequest("k = %d too large (max 100)", k)
	}
	return k, nil
}

// library returns the characterized library for a scenario through the
// LRU; misses run the characterization (or the disk-cache load) once
// per key.
func (s *Server) library(ctx context.Context, sc aging.Scenario) (*liberty.Library, error) {
	key := "lib|" + sc.ExactKey()
	v, err := s.cache.get(ctx, key, func(ctx context.Context) (any, error) {
		return s.cfg.Flow.Library(ctx, sc)
	})
	if err != nil {
		return nil, err
	}
	return v.(*liberty.Library), nil
}

// timer returns the compiled form of a circuit's traditionally
// synthesized netlist through the LRU: the circuit is synthesized with
// the LRU's fresh library and compiled against it once, and only the
// sta.BatchTimer stays resident. Every scenario's guardband, paths and
// Monte Carlo fill times on it.
func (s *Server) timer(ctx context.Context, circuit string) (*sta.BatchTimer, error) {
	key := "nl|" + circuit
	v, err := s.cache.get(ctx, key, func(ctx context.Context) (any, error) {
		lib, err := s.library(ctx, aging.Fresh())
		if err != nil {
			return nil, err
		}
		nl, err := s.cfg.Flow.Synthesized(ctx, circuit, lib)
		if err != nil {
			return nil, err
		}
		return sta.NewBatchTimer(ctx, nl, lib, s.cfg.Flow.STA)
	})
	if err != nil {
		return nil, err
	}
	return v.(*sta.BatchTimer), nil
}

// timing is one circuit's ranked critical paths under one scenario: the
// wire-form paths of one sta.BatchTimer.TopPaths call traced for k,
// most critical first. TopPaths ranks endpoint-edges with a stable sort
// and traces each on its own, so the K most critical paths are the
// first K of any longer list, and the first path's DelayS is
// bit-identical to BatchTimer.CP. Immutable once stored: an extension
// stores a new value.
type timing struct {
	k     int
	paths []api.Path
}

// shorter reports whether v and old are path lists and v was traced for
// fewer paths than old (cache.put keeps old then).
func shorter(v, old any) bool {
	t, ok := v.(*timing)
	o, ok2 := old.(*timing)
	return ok && ok2 && t.k < o.k
}

// timing returns a circuit's ranked critical paths under a scenario,
// at least its k most critical, through one LRU entry per (circuit,
// scenario): a miss times the circuit and traces k paths, and a
// resident list shorter than k is extended.
func (s *Server) timing(ctx context.Context, circuit string, sc aging.Scenario, k int) (*timing, error) {
	key := "timing|" + circuit + "|" + sc.ExactKey()
	trace := s.trace(circuit, sc, k)
	v, err := s.cache.get(ctx, key, trace)
	if err != nil {
		return nil, err
	}
	if t := v.(*timing); k <= t.k {
		return t, nil
	}
	return s.extend(ctx, key, k, trace)
}

// trace returns the fill of a timing entry: it times the circuit's
// compiled netlist under the scenario's library and traces its k most
// critical paths.
func (s *Server) trace(circuit string, sc aging.Scenario, k int) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		bt, err := s.timer(ctx, circuit)
		if err != nil {
			return nil, err
		}
		lib, err := s.library(ctx, sc)
		if err != nil {
			return nil, err
		}
		ps, err := bt.TopPaths(ctx, lib, k)
		if err != nil {
			return nil, err
		}
		return &timing{k: k, paths: wirePaths(ps)}, nil
	}
}

// extend re-times the timing entry under key for k paths, once across
// concurrent callers (a singleflight keyed by the entry and k), counts
// serve.timing.extensions and stores the longer list in place of the
// entry's value.
func (s *Server) extend(ctx context.Context, key string, k int, trace func(context.Context) (any, error)) (*timing, error) {
	v, err := s.cache.share(ctx, key+"|"+strconv.Itoa(k), func(ctx context.Context) (any, error) {
		// An extension to k or beyond may have finished since the entry
		// was read.
		if v, ok := s.cache.lookup(key); ok && k <= v.(*timing).k {
			return v, nil
		}
		s.reg.Counter("serve.timing.extensions").Inc()
		v, err := trace(ctx)
		if err != nil {
			return nil, err
		}
		s.cache.put(key, v)
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*timing), nil
}

// wirePaths renders sta paths in their wire form.
func wirePaths(ps []sta.Path) []api.Path {
	out := make([]api.Path, 0, len(ps))
	for _, p := range ps {
		ap := api.Path{
			Launch:   p.Launch,
			Endpoint: p.Endpoint,
			EndEdge:  p.EndEdge.String(),
			DelayS:   p.Delay,
			SetupS:   p.Setup,
		}
		for _, st := range p.Steps {
			ap.Steps = append(ap.Steps, api.PathStep{
				Inst:     st.Inst,
				Cell:     st.Cell,
				Pin:      st.Pin,
				InEdge:   st.InEdge.String(),
				OutEdge:  st.OutEdge.String(),
				DelayS:   st.Delay,
				ArrivalS: st.Arrival,
			})
		}
		out = append(out, ap)
	}
	return out
}

// guardband answers POST /v1/guardband: fresh and aged critical paths
// of a traditionally synthesized circuit, and their difference.
func (s *Server) guardband(ctx context.Context, req *api.GuardbandRequest) (any, error) {
	if err := checkVersion(req.Version); err != nil {
		return nil, err
	}
	if err := checkCircuit(req.Circuit); err != nil {
		return nil, err
	}
	sc, err := s.resolveScenario(req.Scenario)
	if err != nil {
		return nil, err
	}
	fresh, err := s.timing(ctx, req.Circuit, aging.Fresh(), 1)
	if err != nil {
		return nil, fmt.Errorf("fresh analysis: %w", err)
	}
	aged, err := s.timing(ctx, req.Circuit, sc, 1)
	if err != nil {
		return nil, fmt.Errorf("aged analysis: %w", err)
	}
	fcp, acp := fresh.paths[0].DelayS, aged.paths[0].DelayS
	resp := api.GuardbandResponse{
		Version:    api.APIVersion,
		Circuit:    req.Circuit,
		Scenario:   req.Scenario,
		FreshCPs:   fcp,
		AgedCPs:    acp,
		GuardbandS: acp - fcp,
	}
	if fcp > 0 {
		resp.GuardbandPct = 100 * (acp - fcp) / fcp
	}
	return resp, nil
}

// cellTiming answers POST /v1/celltiming: every arc of one cell
// interpolated at the queried (input slew, output load) point.
func (s *Server) cellTiming(ctx context.Context, req *api.CellTimingRequest) (any, error) {
	if err := checkVersion(req.Version); err != nil {
		return nil, err
	}
	if req.InSlewS <= 0 || req.LoadF <= 0 {
		return nil, badRequest("in_slew_s and load_f must be positive (got %g, %g)", req.InSlewS, req.LoadF)
	}
	sc, err := s.resolveScenario(req.Scenario)
	if err != nil {
		return nil, err
	}
	lib, err := s.library(ctx, sc)
	if err != nil {
		return nil, err
	}
	ct, ok := lib.Cell(req.Cell)
	if !ok {
		return nil, notFound("unknown cell %q in library %s", req.Cell, lib.Name)
	}
	resp := api.CellTimingResponse{
		Version: api.APIVersion,
		Cell:    req.Cell,
		Library: lib.Name,
	}
	for _, arc := range ct.Arcs {
		for _, edge := range []liberty.Edge{liberty.Rise, liberty.Fall} {
			d := arc.Delay[edge]
			if d == nil {
				continue
			}
			at := api.ArcTiming{
				Pin:    arc.Pin,
				Edge:   edge.String(),
				DelayS: d.At(req.InSlewS, req.LoadF),
			}
			// OutSlew is optional in the .alib format — a delay-only arc
			// is legal and must not be dereferenced.
			if t := arc.OutSlew[edge]; t != nil {
				os := t.At(req.InSlewS, req.LoadF)
				at.OutSlewS = &os
			}
			resp.Arcs = append(resp.Arcs, at)
		}
	}
	return resp, nil
}

// grid answers POST /v1/grid: the full 11x11 duty-cycle guardband grid
// of a circuit. The whole response is one LRU value — it is by far the
// most expensive query (121 libraries) and perfectly reusable.
func (s *Server) grid(ctx context.Context, req *api.GridRequest) (any, error) {
	if err := checkVersion(req.Version); err != nil {
		return nil, err
	}
	if err := checkCircuit(req.Circuit); err != nil {
		return nil, err
	}
	years := req.Years
	if years == 0 {
		years = s.cfg.Flow.Lifetime
	}
	if years < 0 {
		return nil, badRequest("negative lifetime %g", years)
	}
	key := fmt.Sprintf("grid|%s|%g", req.Circuit, years)
	v, err := s.cache.get(ctx, key, func(ctx context.Context) (any, error) {
		fl := s.cfg.Flow
		fl.Lifetime = years
		g, err := fl.GuardbandGridFor(ctx, req.Circuit)
		if err != nil {
			return nil, err
		}
		_, _, worst := g.Worst()
		return api.GridResponse{
			Version:         api.APIVersion,
			Circuit:         req.Circuit,
			Years:           years,
			FreshCPs:        g.FreshCP,
			Lambdas:         g.Lambdas,
			AgedCPs:         g.AgedCP,
			WorstGuardbandS: worst,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(api.GridResponse), nil
}

// paths answers POST /v1/paths: the K most critical paths of a circuit
// under a scenario, the first K of the (circuit, scenario) timing entry.
func (s *Server) paths(ctx context.Context, req *api.PathsRequest) (any, error) {
	if err := checkVersion(req.Version); err != nil {
		return nil, err
	}
	if err := checkCircuit(req.Circuit); err != nil {
		return nil, err
	}
	k, err := checkPathsK(req.K)
	if err != nil {
		return nil, err
	}
	sc, err := s.resolveScenario(req.Scenario)
	if err != nil {
		return nil, err
	}
	t, err := s.timing(ctx, req.Circuit, sc, k)
	if err != nil {
		return nil, err
	}
	// A circuit with fewer than k endpoint-edges has fewer than k paths.
	return api.PathsResponse{Version: api.APIVersion, Circuit: req.Circuit, Paths: t.paths[:min(k, len(t.paths))]}, nil
}
