package serve

import (
	"context"
	"fmt"
	"slices"

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

// cp returns the critical-path delay of a circuit under a scenario
// through the LRU: the fill times the circuit's timer once; warm
// queries read the stored float.
func (s *Server) cp(ctx context.Context, circuit string, sc aging.Scenario) (float64, error) {
	key := "cp|" + circuit + "|" + sc.ExactKey()
	v, err := s.cache.get(ctx, key, func(ctx context.Context) (any, error) {
		bt, err := s.timer(ctx, circuit)
		if err != nil {
			return nil, err
		}
		lib, err := s.library(ctx, sc)
		if err != nil {
			return nil, err
		}
		return bt.CP(ctx, lib)
	})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
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
	fcp, err := s.cp(ctx, req.Circuit, aging.Fresh())
	if err != nil {
		return nil, fmt.Errorf("fresh analysis: %w", err)
	}
	acp, err := s.cp(ctx, req.Circuit, sc)
	if err != nil {
		return nil, fmt.Errorf("aged analysis: %w", err)
	}
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
// under a scenario. The traceback result is cached whole, keyed by K.
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
	key := fmt.Sprintf("paths|%s|%s|%d", req.Circuit, sc.ExactKey(), k)
	v, err := s.cache.get(ctx, key, func(ctx context.Context) (any, error) {
		bt, err := s.timer(ctx, req.Circuit)
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
		resp := api.PathsResponse{Version: api.APIVersion, Circuit: req.Circuit}
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
			resp.Paths = append(resp.Paths, ap)
		}
		return resp, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(api.PathsResponse), nil
}
