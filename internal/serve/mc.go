package serve

import (
	"context"
	"strconv"

	"ageguard/internal/aging"
	"ageguard/internal/core"
	"ageguard/internal/device"
	"ageguard/pkg/ageguard/api"
)

// Server-side bounds on the Monte Carlo request parameters. Samples and
// bins are compute/response-size bounds; the sigma caps reject requests
// far outside any physical process spread (the device layer additionally
// clamps individual draws, so even an in-bounds pathological request
// cannot produce unphysical devices).
const (
	maxMCSamples  = 2048
	maxMCBins     = 256
	maxMCSigmaVth = 0.2 // [V]
	maxMCSigmaMu  = 0.5 // relative
)

// mcGuardband answers POST /v1/mcguardband: the process-variation Monte
// Carlo guardband distribution of a circuit under a scenario. The whole
// response is one LRU value keyed by the circuit, the resolved scenario
// and every sampling parameter, so a warm repeat
// replays the identical distribution without re-timing anything — and
// because the sample streams are counter-based, even a cold recomputation
// is bit-identical. The stored value carries no scenario: each reply
// echoes its own caller's spelling, since equal resolved scenarios can
// be spelled differently ({"kind":"worst"} and {"kind":"worst","years":10}
// under a 10-year lifetime).
func (s *Server) mcGuardband(ctx context.Context, req *api.MCGuardbandRequest) (any, error) {
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
	samples := req.Samples
	switch {
	case samples < 0:
		return nil, badRequest("negative samples = %d", samples)
	case samples == 0:
		samples = core.DefaultMCSamples
	case samples > maxMCSamples:
		return nil, badRequest("samples = %d too large (max %d)", samples, maxMCSamples)
	}
	bins := req.Bins
	switch {
	case bins < 0:
		return nil, badRequest("negative bins = %d", bins)
	case bins == 0:
		bins = core.DefaultMCBins
	case bins > maxMCBins:
		return nil, badRequest("bins = %d too large (max %d)", bins, maxMCBins)
	}
	if req.SigmaVthV < 0 || req.SigmaMuRel < 0 {
		return nil, badRequest("variation sigmas must be non-negative (got %g V, %g)",
			req.SigmaVthV, req.SigmaMuRel)
	}
	if req.SigmaVthV > maxMCSigmaVth {
		return nil, badRequest("sigma_vth_v = %g too large (max %g V)", req.SigmaVthV, maxMCSigmaVth)
	}
	if req.SigmaMuRel > maxMCSigmaMu {
		return nil, badRequest("sigma_mu_rel = %g too large (max %g)", req.SigmaMuRel, maxMCSigmaMu)
	}
	v := device.Variation{SigmaVth: req.SigmaVthV, SigmaMuRel: req.SigmaMuRel}
	if v.IsZero() {
		v = device.DefaultVariation()
	}

	key := "mc|" + req.Circuit + "|" + scenarioKey(sc) + "|" + mcParamKey(samples, req.Seed, v, bins)
	out, err := s.cache.get(ctx, key, func(ctx context.Context) (any, error) {
		bt, err := s.timer(ctx, req.Circuit)
		if err != nil {
			return nil, err
		}
		fresh, err := s.library(ctx, aging.Fresh())
		if err != nil {
			return nil, err
		}
		aged, err := s.library(ctx, sc)
		if err != nil {
			return nil, err
		}
		res, err := s.cfg.Flow.MCGuardbandTimer(ctx, req.Circuit, bt, sc, fresh, aged, core.MCConfig{
			Samples:   samples,
			Seed:      req.Seed,
			Variation: v,
			Bins:      bins,
		})
		if err != nil {
			return nil, err
		}
		s.reg.Counter("serve.mc.samples").Add(int64(res.Samples))
		return api.MCGuardbandResponse{
			Version:    api.APIVersion,
			Circuit:    req.Circuit,
			Samples:    res.Samples,
			Seed:       res.Seed,
			SigmaVthV:  v.SigmaVth,
			SigmaMuRel: v.SigmaMuRel,
			FreshCPs:   res.FreshCPS,
			AgedCPs:    res.AgedCPS,
			MeanS:      res.MeanS,
			StdS:       res.StdS,
			P50S:       res.P50S,
			P95S:       res.P95S,
			P999S:      res.P999S,
			MinS:       res.MinS,
			MaxS:       res.MaxS,
			Hist: api.MCHistogram{
				LoS:    res.Hist.LoS,
				HiS:    res.Hist.HiS,
				Counts: res.Hist.Counts,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	resp := out.(api.MCGuardbandResponse)
	resp.Scenario = req.Scenario
	return resp, nil
}

// mcParamKey encodes the sampling parameters for the LRU key with full
// fidelity (sigmas as exact IEEE-754 bits, like scenarioKey).
func mcParamKey(samples int, seed uint64, v device.Variation, bins int) string {
	b := make([]byte, 0, 64)
	b = appendHexInt(b, int64(samples))
	b = append(b, '_')
	b = appendHexUint(b, seed)
	b = append(b, '_')
	b = appendHexFloat(b, v.SigmaVth)
	b = append(b, '_')
	b = appendHexFloat(b, v.SigmaMuRel)
	b = append(b, '_')
	b = appendHexInt(b, int64(bins))
	return string(b)
}

func appendHexUint(b []byte, u uint64) []byte { return strconv.AppendUint(b, u, 16) }
func appendHexInt(b []byte, i int64) []byte   { return strconv.AppendInt(b, i, 16) }
