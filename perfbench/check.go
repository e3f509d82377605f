package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"ageguard/pkg/ageguard/api"
)

// reference.json holds answers of the commit that introduced the
// benchmark, on the paper's 7x7 grid. The model has no silicon
// reference, so matching them shows only that the answers did not
// drift, not that they are right.
//
//go:embed reference.json
var referenceJSON []byte

type refGuardband struct {
	FreshCPs     float64 `json:"fresh_cp_s"`
	AgedCPs      float64 `json:"aged_cp_s"`
	GuardbandPct float64 `json:"guardband_pct"`
}

type reference struct {
	Note string `json:"note"`
	// RelTol is the relative tolerance of every comparison against the
	// recorded values. It is far below any change a model edit makes and
	// above the last-bit differences floating-point kernels may show
	// across CPUs.
	RelTol float64 `json:"rel_tol"`
	// GuardbandWorst maps each circuit to its worst-case guardband reply.
	GuardbandWorst map[string]refGuardband `json:"guardband_worst"`
	// TopPath is the first path's delay of every RISC-5P worst-case
	// paths reply, whatever its k.
	TopPath struct {
		Circuit string  `json:"circuit"`
		DelayS  float64 `json:"delay_s"`
	} `json:"top_path_worst"`
	// MC holds the quantiles of the RISC-5P worst-case query with
	// mcSamples samples and seed mcRefSeed.
	MC struct {
		Circuit string  `json:"circuit"`
		Samples int     `json:"samples"`
		Seed    uint64  `json:"seed"`
		P50S    float64 `json:"p50_s"`
		P95S    float64 `json:"p95_s"`
	} `json:"mc_worst"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// checker validates every answer. Besides the recorded reference values
// it holds what earlier answers of the run said: a repeat of a request
// must come back byte-identical, and a paths reply's first delay must
// equal the critical path the guardband replies reported for the same
// circuit and scenario. It is shared by a run's callers.
type checker struct {
	ref *reference

	mu      sync.Mutex
	bodies  map[string]string  // request key -> body checksum of its first reply
	freshCP map[string]float64 // circuit -> fresh critical path
	agedCP  map[string]float64 // circuit|scenario -> aged critical path
}

func newChecker(ref *reference) *checker {
	return &checker{ref: ref, bodies: map[string]string{},
		freshCP: map[string]float64{}, agedCP: map[string]float64{}}
}

func (c *checker) check(r *request, rep *reply) error {
	switch r.kind {
	case kindGuardband:
		if err := c.guardband(r.gb, rep.gb); err != nil {
			return err
		}
		return c.same("gb|"+r.gb.Circuit+"|"+scenarioKey(r.gb.Scenario), rep.sum)
	case kindCellTiming:
		return cellTiming(r.ct, rep.ct)
	case kindPaths:
		if err := c.paths(r.pa, rep.pa); err != nil {
			return err
		}
		return c.same(fmt.Sprintf("pa|%s|%s|%d", r.pa.Circuit, scenarioKey(r.pa.Scenario), r.pa.K), rep.sum)
	case kindMC:
		if err := c.mc(r.mc, rep.mc); err != nil {
			return err
		}
		return c.same(fmt.Sprintf("mc|%s|%s|%d|%d", r.mc.Circuit, scenarioKey(r.mc.Scenario),
			r.mc.Samples, r.mc.Seed), rep.sum)
	case kindBatch:
		return c.batch(r.batch, rep.batch)
	}
	return fmt.Errorf("unknown kind %q", r.kind)
}

// same requires every reply to key to be byte-identical to the first.
// A reply is known by its body checksum, which the typed client has
// already verified against the bytes it decoded.
func (c *checker) same(key, sum string) error {
	if sum == "" {
		return fmt.Errorf("reply to %s carries no %s header", key, api.BodySumHeader)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.bodies[key]; ok && prev != sum {
		return fmt.Errorf("reply to %s differs from an earlier reply to the same request", key)
	}
	c.bodies[key] = sum
	return nil
}

func (c *checker) near(what string, got, want float64) error {
	if math.Abs(got-want) > c.ref.RelTol*math.Abs(want) {
		return fmt.Errorf("%s = %.17g, reference %.17g (relative tolerance %g)", what, got, want, c.ref.RelTol)
	}
	return nil
}

func positive(what string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("%s = %g, want a positive finite value", what, v)
	}
	return nil
}

func isWorst(sc api.Scenario) bool {
	return sc.Kind == "worst" && (sc.Years == 0 || sc.Years == 10)
}

func (c *checker) guardband(req *api.GuardbandRequest, g *api.GuardbandResponse) error {
	if g.Circuit != req.Circuit {
		return fmt.Errorf("guardband reply names circuit %q, asked %q", g.Circuit, req.Circuit)
	}
	if err := positive("fresh_cp_s", g.FreshCPs); err != nil {
		return err
	}
	if err := positive("aged_cp_s", g.AgedCPs); err != nil {
		return err
	}
	if g.GuardbandS != g.AgedCPs-g.FreshCPs || g.GuardbandPct != 100*(g.AgedCPs-g.FreshCPs)/g.FreshCPs {
		return fmt.Errorf("guardband %g s / %g%% inconsistent with CPs %g, %g",
			g.GuardbandS, g.GuardbandPct, g.FreshCPs, g.AgedCPs)
	}
	if ref, ok := c.ref.GuardbandWorst[req.Circuit]; ok && isWorst(req.Scenario) {
		for _, e := range []error{
			c.near(req.Circuit+" fresh_cp_s", g.FreshCPs, ref.FreshCPs),
			c.near(req.Circuit+" aged_cp_s", g.AgedCPs, ref.AgedCPs),
			c.near(req.Circuit+" guardband_pct", g.GuardbandPct, ref.GuardbandPct),
		} {
			if e != nil {
				return e
			}
		}
	}
	key := req.Circuit + "|" + scenarioKey(req.Scenario)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.freshCP[req.Circuit]; ok && f != g.FreshCPs {
		return fmt.Errorf("%s fresh CP %g differs from an earlier reply's %g", req.Circuit, g.FreshCPs, f)
	}
	if a, ok := c.agedCP[key]; ok && a != g.AgedCPs {
		return fmt.Errorf("%s aged CP %g differs from an earlier reply's %g", key, g.AgedCPs, a)
	}
	c.freshCP[req.Circuit] = g.FreshCPs
	c.agedCP[key] = g.AgedCPs
	return nil
}

func cellTiming(req *api.CellTimingRequest, ct *api.CellTimingResponse) error {
	if ct.Cell != req.Cell || ct.Library == "" || len(ct.Arcs) == 0 {
		return fmt.Errorf("celltiming reply for %q names cell %q, library %q, %d arcs",
			req.Cell, ct.Cell, ct.Library, len(ct.Arcs))
	}
	for _, a := range ct.Arcs {
		// A delay may be negative: with a slow input ramp and a light
		// load the output crosses 50% before the input does.
		if math.IsNaN(a.DelayS) || math.IsInf(a.DelayS, 0) {
			return fmt.Errorf("%s/%s delay_s = %g", req.Cell, a.Pin, a.DelayS)
		}
		if a.OutSlewS != nil {
			if err := positive(req.Cell+"/"+a.Pin+" out_slew_s", *a.OutSlewS); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *checker) paths(req *api.PathsRequest, p *api.PathsResponse) error {
	if p.Circuit != req.Circuit || len(p.Paths) != req.K {
		return fmt.Errorf("paths reply names %q with %d paths, asked %q k=%d",
			p.Circuit, len(p.Paths), req.Circuit, req.K)
	}
	for i, path := range p.Paths {
		if err := positive("path delay_s", path.DelayS); err != nil {
			return err
		}
		if i > 0 && path.DelayS > p.Paths[i-1].DelayS {
			return fmt.Errorf("paths %d and %d out of order: %g > %g", i-1, i, path.DelayS, p.Paths[i-1].DelayS)
		}
	}
	top := p.Paths[0].DelayS
	if req.Circuit == c.ref.TopPath.Circuit && isWorst(req.Scenario) {
		if err := c.near("top path delay_s", top, c.ref.TopPath.DelayS); err != nil {
			return err
		}
	}
	c.mu.Lock()
	cp, ok := c.agedCP[req.Circuit+"|"+scenarioKey(req.Scenario)]
	if req.Scenario.Kind == "fresh" {
		cp, ok = c.freshCP[req.Circuit]
	}
	c.mu.Unlock()
	if ok && top != cp {
		return fmt.Errorf("%s %s top path %.17g differs from the guardband reply's critical path %.17g",
			req.Circuit, scenarioKey(req.Scenario), top, cp)
	}
	return nil
}

func (c *checker) mc(req *api.MCGuardbandRequest, m *api.MCGuardbandResponse) error {
	if m.Circuit != req.Circuit || m.Samples != req.Samples || m.Seed != req.Seed {
		return fmt.Errorf("mc reply for %s/%d samples/seed %d, asked %s/%d/%d",
			m.Circuit, m.Samples, m.Seed, req.Circuit, req.Samples, req.Seed)
	}
	qs := []float64{m.MinS, m.P50S, m.P95S, m.P999S, m.MaxS}
	for i, q := range qs {
		if math.IsNaN(q) || math.IsInf(q, 0) || (i > 0 && q < qs[i-1]) {
			return fmt.Errorf("mc quantiles not ordered: min/p50/p95/p999/max = %v", qs)
		}
	}
	n := 0
	for _, k := range m.Hist.Counts {
		n += k
	}
	if n != m.Samples {
		return fmt.Errorf("mc histogram holds %d samples, reply says %d", n, m.Samples)
	}
	ref := c.ref.MC
	if req.Circuit == ref.Circuit && isWorst(req.Scenario) && req.Samples == ref.Samples && req.Seed == ref.Seed {
		if err := c.near("mc p50_s", m.P50S, ref.P50S); err != nil {
			return err
		}
		return c.near("mc p95_s", m.P95S, ref.P95S)
	}
	return nil
}

func (c *checker) batch(items []api.BatchItem, b *api.BatchResponse) error {
	if len(b.Items) != len(items) {
		return fmt.Errorf("batch of %d items answered with %d", len(items), len(b.Items))
	}
	for i, it := range items {
		res := b.Items[i]
		var err error
		switch {
		case res.Error != nil:
			err = fmt.Errorf("status %d: %s", res.Error.Status, res.Error.Message)
		case it.Kind == api.BatchGuardband && res.Guardband != nil:
			err = c.guardband(it.Guardband, res.Guardband)
		case it.Kind == api.BatchCellTiming && res.CellTiming != nil:
			err = cellTiming(it.CellTiming, res.CellTiming)
		case it.Kind == api.BatchPaths && res.Paths != nil:
			err = c.paths(it.Paths, res.Paths)
		default:
			err = fmt.Errorf("no %s payload", it.Kind)
		}
		if err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return nil
}
