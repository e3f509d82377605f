package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ageguard/internal/aging"
	"ageguard/internal/char"
	"ageguard/internal/core"
	"ageguard/internal/device"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
	"ageguard/internal/sta"
	"ageguard/pkg/ageguard/api"
)

// The traced pass replays each request's inputs through the public
// functions of the layers the daemon called for it, in the handler's
// order, each call under its own span. The daemon's code carries no
// spans of the benchmark, so this is how its time splits by layer:
//
//	guardband  char.Config.Characterize -> core.Flow.Synthesized ->
//	           sta.NewAnalyzer / Analyzer.CP (only the layers the
//	           daemon ran: a warm repeat runs none of them)
//	paths      sta.TopPaths
//	mc         char.Config.Sensitivities, core.Flow.MCGuardbandNetlist,
//	           and Sensitivity.SampleLibrary plus BatchTimer.CP on the
//	           first mcReplaySamples samples of the same seed's draws
//	every kind serve.Server.Handler().ServeHTTP in-process (a repeat of
//	           the request, answered from the LRU) and json.Marshal of
//	           the api reply
//
// Every replay must reproduce the daemon's answer exactly.

// mcReplaySamples bounds the samples whose library materialization and
// timing are replayed one by one; per-sample costs do not depend on the
// sample, so the first few give the mean.
const mcReplaySamples = 8

// spanCtx places a request's spans: the lane, the request's ID and the
// request span the replays hang under.
type spanCtx struct {
	ln     *lane
	id     uint64
	parent int32
}

// span runs fn under a child span of sc named name.
func (sc spanCtx) span(name string, fn func() error) error {
	i := sc.ln.begin(name, sc.id, sc.parent)
	err := fn()
	sc.ln.end(i)
	return err
}

// replayer holds what the replays need: a registry of their own (so the
// daemon's counters see only the daemon's work), the daemon's handler,
// the flow over the run's disk cache and, for miss-sweep, the libraries
// and netlists the daemon holds warm.
type replayer struct {
	ctx     context.Context
	handler http.Handler
	flow    core.Flow // the daemon's flow, over the run's disk cache
	noCache core.Flow // the same flow with every cache disabled
	tmp     string

	fresh, worst *liberty.Library // libraries of cold-guardband's current daemon
	libs         map[string]*liberty.Library
	netlists     map[string]*netlist.Netlist

	mu          sync.Mutex           // guards the tallies below; warm-mix replays from two callers
	insts       []int                // instance counts of replayed syntheses
	mcSamples   int                  // samples of replayed MC queries
	hitOverhead map[string][]float64 // kind -> round trip minus handler [us], LRU hits only
}

func newReplayer(tmp string) *replayer {
	return &replayer{
		ctx:         obs.With(context.Background(), obs.NewRegistry()),
		noCache:     flowFor(""),
		tmp:         tmp,
		libs:        map[string]*liberty.Library{},
		netlists:    map[string]*netlist.Netlist{},
		hitOverhead: map[string][]float64{},
	}
}

// attach points the replays at daemon d and its disk cache.
func (rp *replayer) attach(d *daemon, cacheDir string) {
	rp.handler = d.srv.Handler()
	rp.flow = flowFor(cacheDir)
}

// loadWarm replays the daemon's warm-start scan (every library of the
// disk cache through char.VerifyCacheFile) and loads the libraries and
// netlists miss-sweep's replays time against. Its spans go to the
// set-up lane.
func (rp *replayer) loadWarm(tr *tracer) error {
	sc := spanCtx{ln: tr.setup, parent: -1}
	paths, err := rp.flow.Char.CacheEntries()
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := sc.span("liberty.load", func() error { _, err := char.VerifyCacheFile(p); return err }); err != nil {
			return err
		}
	}
	for _, s := range []api.Scenario{scFresh, scWorst, scBalance} {
		lib, err := rp.flow.Library(rp.ctx, toAging(s))
		if err != nil {
			return err
		}
		rp.libs[scenarioKey(s)] = lib
	}
	for _, c := range circuits {
		nl, err := rp.flow.SynthesizeTraditional(rp.ctx, c)
		if err != nil {
			return err
		}
		rp.netlists[c] = nl
	}
	return nil
}

// toAging resolves a wire scenario as the daemon does.
func toAging(s api.Scenario) aging.Scenario {
	switch s.Kind {
	case "worst":
		return aging.WorstCase(s.Years)
	case "balance":
		return aging.BalanceCase(s.Years)
	case "duty":
		return aging.WorstCase(s.Years).WithLambda(s.LambdaP, s.LambdaN)
	}
	return aging.Fresh()
}

// replay runs the replays of one answered request. hit says the daemon
// answered it from its LRU, so the in-process handler repeat does the
// same work and the round trip minus it is the client and HTTP cost.
func (rp *replayer) replay(sc spanCtx, r *request, rep *reply, roundTrip time.Duration, hit bool) error {
	var err error
	switch r.class {
	case "cold":
		err = rp.coldGuardband(sc, r.gb, rep.gb)
	case "new-circuit":
		err = rp.newCircuit(sc, r.gb, rep.gb)
	}
	if err == nil && r.kind == kindPaths && !hit {
		err = rp.paths(sc, r.pa, rep.pa)
	}
	if err == nil && r.kind == kindMC {
		err = rp.mc(sc, r.mc, rep.mc)
	}
	if err != nil {
		return fmt.Errorf("replay of %s %s: %w", r.kind, r.class, err)
	}
	var handler time.Duration
	if err := sc.span("serve.handler."+r.kind, func() error {
		t0 := time.Now()
		err := rp.serveInProcess(r)
		handler = time.Since(t0)
		return err
	}); err != nil {
		return err
	}
	if hit {
		rp.mu.Lock()
		rp.hitOverhead[r.kind] = append(rp.hitOverhead[r.kind], float64(roundTrip-handler)/float64(time.Microsecond))
		rp.mu.Unlock()
	}
	return sc.span("serve.encode."+r.kind, func() error {
		_, err := json.Marshal(rep.typed())
		return err
	})
}

// serveInProcess repeats the request through the daemon's handler
// without the network. The repeat of a novel batch ends in a newline its
// first sending lacked, so it too misses the whole-reply memo and is
// planned and answered item by item, as the first was.
func (rp *replayer) serveInProcess(r *request) error {
	var path string
	var body any
	switch r.kind {
	case kindGuardband:
		path, body = "/v1/guardband", r.gb
	case kindCellTiming:
		path, body = "/v1/celltiming", r.ct
	case kindPaths:
		path, body = "/v1/paths", r.pa
	case kindMC:
		path, body = "/v1/mcguardband", r.mc
	default:
		path, body = "/v1/batch", api.BatchRequest{Version: api.APIVersion, Items: r.batch}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	if r.novel {
		b = append(b, '\n')
	}
	rec := httptest.NewRecorder()
	rp.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s: status %d", path, rec.Code)
	}
	return nil
}

// coldGuardband replays the first query of a fresh daemon: both
// libraries characterized with no disk cache, each written and read
// back through the library file format, then the new-circuit work.
func (rp *replayer) coldGuardband(sc spanCtx, req *api.GuardbandRequest, g *api.GuardbandResponse) error {
	libs := make([]*liberty.Library, 2)
	for i, s := range []aging.Scenario{aging.Fresh(), toAging(req.Scenario)} {
		if err := sc.span("char.characterize", func() error {
			var err error
			libs[i], err = rp.noCache.Char.Characterize(rp.ctx, s)
			return err
		}); err != nil {
			return err
		}
		path := filepath.Join(rp.tmp, fmt.Sprintf("replay-%d.alib", i))
		if err := sc.span("liberty.store", func() error { return storeLibrary(path, libs[i]) }); err != nil {
			return err
		}
		if err := sc.span("liberty.load", func() error { _, err := char.VerifyCacheFile(path); return err }); err != nil {
			return err
		}
		os.Remove(path)
	}
	rp.fresh, rp.worst = libs[0], libs[1]
	return rp.newCircuit(sc, req, g)
}

func storeLibrary(path string, lib *liberty.Library) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := liberty.WriteSummed(f, lib); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newCircuit replays a guardband query whose libraries are warm:
// synthesis with no netlist cache, then both analyzers.
func (rp *replayer) newCircuit(sc spanCtx, req *api.GuardbandRequest, g *api.GuardbandResponse) error {
	if rp.fresh == nil {
		return fmt.Errorf("no replayed libraries for %s", req.Circuit)
	}
	var nl *netlist.Netlist
	if err := sc.span("synth.synthesize", func() error {
		var err error
		nl, err = rp.noCache.Synthesized(rp.ctx, req.Circuit, rp.fresh)
		return err
	}); err != nil {
		return err
	}
	rp.mu.Lock()
	rp.insts = append(rp.insts, len(nl.Insts))
	rp.mu.Unlock()
	var cps [2]float64
	for i, lib := range []*liberty.Library{rp.fresh, rp.worst} {
		if err := sc.span("sta.compile", func() error {
			az, err := sta.NewAnalyzer(rp.ctx, nl, lib, rp.flow.STA)
			if err == nil {
				cps[i] = az.CP()
			}
			return err
		}); err != nil {
			return err
		}
	}
	if cps[0] != g.FreshCPs || cps[1] != g.AgedCPs {
		return fmt.Errorf("replayed CPs %g, %g differ from the reply's %g, %g", cps[0], cps[1], g.FreshCPs, g.AgedCPs)
	}
	return nil
}

// paths replays a paths miss against the warm library and netlist.
func (rp *replayer) paths(sc spanCtx, req *api.PathsRequest, p *api.PathsResponse) error {
	nl, lib := rp.netlists[req.Circuit], rp.libs[scenarioKey(req.Scenario)]
	if nl == nil || lib == nil {
		return fmt.Errorf("no warm inputs for %s %s", req.Circuit, scenarioKey(req.Scenario))
	}
	var ps []sta.Path
	if err := sc.span("sta.toppaths", func() error {
		var err error
		ps, err = sta.TopPaths(rp.ctx, nl, lib, rp.flow.STA, req.K)
		return err
	}); err != nil {
		return err
	}
	if len(ps) != len(p.Paths) || ps[0].Delay != p.Paths[0].DelayS {
		return fmt.Errorf("replayed top path differs from the reply")
	}
	return nil
}

// mc replays a Monte Carlo miss: the sensitivities on the warm disk
// cache, the whole estimation, and per-sample materialization and timing
// on the same seed's draws.
func (rp *replayer) mc(sc spanCtx, req *api.MCGuardbandRequest, m *api.MCGuardbandResponse) error {
	nl := rp.netlists[req.Circuit]
	if nl == nil {
		return fmt.Errorf("no warm netlist for %s", req.Circuit)
	}
	s := toAging(req.Scenario)
	sens := make([]*char.Sensitivity, 2)
	for i, sc2 := range []aging.Scenario{aging.Fresh(), s} {
		if err := sc.span("char.sensitivities", func() error {
			var err error
			sens[i], err = rp.flow.Char.Sensitivities(rp.ctx, sc2)
			return err
		}); err != nil {
			return err
		}
	}
	v := device.DefaultVariation()
	var res *core.MCResult
	if err := sc.span("core.mc_guardband", func() error {
		var err error
		res, err = rp.flow.MCGuardbandNetlist(rp.ctx, req.Circuit, nl, s, core.MCConfig{
			Samples: req.Samples, Seed: req.Seed, Variation: v, Bins: core.DefaultMCBins,
		})
		return err
	}); err != nil {
		return err
	}
	if res.P50S != m.P50S || res.P95S != m.P95S {
		return fmt.Errorf("replayed quantiles %g, %g differ from the reply's %g, %g", res.P50S, res.P95S, m.P50S, m.P95S)
	}
	rp.mu.Lock()
	rp.mcSamples += req.Samples
	rp.mu.Unlock()

	// The per-sample loop of MCGuardbandNetlist, step by step: the
	// instance-variant netlist and its compiled topology, then each
	// sample's fresh and aged libraries and critical paths.
	var insts []char.InstDraw
	var bt *sta.BatchTimer
	if err := sc.span("bench.mc_prepare", func() error {
		vnl := nl.Clone()
		insts = make([]char.InstDraw, len(vnl.Insts))
		for i, in := range vnl.Insts {
			insts[i] = char.InstDraw{Inst: in.Name, Cell: in.Cell}
			in.Cell = char.VariantCell(in.Cell, in.Name)
		}
		tmpl, err := sens[0].SampleLibrary("mc_template", insts)
		if err != nil {
			return err
		}
		bt, err = sta.NewBatchTimer(rp.ctx, vnl, tmpl, rp.flow.STA)
		return err
	}); err != nil {
		return err
	}
	for i := 0; i < min(req.Samples, mcReplaySamples); i++ {
		draws := make([]char.InstDraw, len(insts))
		copy(draws, insts)
		for k := range draws {
			draws[k].Pb = v.Sample(req.Seed, uint64(i), draws[k].Inst)
		}
		var cp [2]float64
		for j, sn := range sens {
			var lib *liberty.Library
			if err := sc.span("char.sample_library", func() error {
				var err error
				lib, err = sn.SampleLibrary(fmt.Sprintf("mc_%d_%d", j, i), draws)
				return err
			}); err != nil {
				return err
			}
			if err := sc.span("sta.batch_cp", func() error {
				var err error
				cp[j], err = bt.CP(rp.ctx, lib)
				return err
			}); err != nil {
				return err
			}
		}
		if got := cp[1] - cp[0]; got != res.Guardbands[i] {
			return fmt.Errorf("replayed sample %d guardband %g differs from %g", i, got, res.Guardbands[i])
		}
	}
	return nil
}
