package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"ageguard/internal/aging"
	"ageguard/internal/conc"
	"ageguard/pkg/ageguard/api"
)

// Batched query planning.
//
// A batch is decomposed into its unique (library, netlist, analyzer)
// subproblems before any work runs: N items that share a scenario cost
// one characterization, not N. The unique fills then fan out over
// internal/conc in two dependency phases — libraries and netlists
// first, analyzers (which consume both) second — each fill going
// through the same LRU + singleflight as single requests, so a batch
// racing single queries or another batch still characterizes once.
// Finally every item is assembled by the unmodified single-request
// handler against the now-warm cache, which is what makes per-item
// batch answers bit-identical to their single-request counterparts by
// construction.
//
// Dedupe extends to whole items, at two levels. Within one batch,
// items with identical requests assemble once and share the resulting
// fragment. Across batches, the marshaled wire fragment of every
// successful item is memoized in the LRU under its full request key,
// and the planner serves a memo hit without registering subproblems or
// re-running assembly — a warm batch is a string of byte copies. The
// fragment is the json.Marshal of the handler's answer, so memoization
// cannot change a single byte on the wire.
//
// Failure is per-item: a subproblem that fails marks exactly the items
// depending on it (with the same status taxonomy single requests use),
// and an item whose dependency already failed is not retried — one bad
// circuit neither fails the batch nor re-runs an expensive fill per
// dependent item. Failed items are never memoized, so transient
// errors (deadlines, cancellations) cannot stick in the cache.

// maxBatchItems bounds one batch request; beyond it the batch itself is
// rejected (400), since an unbounded item list would defeat the
// admission queue, which charges a batch one ticket.
const maxBatchItems = 256

// azNeed is one planned analyzer subproblem and its phase-1 dependency
// keys.
type azNeed struct {
	circuit string
	sc      aging.Scenario
	deps    []string
}

// batchPlan accumulates the deduped subproblems of one batch and, once
// the fills run, which of them failed.
type batchPlan struct {
	libs  map[string]aging.Scenario
	nls   map[string]string
	azs   map[string]azNeed
	skeys map[aging.Scenario]string

	mu   sync.Mutex
	errs map[string]error
}

func newBatchPlan() *batchPlan {
	return &batchPlan{
		libs:  map[string]aging.Scenario{},
		nls:   map[string]string{},
		azs:   map[string]azNeed{},
		skeys: map[aging.Scenario]string{},
		errs:  map[string]error{},
	}
}

// scKey memoizes scenarioKey for the plan's lifetime: planning derives
// the key several times per item (a guardband item alone registers four
// scenario-keyed subproblems), and items overwhelmingly share their few
// distinct scenarios.
func (p *batchPlan) scKey(sc aging.Scenario) string {
	k, ok := p.skeys[sc]
	if !ok {
		k = scenarioKey(sc)
		p.skeys[sc] = k
	}
	return k
}

func (p *batchPlan) addLib(sc aging.Scenario) string {
	k := "lib|" + p.scKey(sc)
	p.libs[k] = sc
	return k
}

func (p *batchPlan) addNetlist(circuit string) string {
	k := "nl|" + circuit
	p.nls[k] = circuit
	return k
}

func (p *batchPlan) addAnalyzer(circuit string, sc aging.Scenario) string {
	libK, nlK := p.addLib(sc), p.addNetlist(circuit)
	k := "az|" + circuit + "|" + p.scKey(sc)
	p.azs[k] = azNeed{circuit: circuit, sc: sc, deps: []string{libK, nlK}}
	return k
}

// unique reports the number of deduped subproblems planned.
func (p *batchPlan) unique() int { return len(p.libs) + len(p.nls) + len(p.azs) }

// fail records a subproblem failure (first error wins).
func (p *batchPlan) fail(key string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.errs[key]; !ok {
		p.errs[key] = err
	}
}

// firstErr returns the error of the first failed dependency, if any.
func (p *batchPlan) firstErr(deps []string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range deps {
		if err, ok := p.errs[d]; ok {
			return err
		}
	}
	return nil
}

// batchItemError maps a handler error onto the wire form, reusing the
// single-request status taxonomy.
func batchItemError(err error) *api.BatchError {
	return &api.BatchError{Status: status(err), Message: err.Error()}
}

// marshalItemResult renders one item result as its wire fragment. A
// marshal failure (NaN leaking into a response, say) degrades to a
// per-item 500 instead of failing the whole batch the way a single
// request would fail its whole reply.
func marshalItemResult(res api.BatchItemResult) json.RawMessage {
	b, err := json.Marshal(res)
	if err != nil {
		b, _ = json.Marshal(api.BatchItemResult{Error: &api.BatchError{
			Status:  http.StatusInternalServerError,
			Message: "marshal item result: " + err.Error(),
		}})
	}
	return b
}

// batchWireResponse is the server-side marshaling shape of
// api.BatchResponse: each item is a pre-marshaled fragment, so a
// memoized item is emitted as a verbatim byte copy instead of being
// re-encoded. The wire bytes are identical to marshaling an
// api.BatchResponse, because every fragment is itself the json.Marshal
// of one api.BatchItemResult. clean reports that no item carries an
// error, which is what gates the whole-reply memo in handleBatch.
type batchWireResponse struct {
	Version string            `json:"version"`
	Items   []json.RawMessage `json:"items"`

	clean bool
}

// body renders the reply byte-for-byte as encoding/json would —
// Version is a separator-free constant and every fragment is already
// compact, escaped JSON — without re-scanning the fragments the way
// Marshal's RawMessage compaction does. A trailing newline matches
// writeJSON.
func (bw batchWireResponse) body() []byte {
	n := len(`{"version":"","items":[]}`) + len(bw.Version) + len(bw.Items) + 1
	for _, f := range bw.Items {
		n += len(f)
	}
	b := make([]byte, 0, n)
	b = append(b, `{"version":"`...)
	b = append(b, bw.Version...)
	b = append(b, `","items":[`...)
	for i, f := range bw.Items {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f...)
	}
	b = append(b, ']', '}', '\n')
	return b
}

// appendWireScenario appends the scenario exactly as requested — the
// response echoes it verbatim, so two requests that resolve to the same
// aging.Scenario but spell it differently (explicit lifetime versus
// defaulted, say) still produce distinct fragments.
func appendWireScenario(b []byte, sc api.Scenario) []byte {
	b = append(b, sc.Kind...)
	b = append(b, '|')
	b = appendHexFloat(b, sc.Years)
	b = append(b, '|')
	b = appendHexFloat(b, sc.LambdaP)
	b = append(b, '|')
	b = appendHexFloat(b, sc.LambdaN)
	return b
}

// batchItemKey identifies one validated batch item's full wire request
// for the fragment memo: every field that can influence the response
// bytes. Floats are hex bit patterns (see scenarioKey). All
// variable-length fields but the cell name are validated against
// closed, separator-free sets before this runs, and the cell name is
// kept last, so distinct requests cannot build colliding keys.
func (s *Server) batchItemKey(it *api.BatchItem) string {
	b := make([]byte, 0, 128)
	b = append(b, "item|"...)
	b = append(b, s.cfgHash...)
	b = append(b, '|')
	b = append(b, it.Kind...)
	b = append(b, '|')
	switch it.Kind {
	case api.BatchGuardband:
		r := it.Guardband
		b = append(b, r.Version...)
		b = append(b, '|')
		b = append(b, r.Circuit...)
		b = append(b, '|')
		b = appendWireScenario(b, r.Scenario)
	case api.BatchCellTiming:
		r := it.CellTiming
		b = append(b, r.Version...)
		b = append(b, '|')
		b = appendWireScenario(b, r.Scenario)
		b = append(b, '|')
		b = appendHexFloat(b, r.InSlewS)
		b = append(b, '|')
		b = appendHexFloat(b, r.LoadF)
		b = append(b, '|')
		b = append(b, r.Cell...)
	case api.BatchPaths:
		r := it.Paths
		b = append(b, r.Version...)
		b = append(b, '|')
		b = append(b, r.Circuit...)
		b = append(b, '|')
		b = appendWireScenario(b, r.Scenario)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(r.K), 10)
	}
	return string(b)
}

// plannedItem is one valid batch item after planning: either frag holds
// its memoized wire fragment, or deps/run describe how to assemble it
// (and key is where the resulting fragment is memoized).
type plannedItem struct {
	key  string
	frag json.RawMessage
	deps []string
	run  func(context.Context) (json.RawMessage, error)
}

// planItem validates one item and either resolves it from the fragment
// memo or registers its subproblems with the plan. Validation mirrors
// the single-request handlers (same helpers, same messages) so an
// invalid item fails identically to its single counterpart — without
// first triggering fills it would never use, and before the memo is
// consulted, so a malformed item can never alias a cached answer.
func (s *Server) planItem(p *batchPlan, it *api.BatchItem) (*plannedItem, error) {
	if err := it.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	switch it.Kind {
	case api.BatchGuardband:
		r := it.Guardband
		if err := checkVersion(r.Version); err != nil {
			return nil, err
		}
		if err := checkCircuit(r.Circuit); err != nil {
			return nil, err
		}
		sc, err := s.resolveScenario(r.Scenario)
		if err != nil {
			return nil, err
		}
		key := s.batchItemKey(it)
		if v, ok := s.cache.peek(key); ok {
			return &plannedItem{frag: v.(json.RawMessage)}, nil
		}
		return &plannedItem{
			key: key,
			deps: []string{
				p.addAnalyzer(r.Circuit, aging.Fresh()),
				p.addAnalyzer(r.Circuit, sc),
			},
			run: func(ctx context.Context) (json.RawMessage, error) {
				v, err := s.guardband(ctx, r)
				if err != nil {
					return nil, err
				}
				g := v.(api.GuardbandResponse)
				return marshalItemResult(api.BatchItemResult{Guardband: &g}), nil
			},
		}, nil
	case api.BatchCellTiming:
		r := it.CellTiming
		if err := checkVersion(r.Version); err != nil {
			return nil, err
		}
		if err := checkTimingPoint(r.InSlewS, r.LoadF); err != nil {
			return nil, err
		}
		sc, err := s.resolveScenario(r.Scenario)
		if err != nil {
			return nil, err
		}
		key := s.batchItemKey(it)
		if v, ok := s.cache.peek(key); ok {
			return &plannedItem{frag: v.(json.RawMessage)}, nil
		}
		return &plannedItem{
			key:  key,
			deps: []string{p.addLib(sc)},
			run: func(ctx context.Context) (json.RawMessage, error) {
				v, err := s.cellTiming(ctx, r)
				if err != nil {
					return nil, err
				}
				c := v.(api.CellTimingResponse)
				return marshalItemResult(api.BatchItemResult{CellTiming: &c}), nil
			},
		}, nil
	case api.BatchPaths:
		r := it.Paths
		if err := checkVersion(r.Version); err != nil {
			return nil, err
		}
		if err := checkCircuit(r.Circuit); err != nil {
			return nil, err
		}
		if _, err := checkPathsK(r.K); err != nil {
			return nil, err
		}
		sc, err := s.resolveScenario(r.Scenario)
		if err != nil {
			return nil, err
		}
		key := s.batchItemKey(it)
		if v, ok := s.cache.peek(key); ok {
			return &plannedItem{frag: v.(json.RawMessage)}, nil
		}
		return &plannedItem{
			key:  key,
			deps: []string{p.addNetlist(r.Circuit), p.addLib(sc)},
			run: func(ctx context.Context) (json.RawMessage, error) {
				v, err := s.paths(ctx, r)
				if err != nil {
					return nil, err
				}
				pr := v.(api.PathsResponse)
				return marshalItemResult(api.BatchItemResult{Paths: &pr}), nil
			},
		}, nil
	}
	return nil, badRequest("unknown batch item kind %q", it.Kind)
}

// fillJob is one unique subproblem fill within a phase.
type fillJob struct {
	key  string
	deps []string
	fn   func(context.Context) error
}

// pendGroup is one deduped unit of assembly work: the item to run and
// every request index that asked for exactly it.
type pendGroup struct {
	it   *plannedItem
	idxs []int
}

// batch answers POST /v1/batch.
func (s *Server) batch(ctx context.Context, req *api.BatchRequest) (any, error) {
	if err := checkVersion(req.Version); err != nil {
		return nil, err
	}
	n := len(req.Items)
	if n == 0 {
		return nil, badRequest("empty batch")
	}
	if n > maxBatchItems {
		return nil, badRequest("batch of %d items exceeds the %d-item limit", n, maxBatchItems)
	}
	s.reg.Counter("serve.batch.items").Add(int64(n))

	plan := newBatchPlan()
	results := make([]json.RawMessage, n)
	var pend []pendGroup
	byKey := map[string]int{}
	var memoHits, itemErrs int64
	for i := range req.Items {
		pi, err := s.planItem(plan, &req.Items[i])
		switch {
		case err != nil:
			results[i] = marshalItemResult(api.BatchItemResult{Error: batchItemError(err)})
			itemErrs++
		case pi.frag != nil:
			results[i] = pi.frag
			memoHits++
		case byKey[pi.key] > 0:
			g := &pend[byKey[pi.key]-1]
			g.idxs = append(g.idxs, i)
		default:
			pend = append(pend, pendGroup{it: pi, idxs: []int{i}})
			byKey[pi.key] = len(pend)
		}
	}
	s.reg.Counter("serve.batch.unique_fills").Add(int64(plan.unique()))
	s.reg.Counter("serve.batch.memo_hits").Add(memoHits)

	// A batch holds a single admission ticket; its unique subproblems
	// fill on all CPUs.
	workers := conc.Workers(0)
	runPhase := func(jobs []fillJob) {
		if len(jobs) == 0 {
			return
		}
		// Errors stay inside the plan: a failed fill must not abort the
		// phase (sibling subproblems serve other items), so every job
		// reports nil to ParFor.
		_ = conc.ParFor(ctx, workers, len(jobs), func(i int) error {
			j := jobs[i]
			if err := plan.firstErr(j.deps); err != nil {
				plan.fail(j.key, err)
				return nil
			}
			if err := j.fn(ctx); err != nil {
				plan.fail(j.key, err)
			}
			return nil
		})
	}

	phase1 := make([]fillJob, 0, len(plan.libs)+len(plan.nls))
	for key, sc := range plan.libs {
		phase1 = append(phase1, fillJob{key: key, fn: func(ctx context.Context) error {
			_, err := s.library(ctx, sc)
			return err
		}})
	}
	for key, circuit := range plan.nls {
		phase1 = append(phase1, fillJob{key: key, fn: func(ctx context.Context) error {
			_, err := s.netlist(ctx, circuit)
			return err
		}})
	}
	runPhase(phase1)

	phase2 := make([]fillJob, 0, len(plan.azs))
	for key, need := range plan.azs {
		phase2 = append(phase2, fillJob{key: key, deps: need.deps, fn: func(ctx context.Context) error {
			_, err := s.analyzer(ctx, need.circuit, need.sc)
			return err
		}})
	}
	runPhase(phase2)

	// Assembly: every surviving group through its single-request handler
	// against the warm cache; successes are memoized for later batches.
	var asmErrs atomic.Int64
	if len(pend) > 0 {
		_ = conc.ParFor(ctx, workers, len(pend), func(gi int) error {
			g := pend[gi]
			var frag json.RawMessage
			if err := plan.firstErr(g.it.deps); err != nil {
				frag = marshalItemResult(api.BatchItemResult{Error: batchItemError(err)})
				asmErrs.Add(int64(len(g.idxs)))
			} else if f, err := g.it.run(ctx); err != nil {
				frag = marshalItemResult(api.BatchItemResult{Error: batchItemError(err)})
				asmErrs.Add(int64(len(g.idxs)))
			} else {
				frag = f
				s.cache.put(g.it.key, frag)
			}
			for _, i := range g.idxs {
				results[i] = frag
			}
			return nil
		})
	}
	// A canceled assembly can leave groups unrun; every item still gets
	// a result, carrying the cancellation's status.
	if err := ctx.Err(); err != nil {
		for _, g := range pend {
			if results[g.idxs[0]] == nil {
				frag := marshalItemResult(api.BatchItemResult{Error: batchItemError(err)})
				asmErrs.Add(int64(len(g.idxs)))
				for _, i := range g.idxs {
					results[i] = frag
				}
			}
		}
	}
	totalErrs := itemErrs + asmErrs.Load()
	s.reg.Counter("serve.batch.item_errors").Add(totalErrs)
	return batchWireResponse{Version: api.APIVersion, Items: results, clean: totalErrs == 0}, nil
}
