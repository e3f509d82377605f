package serve

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"ageguard/internal/obs"
	"ageguard/pkg/ageguard/api"
)

// decodeBatch round-trips a batch handler result through JSON into the
// public wire type — the handler returns a pre-marshaled internal
// shape, and decoding it the way a client would also asserts the two
// stay wire-compatible.
func decodeBatch(t *testing.T, v any) api.BatchResponse {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func worstSc() api.Scenario { return api.Scenario{Kind: "worst", Years: 10} }

// testBatchItems is the canonical 12-item heterogeneous batch the
// planner tests share: heavy duplication on purpose, so the planned
// subproblem count (3 libraries: fresh/worst/balance, 1 netlist, 3
// analyzers) is far below the item count.
func testBatchItems() []api.BatchItem {
	gb := func(sc api.Scenario) api.BatchItem {
		return api.GuardbandItem(api.GuardbandRequest{Circuit: testCircuit, Scenario: sc})
	}
	ct := api.CellTimingItem(api.CellTimingRequest{
		Cell: "INV_X1", Scenario: worstSc(), InSlewS: 20e-12, LoadF: 2e-15,
	})
	ps := api.PathsItem(api.PathsRequest{Circuit: testCircuit, Scenario: worstSc(), K: 3})
	bal := api.Scenario{Kind: "balance", Years: 10}
	return []api.BatchItem{
		gb(worstSc()), gb(worstSc()), gb(worstSc()), gb(worstSc()),
		gb(bal), gb(bal),
		ct, ct, ct,
		ps, ps, ps,
	}
}

func TestBatchPlannerDedupes(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(quickConfig(sharedDir(t)), reg)
	ctx := context.Background()

	run := func() api.BatchResponse {
		t.Helper()
		v, err := s.batch(ctx, &api.BatchRequest{Version: api.APIVersion, Items: testBatchItems()})
		if err != nil {
			t.Fatal(err)
		}
		resp := decodeBatch(t, v)
		if len(resp.Items) != 12 {
			t.Fatalf("got %d results, want 12", len(resp.Items))
		}
		for i, it := range resp.Items {
			if it.Error != nil {
				t.Fatalf("item %d failed: %+v", i, it.Error)
			}
		}
		return resp
	}
	run()
	snap := s.reg.Snapshot()
	if got := snap.Counters["serve.cache.misses"]; got != 8 {
		t.Errorf("cold batch misses = %d, want 8 (3 libs + 1 netlist + 3 analyzers + 1 paths response)", got)
	}
	if got := snap.Counters["serve.batch.unique_fills"]; got != 7 {
		t.Errorf("batch.unique_fills = %d, want 7", got)
	}
	if got := snap.Counters["serve.batch.items"]; got != 12 {
		t.Errorf("batch.items = %d, want 12", got)
	}

	run() // warm repeat: every subproblem must hit
	snap = s.reg.Snapshot()
	if got := snap.Counters["serve.cache.misses"]; got != 8 {
		t.Errorf("warm repeat added misses: %d total, want still 8", got)
	}
	if got := snap.Counters["serve.batch.item_errors"]; got != 0 {
		t.Errorf("batch.item_errors = %d, want 0", got)
	}
}

func TestBatchPerItemErrorIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(quickConfig(sharedDir(t)), reg)
	items := []api.BatchItem{
		api.CellTimingItem(api.CellTimingRequest{
			Cell: "INV_X1", Scenario: api.Scenario{Kind: "fresh"}, InSlewS: 20e-12, LoadF: 2e-15,
		}),
		api.GuardbandItem(api.GuardbandRequest{Circuit: "NOPE", Scenario: worstSc()}),
		api.PathsItem(api.PathsRequest{Circuit: testCircuit, Scenario: worstSc(), K: -1}),
		{Kind: api.BatchGuardband, Paths: &api.PathsRequest{}}, // payload does not match kind
		{Kind: "bogus"},
	}
	v, err := s.batch(context.Background(), &api.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	resp := decodeBatch(t, v)
	if e := resp.Items[0].Error; e != nil || resp.Items[0].CellTiming == nil {
		t.Errorf("valid item failed alongside bad siblings: %+v", e)
	}
	wantStatus := []int{0, 404, 400, 400, 400}
	for i := 1; i < len(items); i++ {
		e := resp.Items[i].Error
		if e == nil || e.Status != wantStatus[i] {
			t.Errorf("item %d: error = %+v, want status %d", i, e, wantStatus[i])
		}
	}
	if got := reg.Snapshot().Counters["serve.batch.item_errors"]; got != 4 {
		t.Errorf("batch.item_errors = %d, want 4", got)
	}
}

func TestBatchRejectsMalformedRequests(t *testing.T) {
	s := New(quickConfig(sharedDir(t)), nil)
	ctx := context.Background()
	if _, err := s.batch(ctx, &api.BatchRequest{}); status(err) != 400 {
		t.Errorf("empty batch: err = %v, want 400", err)
	}
	if _, err := s.batch(ctx, &api.BatchRequest{Version: "v9",
		Items: testBatchItems()}); status(err) != 400 {
		t.Errorf("bad version: want 400")
	}
	big := make([]api.BatchItem, maxBatchItems+1)
	for i := range big {
		big[i] = api.PathsItem(api.PathsRequest{Circuit: testCircuit, Scenario: worstSc()})
	}
	if _, err := s.batch(ctx, &api.BatchRequest{Items: big}); status(err) != 400 {
		t.Errorf("oversized batch: want 400")
	}
}

func TestBatchBitIdenticalToSingles(t *testing.T) {
	// Two daemons over the same disk cache: one answers the batch, the
	// other answers each item as a single request. Per-item payloads must
	// match bit for bit, on the cold batch and on its warm repeat (served
	// from the item-fragment memo). A duty-cycle scenario and a second
	// cell join the canonical items, so a float-keyed scenario goes
	// through the planner too.
	dir := sharedDir(t)
	single := New(quickConfig(dir), nil)
	batched := New(quickConfig(dir), nil)
	ctx := context.Background()
	duty := api.Scenario{Kind: "duty", Years: 10, LambdaP: 0.25, LambdaN: 0.75}
	items := append(testBatchItems(),
		api.GuardbandItem(api.GuardbandRequest{Circuit: testCircuit, Scenario: duty}),
		api.CellTimingItem(api.CellTimingRequest{
			Cell: "NAND2_X1", Scenario: duty, InSlewS: 20e-12, LoadF: 2e-15,
		}))

	for _, lap := range []string{"cold", "warm"} {
		v, err := batched.batch(ctx, &api.BatchRequest{Items: items})
		if err != nil {
			t.Fatal(err)
		}
		resp := decodeBatch(t, v)
		for i, it := range items {
			var want any
			switch it.Kind {
			case api.BatchGuardband:
				want, err = single.guardband(ctx, it.Guardband)
			case api.BatchCellTiming:
				want, err = single.cellTiming(ctx, it.CellTiming)
			case api.BatchPaths:
				want, err = single.paths(ctx, it.Paths)
			}
			if err != nil {
				t.Fatalf("single %s: %v", it.Kind, err)
			}
			var got any
			res := resp.Items[i]
			switch {
			case res.Guardband != nil:
				got = *res.Guardband
			case res.CellTiming != nil:
				got = *res.CellTiming
			case res.Paths != nil:
				got = *res.Paths
			default:
				t.Fatalf("%s item %d: no payload, error %+v", lap, i, res.Error)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s item %d (%s): batch answer differs from single\n batch:  %+v\n single: %+v",
					lap, i, it.Kind, got, want)
			}
		}
	}
	if got := batched.Registry().Snapshot().Counters["serve.batch.memo_hits"]; got != int64(len(items)) {
		t.Errorf("batch.memo_hits = %d, want %d (every warm item from the memo)", got, len(items))
	}
}
