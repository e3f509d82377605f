package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"ageguard/internal/obs"
	"ageguard/pkg/ageguard/api"
)

// rawBatch encodes items the way a client does and wraps them in the
// server-side decode shape.
func rawBatch(t *testing.T, items []api.BatchItem) *batchRequest {
	t.Helper()
	req := &batchRequest{Version: api.APIVersion}
	for _, it := range items {
		b, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		req.Items = append(req.Items, b)
	}
	return req
}

// runBatch answers items through s.batch and decodes the reply into the
// public wire type, the way a client would. It also asserts that the
// hand-rendered reply is byte-equal to encoding/json's rendering of the
// decoded api.BatchResponse.
func runBatch(t *testing.T, s *Server, items []api.BatchItem) api.BatchResponse {
	t.Helper()
	body, _, err := s.batch(context.Background(), rawBatch(t, items))
	if err != nil {
		t.Fatal(err)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(want, '\n')) {
		t.Errorf("reply differs from encoding/json's rendering:\n got %s\nwant %s", body, want)
	}
	return resp
}

func worstSc() api.Scenario { return api.Scenario{Kind: "worst", Years: 10} }

// testBatchItems is the canonical 12-item heterogeneous batch the batch
// tests share: heavy duplication on purpose, so the count of unique
// fills (3 libraries: fresh/worst/balance, 1 compiled netlist, 3
// critical paths, 1 paths response) is far below the item count.
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

	run := func() api.BatchResponse {
		t.Helper()
		resp := runBatch(t, s, testBatchItems())
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
		t.Errorf("cold batch misses = %d, want 8 (3 libs + 1 compiled netlist + 3 CPs + 1 paths response)", got)
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
	resp := runBatch(t, s, items)
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
	if _, _, err := s.batch(ctx, &batchRequest{}); status(err) != 400 {
		t.Errorf("empty batch: err = %v, want 400", err)
	}
	bad := rawBatch(t, testBatchItems())
	bad.Version = "v9"
	if _, _, err := s.batch(ctx, bad); status(err) != 400 {
		t.Errorf("bad version: want 400")
	}
	big := make([]api.BatchItem, maxBatchItems+1)
	for i := range big {
		big[i] = api.PathsItem(api.PathsRequest{Circuit: testCircuit, Scenario: worstSc()})
	}
	if _, _, err := s.batch(ctx, rawBatch(t, big)); status(err) != 400 {
		t.Errorf("oversized batch: want 400")
	}
}

func TestBatchBitIdenticalToSingles(t *testing.T) {
	// Two daemons over the same disk cache: one answers the batch, the
	// other answers each item as a single request. Per-item payloads must
	// match bit for bit, on the cold batch and on its warm repeat (served
	// from the item-fragment memo). A duty-cycle scenario and a second
	// cell join the canonical items, so a float-keyed scenario goes
	// through the batch path too.
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

	memoHits := func() int64 { return batched.Registry().Snapshot().Counters["serve.batch.memo_hits"] }
	for _, lap := range []string{"cold", "warm"} {
		hits0 := memoHits()
		resp := runBatch(t, batched, items)
		for i, it := range items {
			var want any
			var err error
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
		// Duplicate items may already hit the memo on the cold lap, once an
		// earlier copy has answered; on the warm lap every item must.
		if got := memoHits() - hits0; lap == "warm" && got != int64(len(items)) {
			t.Errorf("warm lap added %d batch.memo_hits, want %d (every item from the memo)", got, len(items))
		}
	}
}

// TestBatchFailedFillRunsOnce: a fill that failed is not re-run by the
// later items of the same batch. Every library fill of this daemon
// fails at once (its cell list names no known cell), and eight
// cell-timing items that differ only in slew all need the one library.
func TestBatchFailedFillRunsOnce(t *testing.T) {
	cfg := quickConfig(t.TempDir())
	cfg.Flow.Char.Cells = []string{"NO_SUCH_CELL"}
	s := New(cfg, nil)
	items := make([]api.BatchItem, 8)
	for i := range items {
		items[i] = api.CellTimingItem(api.CellTimingRequest{
			Cell: "INV_X1", Scenario: worstSc(), InSlewS: float64(i+1) * 10e-12, LoadF: 2e-15,
		})
	}
	resp := runBatch(t, s, items)
	for i, it := range resp.Items {
		if it.Error == nil || it.Error.Status != 500 {
			t.Errorf("item %d: error = %+v, want status 500", i, it.Error)
		}
	}
	if got := s.Registry().Snapshot().Counters["serve.cache.misses"]; got != 1 {
		t.Errorf("cache misses = %d, want 1 (the failed library fill is not re-run)", got)
	}
}
