package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ageguard/pkg/ageguard/api"
)

func gbItem(circuit string) api.BatchItem {
	return api.GuardbandItem(api.GuardbandRequest{
		Circuit: circuit, Scenario: api.Scenario{Kind: "worst", Years: 10},
	})
}

func gbResult(circuit string) api.BatchItemResult {
	return api.BatchItemResult{Guardband: &api.GuardbandResponse{
		Version: api.APIVersion, Circuit: circuit,
		FreshCPs: 1e-9, AgedCPs: 1.2e-9, GuardbandS: 0.2e-9,
	}}
}

// TestBatchRetriesOnlyFailedItems: a three-item batch where the first
// exchange answers item 0, fails item 1 with a retryable 503 and item 2
// with a terminal 400. The follow-up sub-batch must contain only item 1
// — not the succeeded item, not the terminally failed one — and the
// merged response keeps every item in input order.
func TestBatchRetriesOnlyFailedItems(t *testing.T) {
	var mu sync.Mutex
	var calls [][]string // circuits seen per exchange
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		mu.Lock()
		var circuits []string
		for _, it := range req.Items {
			circuits = append(circuits, it.Guardband.Circuit)
		}
		calls = append(calls, circuits)
		first := len(calls) == 1
		mu.Unlock()

		res := make([]api.BatchItemResult, len(req.Items))
		for i, it := range req.Items {
			switch {
			case first && it.Guardband.Circuit == "FLAKY":
				res[i] = api.BatchItemResult{Error: &api.BatchError{Status: 503, Message: "warming"}}
			case it.Guardband.Circuit == "NOPE":
				res[i] = api.BatchItemResult{Error: &api.BatchError{Status: 400, Message: "bad"}}
			default:
				res[i] = gbResult(it.Guardband.Circuit)
			}
		}
		json.NewEncoder(w).Encode(api.BatchResponse{Version: api.APIVersion, Items: res})
	}))
	defer srv.Close()

	tm := newTestMetrics()
	cl := New(srv.URL,
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}),
		WithMetrics(tm))
	resp, err := cl.Batch(context.Background(),
		[]api.BatchItem{gbItem("OK"), gbItem("FLAKY"), gbItem("NOPE")})
	if err != nil {
		t.Fatal(err)
	}

	if r := resp.Items[0]; r.Error != nil || r.Guardband == nil || r.Guardband.Circuit != "OK" {
		t.Errorf("item 0 = %+v, want clean OK answer", r)
	}
	if r := resp.Items[1]; r.Error != nil || r.Guardband == nil || r.Guardband.Circuit != "FLAKY" {
		t.Errorf("item 1 = %+v, want recovered FLAKY answer", r)
	}
	if r := resp.Items[2]; r.Error == nil || r.Error.Status != 400 {
		t.Errorf("item 2 = %+v, want terminal 400 kept as-is", r)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 {
		t.Fatalf("server saw %d exchanges, want 2: %v", len(calls), calls)
	}
	if len(calls[1]) != 1 || calls[1][0] != "FLAKY" {
		t.Errorf("re-dispatch carried %v, want only FLAKY", calls[1])
	}
	if tm.get("client.batch.requests") != 1 || tm.get("client.batch.items") != 3 {
		t.Errorf("request metrics = %v", tm.m)
	}
	if tm.get("client.batch.redispatches") != 1 || tm.get("client.batch.item_retries") != 1 {
		t.Errorf("retry metrics = %v", tm.m)
	}
}

// TestBatchStopsAfterRetryBudget: an item that never recovers is
// re-dispatched at most MaxAttempts-1 times and keeps its last error.
func TestBatchStopsAfterRetryBudget(t *testing.T) {
	var calls int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		var req api.BatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		res := make([]api.BatchItemResult, len(req.Items))
		for i := range res {
			res[i] = api.BatchItemResult{Error: &api.BatchError{Status: 503, Message: "down"}}
		}
		json.NewEncoder(w).Encode(api.BatchResponse{Version: api.APIVersion, Items: res})
	}))
	defer srv.Close()

	cl := New(srv.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}))
	resp, err := cl.Batch(context.Background(), []api.BatchItem{gbItem("DSP")})
	if err != nil {
		t.Fatal(err)
	}
	if e := resp.Items[0].Error; e == nil || e.Status != 503 {
		t.Errorf("item 0 = %+v, want the 503 it never recovered from", resp.Items[0])
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Errorf("server saw %d exchanges, want 2 (MaxAttempts)", calls)
	}
}

// TestBatchResultCountMismatchIsIntegrityError: a reply with the wrong
// number of results is corruption, not something to merge.
func TestBatchResultCountMismatchIsIntegrityError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.BatchResponse{Version: api.APIVersion,
			Items: []api.BatchItemResult{gbResult("DSP")}})
	}))
	defer srv.Close()

	_, err := New(srv.URL).Batch(context.Background(),
		[]api.BatchItem{gbItem("DSP"), gbItem("FFT")})
	if _, ok := err.(*IntegrityError); !ok {
		t.Errorf("err = %v, want *IntegrityError", err)
	}
}

func TestBatchRejectsEmptyInput(t *testing.T) {
	if _, err := New("http://127.0.0.1:0").Batch(context.Background(), nil); err == nil {
		t.Error("empty batch accepted")
	}
}
