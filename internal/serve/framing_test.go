package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ageguard/internal/aging"
	"ageguard/pkg/ageguard/api"
)

// TestReplyFraming: every /v1 reply leaves through one writer, so each
// one — single or batch, fresh or replayed from the whole-batch memo,
// success or error, admission's 429 and 504 included — carries a
// Content-Length equal to its body's length (no chunked framing) and a
// body checksum that verifies, and a reply that fails to render is a
// JSON ErrorResponse 500. /v1/paths renders past net/http's 2 KB
// buffer, which is sent chunked unless the length is set. /v1/grid is
// sent a bad request: a good one characterizes 121 libraries, which
// serve-smoke covers.
func TestReplyFraming(t *testing.T) {
	s := New(quickConfig(sharedDir(t)), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(url, path, body string, want int) *http.Response {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d: %s", path, body, resp.StatusCode, want, raw)
		}
		if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) > 0 {
			t.Errorf("%s %s: Content-Length %d, transfer encoding %v, for a %d-byte body",
				path, body, resp.ContentLength, resp.TransferEncoding, len(raw))
		}
		if sum := resp.Header.Get(api.BodySumHeader); sum != api.BodySum(raw) {
			t.Errorf("%s %s: checksum %q does not verify", path, body, sum)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", path, body, ct)
		}
		if want != http.StatusOK {
			var er api.ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Version != api.APIVersion || er.Error == "" {
				t.Errorf("%s %s: error body %q is not an ErrorResponse", path, body, raw)
			}
		}
		return resp
	}

	const gb = `{"circuit":"RISC-5P","scenario":{"kind":"worst"}}`
	check(ts.URL, "/v1/guardband", gb, http.StatusOK)
	check(ts.URL, "/v1/celltiming",
		`{"cell":"INV_X1","scenario":{"kind":"worst"},"in_slew_s":2e-11,"load_f":2e-15}`, http.StatusOK)
	for _, k := range []int{1, 5, 20} {
		check(ts.URL, "/v1/paths",
			fmt.Sprintf(`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"k":%d}`, k), http.StatusOK)
	}
	check(ts.URL, "/v1/mcguardband",
		`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"samples":6,"seed":42,"bins":8}`, http.StatusOK)
	const batch = `{"items":[{"kind":"guardband","guardband":` + gb + `},` +
		`{"kind":"paths","paths":{"circuit":"RISC-5P","scenario":{"kind":"worst"},"k":5}}]}`
	check(ts.URL, "/v1/batch", batch, http.StatusOK)
	hits := s.Registry().Snapshot().Counters["serve.batch.body_hits"]
	check(ts.URL, "/v1/batch", batch, http.StatusOK)
	if got := s.Registry().Snapshot().Counters["serve.batch.body_hits"]; got != hits+1 {
		t.Errorf("repeated batch: serve.batch.body_hits %d -> %d, want a memo hit", hits, got)
	}
	check(ts.URL, "/v1/grid", `{"circuit":"RISC-5P","years":-5}`, http.StatusBadRequest)
	check(ts.URL, "/v1/guardband", `{"circuit":"Z80","scenario":{"kind":"worst"}}`, http.StatusNotFound)

	// A library with NaN delays renders a NaN, which JSON cannot carry.
	sc := aging.WorstCase(10).WithLambda(0.3, 0.7)
	nan := delayOnlyLibrary(sc)
	for _, tb := range nan.Cells["BUF_D"].Arcs[0].Delay {
		for _, row := range tb.Values {
			for j := range row {
				row[j] = math.NaN()
			}
		}
	}
	s.cache.put("lib|"+sc.ExactKey(), nan)
	check(ts.URL, "/v1/celltiming",
		`{"cell":"BUF_D","scenario":{"kind":"duty","lambda_p":0.3,"lambda_n":0.7},"in_slew_s":2e-11,"load_f":2e-15}`,
		http.StatusInternalServerError)

	// Every admission ticket taken: the next request is shed.
	for range cap(s.queue) {
		s.queue <- struct{}{}
	}
	if ra := check(ts.URL, "/v1/guardband", gb, http.StatusTooManyRequests).Header.Get("Retry-After"); ra != "1" {
		t.Errorf("429: Retry-After %q, want 1", ra)
	}
	for range cap(s.queue) {
		<-s.queue
	}

	// Every work slot taken: the request's deadline expires in the queue.
	cfg := quickConfig(sharedDir(t))
	cfg.RequestTimeout = 20 * time.Millisecond
	busy := New(cfg, nil)
	tsBusy := httptest.NewServer(busy.Handler())
	defer tsBusy.Close()
	for range cap(busy.slots) {
		busy.slots <- struct{}{}
	}
	check(tsBusy.URL, "/v1/guardband", gb, http.StatusGatewayTimeout)
}
