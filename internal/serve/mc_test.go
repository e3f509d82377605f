package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ageguard/pkg/ageguard/api"
)

// postMC posts one /v1/mcguardband request and returns the raw body.
func postMC(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/mcguardband", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if sum := resp.Header.Get(api.BodySumHeader); sum != api.BodySum(raw) {
		t.Fatalf("body checksum mismatch")
	}
	return raw
}

// TestMCGuardbandDeterministicAndMemoized asserts the endpoint's two
// determinism layers: a warm repeat on the same server replays the LRU'd
// distribution byte-identically, and a fresh server instance — empty
// in-memory caches, same configuration — recomputes the identical bytes
// (the counter-based sample streams make the whole pipeline a pure
// function of the request). A second spelling of the same scenario hits
// the entry the first one filled, and its reply echoes its own spelling:
// it equals a fresh server's reply to it.
func TestMCGuardbandDeterministicAndMemoized(t *testing.T) {
	dir := sharedDir(t)
	const body = `{"circuit":"RISC-5P","scenario":{"kind":"worst"},"samples":6,"seed":42,"bins":8}`

	s1 := New(quickConfig(dir), nil)
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()

	cold := postMC(t, ts1.URL, body)
	missesAfterCold := s1.Registry().Snapshot().Counters["serve.cache.misses"]
	warm := postMC(t, ts1.URL, body)
	if string(cold) != string(warm) {
		t.Errorf("warm body differs from cold:\ncold %s\nwarm %s", cold, warm)
	}
	if got := s1.Registry().Snapshot().Counters["serve.cache.misses"]; got != missesAfterCold {
		t.Errorf("warm repeat missed the cache (%d -> %d misses)", missesAfterCold, got)
	}

	s2 := New(quickConfig(dir), nil)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	recomputed := postMC(t, ts2.URL, body)
	if string(cold) != string(recomputed) {
		t.Errorf("fresh server recomputed different bytes:\nfirst  %s\nsecond %s", cold, recomputed)
	}

	const spelled = `{"circuit":"RISC-5P","scenario":{"kind":"worst","years":10},"samples":6,"seed":42,"bins":8}`
	warmSpelled := postMC(t, ts1.URL, spelled)
	if got := s1.Registry().Snapshot().Counters["serve.cache.misses"]; got != missesAfterCold {
		t.Errorf("second spelling of the scenario missed the cache (%d -> %d misses)", missesAfterCold, got)
	}
	s3 := New(quickConfig(dir), nil)
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	if coldSpelled := postMC(t, ts3.URL, spelled); string(warmSpelled) != string(coldSpelled) {
		t.Errorf("warm reply to the second spelling differs from a fresh server's:\nwarm %s\ncold %s", warmSpelled, coldSpelled)
	}

	// A different seed must give a different distribution (the parameters
	// really reach the sampler).
	other := postMC(t, ts1.URL,
		`{"circuit":"RISC-5P","scenario":{"kind":"worst"},"samples":6,"seed":43,"bins":8}`)
	if string(other) == string(cold) {
		t.Error("seed 43 reproduced seed 42's distribution")
	}
}
