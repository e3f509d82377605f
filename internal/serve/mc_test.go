package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ageguard/internal/core"
	"ageguard/internal/device"
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

// TestMCMissReusesResidentBases: once the guardband of a circuit and
// scenario is warm, its fresh and aged libraries are resident, and a
// Monte Carlo miss takes its sensitivities around them from the two
// scenarios' sensitivity files: it loads no library from the disk cache
// (char.cache.hits stays; eight loads before the files, ten before the
// bases were passed in) and reads two files (char.sens.hits moves by
// 2). The reply equals core.Flow.MCGuardbandNetlist's for the same
// circuit, scenario and seed in all 64 bits of every number.
func TestMCMissReusesResidentBases(t *testing.T) {
	cfg := quickConfig(sharedDir(t))
	s := New(cfg, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gb, err := http.Post(ts.URL+"/v1/guardband", "application/json",
		strings.NewReader(`{"circuit":"RISC-5P","scenario":{"kind":"worst"}}`))
	if err != nil {
		t.Fatal(err)
	}
	gb.Body.Close()
	if gb.StatusCode != http.StatusOK {
		t.Fatalf("guardband status %d", gb.StatusCode)
	}
	// A first query puts both sensitivity files on disk, so the
	// measured one finds them there.
	postMC(t, ts.URL, `{"circuit":"RISC-5P","scenario":{"kind":"worst"},"samples":4,"seed":1,"bins":8}`)
	counter := func(name string) int64 { return s.Registry().Snapshot().Counters[name] }
	libs, files := counter("char.cache.hits"), counter("char.sens.hits")
	raw := postMC(t, ts.URL, `{"circuit":"RISC-5P","scenario":{"kind":"worst"},"samples":6,"seed":2,"bins":8}`)
	if d := counter("char.cache.hits") - libs; d != 0 {
		t.Errorf("a Monte Carlo miss loaded %d libraries from the disk cache, want none", d)
	}
	if d := counter("char.sens.hits") - files; d != 2 {
		t.Errorf("a Monte Carlo miss read %d sensitivity files, want the fresh and the aged one", d)
	}

	var got api.MCGuardbandResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	sc, err := s.resolveScenario(api.Scenario{Kind: "worst"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	nl, err := cfg.Flow.SynthesizeTraditional(ctx, testCircuit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cfg.Flow.MCGuardbandNetlist(ctx, testCircuit, nl, sc, core.MCConfig{
		Samples: 6, Seed: 2, Variation: device.DefaultVariation(), Bins: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"fresh_cp_s", got.FreshCPs, want.FreshCPS},
		{"aged_cp_s", got.AgedCPs, want.AgedCPS},
		{"mean_s", got.MeanS, want.MeanS},
		{"std_s", got.StdS, want.StdS},
		{"p50_s", got.P50S, want.P50S},
		{"p95_s", got.P95S, want.P95S},
		{"p999_s", got.P999S, want.P999S},
		{"min_s", got.MinS, want.MinS},
		{"max_s", got.MaxS, want.MaxS},
		{"hist.lo_s", got.Hist.LoS, want.Hist.LoS},
		{"hist.hi_s", got.Hist.HiS, want.Hist.HiS},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s = %v, MCGuardbandNetlist gives %v", f.name, f.got, f.want)
		}
	}
	if !slices.Equal(got.Hist.Counts, want.Hist.Counts) {
		t.Errorf("histogram %v, MCGuardbandNetlist gives %v", got.Hist.Counts, want.Hist.Counts)
	}
}

// copyCache copies the regular files of the disk cache src into dst, so
// a test can damage its own copy.
func copyCache(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || strings.Contains(e.Name(), ".tmp") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScrubQuarantinesCorruptSensitivityFile: one scrub pass quarantines
// a sensitivity file with a flipped byte. The next Monte Carlo miss
// builds the scenario's sensitivities from the perturbed libraries again,
// writes the file back byte for byte, and answers with the reply of a
// server whose files are intact.
func TestScrubQuarantinesCorruptSensitivityFile(t *testing.T) {
	const (
		first  = `{"circuit":"RISC-5P","scenario":{"kind":"worst"},"samples":4,"seed":11,"bins":8}`
		second = `{"circuit":"RISC-5P","scenario":{"kind":"worst"},"samples":4,"seed":12,"bins":8}`
	)
	ref := New(quickConfig(sharedDir(t)), nil)
	rts := httptest.NewServer(ref.Handler())
	defer rts.Close()
	postMC(t, rts.URL, first)
	want := postMC(t, rts.URL, second)

	dir := t.TempDir()
	copyCache(t, sharedDir(t), dir)
	s := New(quickConfig(dir), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postMC(t, ts.URL, first)
	counter := func(name string) int64 { return s.Registry().Snapshot().Counters[name] }
	if n := counter("char.sens.hits"); n != 2 {
		t.Fatalf("char.sens.hits = %d after the first query, want 2", n)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.asens"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("%d sensitivity files, want the fresh and the worst-case one", len(files))
	}
	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := slices.Clone(good)
	bad[len(bad)/2] ^= 0x08
	if err := os.WriteFile(files[0], bad, 0o644); err != nil {
		t.Fatal(err)
	}

	s.scrubPass(context.Background())
	if n := counter("serve.scrub.quarantined"); n != 1 {
		t.Errorf("serve.scrub.quarantined = %d, want 1", n)
	}
	if _, err := os.Stat(files[0] + quarantineSuffix); err != nil {
		t.Errorf("the corrupt sensitivity file was not quarantined: %v", err)
	}

	if got := postMC(t, ts.URL, second); string(got) != string(want) {
		t.Errorf("reply after the rebuild differs from an intact server's:\ngot  %s\nwant %s", got, want)
	}
	if n := counter("char.sens.misses"); n != 1 {
		t.Errorf("char.sens.misses = %d, want 1 (the quarantined file)", n)
	}
	if rebuilt, err := os.ReadFile(files[0]); err != nil || !slices.Equal(rebuilt, good) {
		t.Errorf("the sensitivity file was not rebuilt byte for byte (%v)", err)
	}
}
