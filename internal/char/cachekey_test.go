package char

import (
	"bytes"
	"context"
	"os"
	"slices"
	"strings"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
)

// TestScenarioKeyExactCacheEntries: scenarios whose library names round
// together — duty cycles 0.25/0.75 and 0.2/0.8, worst case at 10 and at
// 10.04 years — each get their own cache entry and flight. Characterized
// one after the other into one cache directory, each returns its own
// library, byte-identical to an uncached characterization, and a second
// pass reads every one back from its own entry. An entry whose file was
// copied over another scenario's name is a miss.
func TestScenarioKeyExactCacheEntries(t *testing.T) {
	ctx := context.Background()
	uncached := TestConfig()
	uncached.Cells = []string{"INV_X1"}
	cached := uncached
	cached.CacheDir = t.TempDir()
	worst := aging.WorstCase(10)
	scens := []aging.Scenario{
		worst.WithLambda(0.25, 0.75), worst.WithLambda(0.2, 0.8),
		worst, aging.WorstCase(10.04),
	}
	want := make([][]byte, len(scens))
	for i, s := range scens {
		if uncached.libName(s) != uncached.libName(scens[i^1]) {
			t.Fatalf("%#v and %#v: the pair should share a library name", s, scens[i^1])
		}
		lib, err := uncached.Characterize(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = libBytes(t, lib)
	}
	for pass := range 2 {
		for i, s := range scens {
			lib, err := cached.Characterize(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if lib.Scenario != s {
				t.Errorf("pass %d: %#v answered with the library of %#v", pass, s, lib.Scenario)
			}
			if !bytes.Equal(libBytes(t, lib), want[i]) {
				t.Errorf("pass %d: %#v differs from its uncached characterization", pass, s)
			}
		}
	}
	entries, err := cached.CacheEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(scens) {
		t.Errorf("%d cache entries for %d scenarios: %v", len(entries), len(scens), entries)
	}

	// An entry copied over another scenario's name is a miss, not that
	// scenario's library.
	data, err := os.ReadFile(cached.cachePath(scens[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cached.cachePath(scens[1]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	lib, err := cached.Characterize(obs.With(ctx, reg), scens[1])
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("char.cache.misses").Value(); n != 1 || !bytes.Equal(libBytes(t, lib), want[1]) {
		t.Errorf("copied entry: %d misses, library of %#v, want a miss and %#v's own library", n, lib.Scenario, scens[1])
	}
}

func libBytes(t *testing.T, lib *liberty.Library) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := liberty.Write(&b, lib); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestScenarioKeyOldNamesNotListed: CacheEntries decides from the name
// alone. A directory holding a scenario's entry, a copy of it under the
// name entries had before the exact scenario key (no "_s<exact key>"
// segment) and the scenario's sensitivity file lists the entry once.
func TestScenarioKeyOldNamesNotListed(t *testing.T) {
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = t.TempDir()
	s := aging.WorstCase(10)
	if _, err := cfg.Characterize(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	path := cfg.cachePath(s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(path, "_s"+s.ExactKey(), "", 1)
	if old == path {
		t.Fatalf("%s has no exact-key segment", path)
	}
	for _, p := range []string{old, cfg.sensPath(s)} {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := cfg.CacheEntries()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(entries, []string{path}) {
		t.Errorf("CacheEntries = %v, want only %s", entries, path)
	}
}
