package serve

import (
	"context"
	"math"
	"strings"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/pkg/ageguard/api"
)

// delayOnlyLibrary builds a single-cell library whose only arc carries
// delay tables but no output-slew tables — legal per the .alib format,
// which serializes OutSlew only when present.
func delayOnlyLibrary(sc aging.Scenario) *liberty.Library {
	slews := []float64{10e-12, 40e-12}
	loads := []float64{1e-15, 4e-15}
	mk := func(v float64) *liberty.Table {
		t := liberty.NewTable(slews, loads)
		for i := range t.Values {
			for j := range t.Values[i] {
				t.Values[i][j] = v
			}
		}
		return t
	}
	return &liberty.Library{
		Name: "delayonly", Scenario: sc, Vdd: 1.1, Slews: slews, Loads: loads,
		Cells: map[string]*liberty.CellTiming{
			"BUF_D": {
				Name: "BUF_D", Inputs: []string{"A"}, Output: "Z",
				Arcs: []liberty.Arc{{
					Pin:   "A",
					Delay: [2]*liberty.Table{mk(30e-12), mk(35e-12)},
				}},
			},
		},
	}
}

func TestCellTimingDelayOnlyArcDoesNotPanic(t *testing.T) {
	// cellTiming used to dereference arc.OutSlew[edge] after nil-checking
	// only arc.Delay[edge]; a delay-only arc panicked the handler.
	s := New(quickConfig(sharedDir(t)), nil)
	sc := aging.Fresh()
	s.cache.put("lib|"+scenarioKey(sc), delayOnlyLibrary(sc))

	v, err := s.cellTiming(context.Background(), &api.CellTimingRequest{
		Cell:     "BUF_D",
		Scenario: api.Scenario{Kind: "fresh"},
		InSlewS:  20e-12,
		LoadF:    2e-15,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := v.(api.CellTimingResponse)
	if len(resp.Arcs) != 2 {
		t.Fatalf("got %d arcs, want 2 (rise + fall)", len(resp.Arcs))
	}
	for _, a := range resp.Arcs {
		if a.DelayS <= 0 {
			t.Errorf("arc %+v: non-positive delay", a)
		}
		if a.OutSlewS != nil {
			t.Errorf("arc %+v: out slew reported for a delay-only arc", a)
		}
	}
}

func TestPathsNegativeKRejected(t *testing.T) {
	s := New(quickConfig(sharedDir(t)), nil)
	_, err := s.paths(context.Background(), &api.PathsRequest{
		Circuit:  testCircuit,
		Scenario: api.Scenario{Kind: "worst"},
		K:        -1,
	})
	if err == nil || status(err) != 400 {
		t.Fatalf("k = -1: err = %v (status %d), want 400", err, status(err))
	}
}

func TestResolveScenarioRejections(t *testing.T) {
	s := New(quickConfig(sharedDir(t)), nil)
	bad := []api.Scenario{
		{Kind: "fresh", Years: 10}, // contradiction, was silently ignored
		{Kind: "worst", Years: -3},
		{Kind: "duty", LambdaP: 1.5, LambdaN: 0.5},
		{Kind: "duty", LambdaP: math.NaN(), LambdaN: 0.5},
		{Kind: "duty", LambdaP: 0.5, LambdaN: math.Inf(1)},
		{Kind: "bogus"},
	}
	for _, sc := range bad {
		if _, err := s.resolveScenario(sc); err == nil || status(err) != 400 {
			t.Errorf("scenario %+v: err = %v, want a 400", sc, err)
		}
	}
	if _, err := s.resolveScenario(api.Scenario{Kind: "fresh", Years: 10}); err == nil ||
		!strings.Contains(err.Error(), "fresh") {
		t.Errorf("fresh+years error %v does not name the contradiction", err)
	}
	for _, ok := range []api.Scenario{
		{Kind: "fresh"},
		{Kind: "worst", Years: 10},
		{Kind: "duty", Years: 10, LambdaP: 0.3, LambdaN: 0.7},
	} {
		if _, err := s.resolveScenario(ok); err != nil {
			t.Errorf("scenario %+v unexpectedly rejected: %v", ok, err)
		}
	}
}

func TestLibraryKeyDistinguishesYears(t *testing.T) {
	// Two worst-case scenarios differing only in lifetime used to collide
	// in the LRU (the key carried only the duty cycles), serving one
	// scenario's library for the other.
	s := New(quickConfig(sharedDir(t)), nil)
	ctx := context.Background()
	l10, err := s.library(ctx, aging.WorstCase(10))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := s.library(ctx, aging.WorstCase(2))
	if err != nil {
		t.Fatal(err)
	}
	if l10.Scenario.Years != 10 || l2.Scenario.Years != 2 {
		t.Fatalf("library scenarios %v / %v, want 10y / 2y",
			l10.Scenario, l2.Scenario)
	}
	if s.cache.len() < 2 {
		t.Errorf("cache holds %d entries, want both lifetimes resident", s.cache.len())
	}
}
