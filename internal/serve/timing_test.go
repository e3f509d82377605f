package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/obs"
	"ageguard/pkg/ageguard/api"
)

// pathsBody renders a paths query's reply body the way the route does.
func pathsBody(t *testing.T, s *Server, ctx context.Context, sc api.Scenario, k int) []byte {
	t.Helper()
	raw, err := json.Marshal(api.PathsRequest{Circuit: testCircuit, Scenario: sc, K: k})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := single(s.paths)(ctx, raw)
	if err != nil {
		t.Fatalf("paths %s k=%d: %v", sc.Kind, k, err)
	}
	return rep.body
}

// TestPathsAnswerFromOneTiming: one server answers every k of a seeded
// shuffle of 1..40, plus k = 0 (the default 5), under two scenarios,
// each reply byte-identical to a fresh server's reply for that k alone.
// A query times the circuit only when its k is above every earlier k
// of its scenario.
func TestPathsAnswerFromOneTiming(t *testing.T) {
	dir := sharedDir(t)
	s := New(quickConfig(dir), nil)
	ctx := obs.With(context.Background(), s.reg)
	// Synthesis runs STA of its own: compile the netlist before counting.
	if _, err := s.timer(ctx, testCircuit); err != nil {
		t.Fatal(err)
	}
	type query struct {
		sc api.Scenario
		k  int
	}
	var qs []query
	for _, sc := range []api.Scenario{{Kind: "fresh"}, worstSc()} {
		for k := 0; k <= 40; k++ {
			qs = append(qs, query{sc, k})
		}
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })

	analyses := s.reg.Counter("sta.analyses")
	most := map[string]int{} // the largest k answered so far, per scenario
	for _, q := range qs {
		k := q.k
		if k == 0 {
			k = 5
		}
		before := analyses.Value()
		got := pathsBody(t, s, ctx, q.sc, q.k)
		if rose := analyses.Value() - before; rose > 1 || rose == 1 && k <= most[q.sc.Kind] {
			t.Errorf("%s k=%d: sta.analyses rose by %d after k up to %d", q.sc.Kind, q.k, rose, most[q.sc.Kind])
		}
		most[q.sc.Kind] = max(most[q.sc.Kind], k)
		ref := New(quickConfig(dir), nil)
		if want := pathsBody(t, ref, context.Background(), q.sc, q.k); !bytes.Equal(got, want) {
			t.Errorf("%s k=%d: reply differs from a fresh server's\n got %.200s\nwant %.200s", q.sc.Kind, q.k, got, want)
		}
	}
}

// TestGuardbandReadsTiming: a guardband after paths queries runs no
// STA, and its critical paths are BatchTimer.CP's bit for bit.
func TestGuardbandReadsTiming(t *testing.T) {
	s := New(quickConfig(sharedDir(t)), nil)
	ctx := obs.With(context.Background(), s.reg)
	pathsBody(t, s, ctx, api.Scenario{Kind: "fresh"}, 3)
	pathsBody(t, s, ctx, worstSc(), 7)
	analyses := s.reg.Counter("sta.analyses")
	before := analyses.Value()
	v, err := s.guardband(ctx, &api.GuardbandRequest{Circuit: testCircuit, Scenario: worstSc()})
	if err != nil {
		t.Fatal(err)
	}
	if rose := analyses.Value() - before; rose != 0 {
		t.Errorf("guardband after paths ran %d analyses, want 0", rose)
	}
	gb := v.(api.GuardbandResponse)

	bt, err := s.timer(ctx, testCircuit)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := s.resolveScenario(worstSc())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  float64
		sc   aging.Scenario
	}{{"fresh", gb.FreshCPs, aging.Fresh()}, {"aged", gb.AgedCPs, worst}} {
		lib, err := s.library(ctx, c.sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bt.CP(ctx, lib)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(c.got) != math.Float64bits(want) {
			t.Errorf("%s CP = %g, BatchTimer.CP = %g", c.name, c.got, want)
		}
	}
}

// TestTimingExtensionHerd: 16 concurrent identical queries past the
// resident list re-time the circuit once and share its list, and a
// caller that read the short list before that extension stored its own
// re-times nothing.
func TestTimingExtensionHerd(t *testing.T) {
	s := New(quickConfig(sharedDir(t)), nil)
	ctx := obs.With(context.Background(), s.reg)
	pathsBody(t, s, ctx, worstSc(), 2)
	analyses := s.reg.Counter("sta.analyses")
	extensions := s.reg.Counter("serve.timing.extensions")
	a0, e0 := analyses.Value(), extensions.Value()

	raw, err := json.Marshal(api.PathsRequest{Circuit: testCircuit, Scenario: worstSc(), K: 30})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, 16)
	errs := make([]error, len(bodies))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rep, err := single(s.paths)(ctx, raw)
			bodies[i], errs[i] = rep.body, err
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("query %d: reply differs from query 0's", i)
		}
	}
	if got := analyses.Value() - a0; got != 1 {
		t.Errorf("sta.analyses rose by %d, want 1", got)
	}
	if got := extensions.Value() - e0; got != 1 {
		t.Errorf("serve.timing.extensions rose by %d, want 1", got)
	}

	sc, err := s.resolveScenario(worstSc())
	if err != nil {
		t.Fatal(err)
	}
	late, err := s.extend(ctx, "timing|"+testCircuit+"|"+sc.ExactKey(), 30, s.trace(testCircuit, sc, 30))
	if err != nil {
		t.Fatal(err)
	}
	if late.k != 30 || analyses.Value()-a0 != 1 || extensions.Value()-e0 != 1 {
		t.Errorf("late extension: k = %d, analyses +%d, extensions +%d; want 30, +1, +1",
			late.k, analyses.Value()-a0, extensions.Value()-e0)
	}
}

// TestShorterExtensionKeepsLonger: an extension that finishes after a
// longer one leaves the longer list resident, and both lengths still
// answer without STA.
func TestShorterExtensionKeepsLonger(t *testing.T) {
	s := New(quickConfig(sharedDir(t)), nil)
	ctx := obs.With(context.Background(), s.reg)
	sc, err := s.resolveScenario(worstSc())
	if err != nil {
		t.Fatal(err)
	}
	pathsBody(t, s, ctx, worstSc(), 5)
	key := "timing|" + testCircuit + "|" + sc.ExactKey()

	// The k = 7 extension traces, then waits until the k = 10 one has
	// stored its list.
	traced, stored := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.extend(ctx, key, 7, func(ctx context.Context) (any, error) {
			v, err := s.trace(testCircuit, sc, 7)(ctx)
			close(traced)
			<-stored
			return v, err
		})
		done <- err
	}()
	<-traced
	want10 := pathsBody(t, s, ctx, worstSc(), 10)
	close(stored)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	v, ok := s.cache.lookup(key)
	if !ok {
		t.Fatal("no resident list after both extensions")
	}
	if k := v.(*timing).k; k != 10 {
		t.Fatalf("resident list after both extensions traced for k = %d, want 10", k)
	}

	analyses := s.reg.Counter("sta.analyses")
	before := analyses.Value()
	want7 := pathsBody(t, New(quickConfig(sharedDir(t)), nil), context.Background(), worstSc(), 7)
	if got := pathsBody(t, s, ctx, worstSc(), 7); !bytes.Equal(got, want7) {
		t.Error("k = 7 reply differs from a fresh server's")
	}
	if got := pathsBody(t, s, ctx, worstSc(), 10); !bytes.Equal(got, want10) {
		t.Error("k = 10 reply changed")
	}
	if rose := analyses.Value() - before; rose != 0 {
		t.Errorf("answers within the resident list ran %d analyses, want 0", rose)
	}
}
