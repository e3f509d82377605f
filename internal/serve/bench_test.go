package serve

import (
	"context"
	"encoding/json"
	"testing"

	"ageguard/pkg/ageguard/api"
)

// BenchmarkPathsQuery times one /v1/paths answer as route runs it
// (decode, handler, render; no HTTP) for RISC-5P under the worst case
// at k = 10 on the quick grid: /within answers from a resident list of
// ten paths, and /extend from a resident list of one, which re-times the
// circuit and stores the longer list.
func BenchmarkPathsQuery(b *testing.B) {
	s := New(quickConfig(sharedDir(b)), nil)
	ctx := context.Background()
	answer := single(s.paths)
	raw, err := json.Marshal(api.PathsRequest{Circuit: testCircuit, Scenario: worstSc(), K: 10})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := answer(ctx, raw); err != nil {
		b.Fatal(err)
	}
	b.Run("within", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := answer(ctx, raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extend", func(b *testing.B) {
		sc, err := s.resolveScenario(worstSc())
		if err != nil {
			b.Fatal(err)
		}
		short, err := s.trace(testCircuit, sc, 1)(ctx)
		if err != nil {
			b.Fatal(err)
		}
		s.cache.mu.Lock()
		el := s.cache.m["timing|"+testCircuit+"|"+sc.ExactKey()]
		s.cache.mu.Unlock()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// put keeps a longer list, so the reset writes the entry in
			// place, untimed.
			b.StopTimer()
			s.cache.mu.Lock()
			el.Value.(*entry).val = short
			s.cache.mu.Unlock()
			b.StartTimer()
			if _, err := answer(ctx, raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
