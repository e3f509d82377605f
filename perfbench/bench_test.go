package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"ageguard/pkg/ageguard/api"
)

func TestPercentileNearestRankAndSupport(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n         int
		p         float64
		want      float64
		supported bool
	}{
		{100, 0.5, 50, true},
		{100, 0.9, 90, true},    // exactly 10 samples beyond
		{100, 0.99, 99, false},  // one sample beyond
		{109, 0.9, 99, true},    // rank ceil(98.1) = 99, 10 beyond
		{999, 0.99, 990, false}, // rank ceil(989.01) = 990, 9 beyond
		{1000, 0.99, 990, true},
		{1000, 0.999, 999, false},
		{1, 0.5, 1, false},
		{3, 0.01, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.supported {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.supported)
		}
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("empty sample: got %g, %v", v, ok)
	}
	if m := median([]float64{5, 1, 4, 2, 3}); m != 3 {
		t.Errorf("median = %g, want 3", m)
	}
}

func TestSelfTimeWithOverlappingParallelChildren(t *testing.T) {
	spans := []spanRec{
		{Name: "lane", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 20, End: 60}, // overlaps a: parallel work
		{Name: "c", Parent: 0, Start: 80, End: 90},
		{Name: "a.1", Parent: 1, Start: 15, End: 25},
		{Name: "d", Parent: 0, Start: 95, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	// The lane's children cover [10,60] + [80,90] + [95,100] = 65.
	want := []int64{35, 20, 40, 10, 10, 25}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTableSelfTimesSumToWallClock(t *testing.T) {
	tr := newTracer()
	for _, spans := range [][]spanRec{
		{{Name: "lane", Parent: -1, End: 50}, {Name: "request", Parent: 0, Start: 5, End: 45},
			{Name: "client.x", Parent: 1, Start: 5, End: 30}, {Name: "serve.handler.x", Parent: 1, Start: 30, End: 40}},
		{{Name: "lane", Parent: -1, End: 70}, {Name: "request", Parent: 0, Start: 0, End: 70},
			{Name: "client.x", Parent: 1, Start: 0, End: 60}},
	} {
		tr.lanes = append(tr.lanes, &lane{t: tr, spans: spans})
	}
	tb := tr.table()
	if tb.wall != 120 || tb.sumSelf != tb.wall || tb.residual != 10 {
		t.Fatalf("wall %d, self+residual %d, residual %d; want 120, 120, 10", tb.wall, tb.sumSelf, tb.residual)
	}
	if n, total := tr.spanStats("client.x"); n != 2 || total != 85 {
		t.Fatalf("client.x: %d spans, %d total; want 2, 85", n, total)
	}
}

func warmKinds(seed uint64, caller, n int) ([]request, map[string]int) {
	g := newWarmStream(seed, caller)
	var out []request
	mix := map[string]int{}
	for i := 0; i < n; i++ {
		r := g.next()
		out = append(out, r)
		mix[r.kind]++
	}
	return out, mix
}

func TestWarmStreamSeeded(t *testing.T) {
	a, mixA := warmKinds(7, 0, 2000)
	b, _ := warmKinds(7, 0, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different streams")
	}
	c, mixC := warmKinds(8, 0, 2000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	d, _ := warmKinds(7, 1, 2000)
	if reflect.DeepEqual(a, d) {
		t.Fatal("two callers of one seed share a stream")
	}
	if !reflect.DeepEqual(mixA, mixC) {
		t.Fatalf("kind mix differs between seeds: %v vs %v", mixA, mixC)
	}
	want := map[string]int{kindGuardband: 900, kindCellTiming: 900, kindPaths: 100, kindBatch: 100}
	if !reflect.DeepEqual(mixA, want) {
		t.Fatalf("kind mix %v, want %v", mixA, want)
	}
	// A reordered batch never repeats the bytes of an earlier one, so the
	// daemon plans each instead of replaying it from its whole-reply memo.
	seen := map[string]bool{}
	for _, r := range a {
		if r.novel {
			b, _ := json.Marshal(r.batch)
			if seen[string(b)] {
				t.Fatal("a reordered batch repeats an earlier one")
			}
			seen[string(b)] = true
		}
	}
	if n := len(seen); n < 40 || n > 60 {
		t.Fatalf("%d of 100 batches reordered, want about half", n)
	}
}

func TestMissStreamSeeded(t *testing.T) {
	rounds := func(seed uint64, n int) [][]request {
		m := newMissStream(seed)
		var out [][]request
		for i := 0; i < n; i++ {
			out = append(out, m.nextRound())
		}
		return out
	}
	a, b, c := rounds(3, 8), rounds(3, 8), rounds(4, 8)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("miss-sweep stream is not a function of its seed")
	}
	seeds := map[uint64]bool{}
	var keys []string
	for i, round := range a {
		mc := round[0].mc
		if mc == nil || seeds[mc.Seed] || (i == 0) != (mc.Seed == mcRefSeed) {
			t.Fatalf("round %d: MC seed %v repeats or misplaces the reference seed", i, round[0].mc)
		}
		seeds[mc.Seed] = true
		for _, r := range round[1:] {
			keys = append(keys, r.pa.Circuit+"|"+scenarioKey(r.pa.Scenario)+"|"+string(rune('0'+r.pa.K)))
		}
	}
	// Every key comes back only after all 180 others.
	first := map[string]int{}
	for i, k := range keys {
		if j, seen := first[k]; seen && i-j != 180 {
			t.Fatalf("key %s recurs after %d queries, want 180", k, i-j)
		}
		first[k] = i
	}
	if len(first) != 180 {
		t.Fatalf("%d distinct paths keys, want 180", len(first))
	}
}

// TestFailureAccounting drives the typed client against a stub daemon
// whose replies are, in turn, a 429, a 500, a body failing its
// checksum, a wrong answer and a right one.
func TestFailureAccounting(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	good := ref.GuardbandWorst["RISC-5P"]
	reply := func(fresh float64) []byte {
		b, _ := json.Marshal(api.GuardbandResponse{Version: api.APIVersion, Circuit: "RISC-5P", Scenario: scWorst,
			FreshCPs: fresh, AgedCPs: good.AgedCPs, GuardbandS: good.AgedCPs - fresh,
			GuardbandPct: 100 * (good.AgedCPs - fresh) / fresh})
		return append(b, '\n')
	}
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		sum := ""
		switch n.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
			return
		case 2:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		case 3:
			body, sum = reply(good.FreshCPs), api.BodySum([]byte("something else"))
		case 4:
			body = reply(0.9 * good.FreshCPs) // consistent, but not the reference answer
		default:
			body = reply(good.FreshCPs)
		}
		if sum == "" {
			sum = api.BodySum(body)
		}
		w.Header().Set(api.BodySumHeader, sum)
		w.Write(body)
	}))
	defer srv.Close()

	c := newCaller(srv.URL, http.DefaultTransport, noMetrics{}, newChecker(ref))
	for i := 0; i < 5; i++ {
		r := guardbandReq(kindGuardband, "RISC-5P", scWorst)
		rep, _ := c.do(context.Background(), &r, true, nil)
		if (rep != nil) != (i == 4) {
			t.Errorf("request %d: reply %v", i+1, rep != nil)
		}
	}
	res := c.res
	if res.attempted != 5 || res.failed != 4 || res.integrity != 1 || len(res.lat[kindGuardband]) != 1 {
		t.Fatalf("attempted %d failed %d integrity %d timed successes %d; want 5, 4, 1, 1 (%v)",
			res.attempted, res.failed, res.integrity, len(res.lat[kindGuardband]), res.fails)
	}
}

type noMetrics struct{}

func (noMetrics) Inc(string) {}
