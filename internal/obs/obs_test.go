package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("x.hits").Inc()
				r.Counter("x.bytes").Add(3)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("x.hits").Value(); got != 8000 {
		t.Errorf("hits = %d, want 8000", got)
	}
	if got := r.Counter("x.bytes").Value(); got != 24000 {
		t.Errorf("bytes = %d, want 24000", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("x.level")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Errorf("gauge = %v", g.Value())
	}
	if r.Gauge("x.level") != g {
		t.Error("gauge handle not stable")
	}
}

func TestHistogramStat(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x.seconds")
	for _, v := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1} {
		h.Observe(v)
	}
	st := h.Stat()
	if st.Count != 5 {
		t.Fatalf("count = %d", st.Count)
	}
	if math.Abs(st.Sum-0.11111) > 1e-9 {
		t.Errorf("sum = %v", st.Sum)
	}
	if st.Min != 1e-5 || st.Max != 0.1 {
		t.Errorf("min/max = %v/%v", st.Min, st.Max)
	}
	// p50 is an upper-bound estimate from log2 buckets: within 2x of 1e-3.
	if st.P50 < 1e-3 || st.P50 > 2e-3 {
		t.Errorf("p50 = %v", st.P50)
	}
	if st.P99 > st.Max {
		t.Errorf("p99 %v > max %v", st.P99, st.Max)
	}
	// Degenerate histogram.
	if st := NewRegistry().Histogram("empty").Stat(); st.Count != 0 || st.Mean != 0 {
		t.Errorf("empty stat = %+v", st)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewRegistry().Histogram("h")
	h.Observe(-1)
	if st := h.Stat(); st.Min != 0 || st.Count != 1 {
		t.Errorf("stat = %+v", st)
	}
}

func TestSpanTree(t *testing.T) {
	r := NewRegistry()
	ctx := With(context.Background(), r)
	ctx, root := StartSpan(ctx, "run")
	root.SetAttr("circuit", "DSP")
	_, child := StartSpan(ctx, "child")
	child.End()
	// A sibling attached concurrently.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartSpan(ctx, "par")
			sp.End()
		}()
	}
	wg.Wait()
	root.End()

	s := r.Snapshot()
	if len(s.Spans) != 1 {
		t.Fatalf("roots = %d, want 1", len(s.Spans))
	}
	rt := s.Spans[0]
	if rt.Name != "run" || rt.Attrs["circuit"] != "DSP" {
		t.Errorf("root = %+v", rt)
	}
	if len(rt.Children) != 5 {
		t.Errorf("children = %d, want 5", len(rt.Children))
	}
	if rt.InFlight {
		t.Error("ended root still in flight")
	}
}

// TestSpanRootsBounded: a registry keeps the newest maxRoots root spans
// in start order, so a daemon that opens a root per cache fill does not
// grow its trace without bound; child spans do not count.
func TestSpanRootsBounded(t *testing.T) {
	r := NewRegistry()
	ctx := With(context.Background(), r)
	const n = maxRoots + 10
	for i := 0; i < n; i++ {
		cctx, sp := StartSpan(ctx, fmt.Sprintf("root%d", i))
		_, child := StartSpan(cctx, "child")
		child.End()
		sp.End()
	}
	s := r.Snapshot()
	if len(s.Spans) != maxRoots {
		t.Fatalf("roots = %d, want %d", len(s.Spans), maxRoots)
	}
	for k, sp := range s.Spans {
		if want := fmt.Sprintf("root%d", n-maxRoots+k); sp.Name != want || len(sp.Children) != 1 {
			t.Fatalf("root %d = %s with %d children, want %s with 1", k, sp.Name, len(sp.Children), want)
		}
	}
}

func TestSpanInFlightSnapshot(t *testing.T) {
	r := NewRegistry()
	ctx := With(context.Background(), r)
	_, sp := StartSpan(ctx, "slow")
	time.Sleep(time.Millisecond)
	s := r.Snapshot()
	if len(s.Spans) != 1 || !s.Spans[0].InFlight || s.Spans[0].Seconds <= 0 {
		t.Errorf("in-flight span = %+v", s.Spans)
	}
	sp.End()
}

func TestEndErrAndDoubleEnd(t *testing.T) {
	r := NewRegistry()
	_, sp := StartSpan(With(context.Background(), r), "op")
	sp.EndErr(os.ErrNotExist)
	d1 := sp.Stat().Seconds
	time.Sleep(time.Millisecond)
	sp.End() // second End keeps the first duration
	if d2 := sp.Stat().Seconds; d2 != d1 {
		t.Errorf("duration changed on double End: %v -> %v", d1, d2)
	}
	if sp.Stat().Attrs["error"] == "" {
		t.Error("error attr missing")
	}
}

func TestFromDefault(t *testing.T) {
	if From(context.Background()) != Default {
		t.Error("From without registry != Default")
	}
	r := NewRegistry()
	if From(With(context.Background(), r)) != r {
		t.Error("From lost the installed registry")
	}
}

func TestSinks(t *testing.T) {
	r := NewRegistry()
	r.Counter("spice.transients").Add(42)
	r.Gauge("char.workers").Set(8)
	r.Histogram("sta.analyze.seconds").Observe(0.005)
	_, sp := StartSpan(With(context.Background(), r), "char.library")
	sp.SetAttr("scenario", "worst")
	sp.End()

	var txt bytes.Buffer
	if err := r.Snapshot().WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"spice.transients", "42", "char.workers", "sta.analyze.seconds", "char.library", "scenario=worst"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text summary missing %q:\n%s", want, txt.String())
		}
	}

	path := filepath.Join(t.TempDir(), "run.json")
	if err := r.WriteManifest(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if got.Counters["spice.transients"] != 42 {
		t.Errorf("manifest counters = %+v", got.Counters)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "char.library" {
		t.Errorf("manifest spans = %+v", got.Spans)
	}
	// No temp files left next to the manifest.
	ents, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}
