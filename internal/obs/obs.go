// Package obs is the pipeline's lightweight observability layer: a
// concurrency-safe metrics registry (counters, gauges, duration
// histograms), hierarchical wall-time spans, and pluggable sinks (an
// aligned text summary and a JSON run-manifest).
//
// The registry travels through context.Context: commands create one
// registry per run and install it with With; every layer of the pipeline
// (spice, char, sta, synth, core) records into obs.From(ctx), so code
// handed a bare context degrades gracefully to the process-wide Default
// registry instead of losing data.
//
// Metric names are hierarchical, dot-separated, lowercase:
// <layer>.<noun>[.<verb-or-unit>] — e.g. spice.newton.iterations,
// char.cache.hits, sta.analyze.seconds. Histograms observe seconds and
// carry the ".seconds" suffix. Span names use <layer>.<operation>
// (char.library, synth.synthesize, core.guardband.static); variable parts
// (scenario, circuit) are span attributes, never part of the name, so
// aggregation stays trivial. See DESIGN.md for the full scheme.
package obs

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds the metrics and the most recent root spans of one run
// (see maxRoots). The zero value is not usable; construct with
// NewRegistry. All methods are safe for concurrent use;
// Counter/Gauge/Histogram return a stable handle that is cheap to cache
// and atomic to update.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	roots    []*Span
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry used when a context carries
// none, so recording never needs a nil check.
var Default = NewRegistry()

type ctxRegKey struct{}

// With returns a context carrying the registry; pipeline layers below it
// record their metrics and spans there.
func With(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, ctxRegKey{}, r)
}

// From returns the registry carried by ctx, or Default when there is none
// (including a nil context). It never returns nil.
func From(ctx context.Context) *Registry {
	if ctx != nil {
		if r, ok := ctx.Value(ctxRegKey{}).(*Registry); ok {
			return r
		}
	}
	return Default
}

// Counter returns the named monotone counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named duration histogram, creating it on first
// use. Histograms observe values in seconds.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Inc increments the named counter by one — the Registry side of the
// one-method metrics interfaces stdlib-only packages (e.g.
// pkg/ageguard/client) define for themselves, so a registry plugs into
// them directly.
func (r *Registry) Inc(name string) { r.Counter(name).Inc() }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 (last-write-wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histogram bucket layout: bucket i counts observations in
// [boundary(i-1), boundary(i)) with boundary(i) = 1µs * 2^i, i.e. a
// log2 ladder from 1 microsecond to ~9 days; the first bucket absorbs
// everything below 1µs and the last everything above.
const histBuckets = 40

func bucketBound(i int) float64 { return 1e-6 * math.Pow(2, float64(i)) }

// Histogram accumulates a distribution of durations in seconds with
// exact count/sum/min/max and log2 buckets for quantile estimation.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

// Observe records one value (seconds; negative values clamp to zero).
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	i := 0
	for i < histBuckets-1 && v >= bucketBound(i) {
		i++
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[i]++
	h.mu.Unlock()
}

// Since observes the wall time elapsed since t0.
func (h *Histogram) Since(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// HistStat is an immutable summary of a Histogram.
type HistStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum_s"`
	Min   float64 `json:"min_s"`
	Max   float64 `json:"max_s"`
	Mean  float64 `json:"mean_s"`
	P50   float64 `json:"p50_s"`
	P90   float64 `json:"p90_s"`
	P99   float64 `json:"p99_s"`
}

// Stat summarizes the histogram. Quantiles are upper-bound estimates from
// the log2 buckets (within 2x of the true value).
func (h *Histogram) Stat() HistStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HistStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		return st
	}
	st.Mean = h.sum / float64(h.count)
	quantile := func(q float64) float64 {
		target := int64(math.Ceil(q * float64(h.count)))
		var seen int64
		for i, n := range h.buckets {
			seen += n
			if seen >= target {
				b := bucketBound(i)
				if b > h.max {
					b = h.max
				}
				return b
			}
		}
		return h.max
	}
	st.P50, st.P90, st.P99 = quantile(0.50), quantile(0.90), quantile(0.99)
	return st
}

// sortedKeys returns the keys of m in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
