package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// The benchmark's own tracer. Spans are recorded by the benchmark around
// its calls into each layer, never inside the program: a span is a name,
// the request ID it belongs to, its parent and its interval. Each caller
// records into its own lane, so recording takes no lock; the lane's root
// span covers the caller's whole timed phase. Spans stay in memory until
// the run ends.

// spanRec is one recorded span. parent indexes the same lane (-1 for the
// lane root); start and end are nanoseconds since the tracer's epoch.
type spanRec struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	lanes []*lane
	// setup holds spans recorded outside the timed phase (set-up
	// replays); they feed per-layer means but not the wall-clock table.
	setup *lane
}

type lane struct {
	t     *tracer
	spans []spanRec
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.setup = &lane{t: t}
	return t
}

// newLane opens a caller's lane; its root span starts now.
func (t *tracer) newLane(name string) *lane {
	l := &lane{t: t}
	l.spans = append(l.spans, spanRec{Name: name, Parent: -1, Start: t.now()})
	t.lanes = append(t.lanes, l)
	return l
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nextID mints a request ID.
func (t *tracer) nextID() uint64 { return t.ids.Add(1) }

// begin opens a span under parent and returns its index.
func (l *lane) begin(name string, id uint64, parent int32) int32 {
	l.spans = append(l.spans, spanRec{Name: name, ID: id, Parent: parent, Start: l.t.now()})
	return int32(len(l.spans) - 1)
}

// end closes span i.
func (l *lane) end(i int32) { l.spans[i].End = l.t.now() }

// close ends the lane's root span.
func (l *lane) close() { l.end(0) }

// selfTimes returns every span's duration minus the part of its interval
// that its children cover. Children may overlap one another (parallel
// work under one parent); the covered part is the union of their
// intervals, clipped to the parent's.
func selfTimes(spans []spanRec) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curA, curB int64
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curA, curB, open = iv[0], iv[1], true
			case iv[0] <= curB:
				curB = max(curB, iv[1])
			default:
				covered += curB - curA
				curA, curB = iv[0], iv[1]
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name         string
	count        int
	total, self  time.Duration
	shareOfTrace float64
}

// layerTable aggregates the timed lanes by span name. wall is the traced
// wall clock: the sum of the lanes' durations, since each caller's lane
// covers the whole timed phase. residual is the lanes' own self time,
// the part no span below the lane explains.
type layerTable struct {
	rows     []layerRow
	wall     time.Duration
	residual time.Duration
	sumSelf  time.Duration
}

func (t *tracer) table() layerTable {
	var tb layerTable
	agg := map[string]*layerRow{}
	for _, l := range t.lanes {
		self := selfTimes(l.spans)
		tb.wall += time.Duration(l.spans[0].End - l.spans[0].Start)
		tb.residual += time.Duration(self[0])
		for i, s := range l.spans[1:] {
			r := agg[s.Name]
			if r == nil {
				r = &layerRow{name: s.Name}
				agg[s.Name] = r
			}
			r.count++
			r.total += time.Duration(s.End - s.Start)
			r.self += time.Duration(self[i+1])
		}
	}
	tb.sumSelf = tb.residual
	for _, r := range agg {
		r.shareOfTrace = ratio(float64(r.self), float64(tb.wall))
		tb.sumSelf += r.self
		tb.rows = append(tb.rows, *r)
	}
	sort.Slice(tb.rows, func(i, j int) bool { return tb.rows[i].self > tb.rows[j].self })
	return tb
}

// spanStats returns the count and total duration of every span named
// name, in the timed lanes and the set-up lane.
func (t *tracer) spanStats(name string) (n int, total time.Duration) {
	for _, l := range append([]*lane{t.setup}, t.lanes...) {
		for _, s := range l.spans {
			if s.Name == name {
				n++
				total += time.Duration(s.End - s.Start)
			}
		}
	}
	return n, total
}

// meanSpan returns the mean duration of the spans named name in unit
// (0 when there are none).
func (t *tracer) meanSpan(name string, unit time.Duration) float64 {
	n, total := t.spanStats(name)
	return ratio(float64(total)/float64(unit), float64(n))
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	type line struct {
		Lane int `json:"lane"`
		spanRec
	}
	for li, l := range append([]*lane{t.setup}, t.lanes...) {
		for _, s := range l.spans {
			if err := enc.Encode(line{Lane: li - 1, spanRec: s}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// format renders the per-layer table.
func (tb layerTable) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %12s %12s %8s\n", "span (layer.operation)", "count", "total_s", "self_s", "share")
	for _, r := range tb.rows {
		fmt.Fprintf(&b, "%-28s %8d %12.6f %12.6f %7.2f%%\n",
			r.name, r.count, r.total.Seconds(), r.self.Seconds(), 100*r.shareOfTrace)
	}
	fmt.Fprintf(&b, "%-28s %8s %12s %12.6f %7.2f%%\n", "residual (unattributed)", "", "",
		tb.residual.Seconds(), 100*ratio(float64(tb.residual), float64(tb.wall)))
	fmt.Fprintf(&b, "self times + residual = %.6f s; traced wall clock (sum over callers) = %.6f s\n",
		tb.sumSelf.Seconds(), tb.wall.Seconds())
	return b.String()
}
