package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"ageguard/internal/atomicfile"
)

// Snapshot is a point-in-time copy of a registry: the run-manifest
// structure serialized by the JSON sink and rendered by the text sink.
type Snapshot struct {
	TakenAt    time.Time           `json:"taken_at"`
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	Histograms map[string]HistStat `json:"histograms,omitempty"`
	Spans      []SpanStat          `json:"spans,omitempty"`
}

// Snapshot copies the registry's current state. It is safe to call while
// the run is still recording; in-flight spans are marked as such.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	roots := append([]*Span(nil), r.roots...)
	r.mu.Unlock()

	s := Snapshot{TakenAt: time.Now()}
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, c := range counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, g := range gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistStat, len(hists))
		for k, h := range hists {
			s.Histograms[k] = h.Stat()
		}
	}
	for _, sp := range roots {
		s.Spans = append(s.Spans, sp.Stat())
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON — the run-manifest
// format consumed by -trace-out.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders a human-readable summary: sorted counters and gauges,
// histogram statistics, and the indented span tree.
func (s Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-36s %12d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-36s %12g\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			fmt.Fprintf(&b, "  %-36s n=%-8d mean=%s p50=%s p90=%s p99=%s max=%s\n",
				k, h.Count, fmtSec(h.Mean), fmtSec(h.P50), fmtSec(h.P90), fmtSec(h.P99), fmtSec(h.Max))
		}
	}
	if len(s.Spans) > 0 {
		b.WriteString("spans:\n")
		for _, sp := range s.Spans {
			writeSpanText(&b, sp, 1)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSpanText(b *strings.Builder, sp SpanStat, depth int) {
	fmt.Fprintf(b, "%s%-*s %10s", strings.Repeat("  ", depth), 40-2*depth, sp.Name, fmtSec(sp.Seconds))
	if sp.InFlight {
		b.WriteString(" (in flight)")
	}
	for _, k := range sortedKeys(sp.Attrs) {
		fmt.Fprintf(b, " %s=%s", k, sp.Attrs[k])
	}
	b.WriteByte('\n')
	for _, c := range sp.Children {
		writeSpanText(b, c, depth+1)
	}
}

// fmtSec renders a duration in seconds with an adaptive unit.
func fmtSec(v float64) string {
	switch {
	case v <= 0:
		return "0"
	case v < 1e-3:
		return fmt.Sprintf("%.1fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2fms", v*1e3)
	case v < 120:
		return fmt.Sprintf("%.2fs", v)
	default:
		return fmt.Sprintf("%.1fm", v/60)
	}
}

// WriteManifest snapshots the registry and writes the JSON run-manifest to
// path atomically (atomicfile.Write), so a reader polling the file during
// a long sweep never observes a torn document.
func (r *Registry) WriteManifest(path string) error {
	return atomicfile.Write(path, r.Snapshot().WriteJSON)
}
