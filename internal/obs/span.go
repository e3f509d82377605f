package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Span is one timed operation in a hierarchical trace. Spans form a tree:
// StartSpan attaches the new span to the span already carried by the
// context (or registers it as a root of the context's registry) and
// returns a derived context carrying the new span, so nesting follows the
// call graph without any explicit parent bookkeeping.
//
// A Span is safe for concurrent use: parallel children may attach and
// attribute writes are serialized. End must be called exactly once;
// snapshots taken before End report the span as in-flight with its
// duration so far.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	attrs    []spanAttr
	children []*Span
	dur      time.Duration
	ended    bool
}

type spanAttr struct{ key, val string }

// maxRoots bounds the root spans a registry keeps, so a long-running
// process that opens a root per operation holds a bounded trace;
// starting a root beyond it drops the oldest. A command opens a single
// root per run.
const maxRoots = 64

type ctxSpanKey struct{}

// StartSpan begins a span named name under the span carried by ctx (or as
// a new root of ctx's registry, which then drops its oldest root if it
// holds maxRoots) and returns the derived context plus the span. Call End
// when the operation finishes:
//
//	ctx, sp := obs.StartSpan(ctx, "char.library")
//	defer sp.End()
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{name: name, start: time.Now()}
	if parent, ok := ctx.Value(ctxSpanKey{}).(*Span); ok {
		parent.mu.Lock()
		parent.children = append(parent.children, sp)
		parent.mu.Unlock()
	} else {
		r := From(ctx)
		r.mu.Lock()
		if len(r.roots) == maxRoots {
			r.roots = append(r.roots[:0], r.roots[1:]...)
		}
		r.roots = append(r.roots, sp)
		r.mu.Unlock()
	}
	return context.WithValue(ctx, ctxSpanKey{}, sp), sp
}

// SetAttr attaches a key/value attribute (value formatted with %v).
// Setting the same key again appends; sinks keep the last value.
func (s *Span) SetAttr(key string, val any) {
	s.mu.Lock()
	s.attrs = append(s.attrs, spanAttr{key, fmt.Sprint(val)})
	s.mu.Unlock()
}

// End marks the span finished, freezing its duration. Calling End more
// than once keeps the first duration.
func (s *Span) End() {
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// EndErr ends the span, recording a non-nil error as the "error"
// attribute first.
func (s *Span) EndErr(err error) {
	if err != nil {
		s.SetAttr("error", err)
	}
	s.End()
}

// SpanStat is an immutable snapshot of a span subtree.
type SpanStat struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Seconds  float64           `json:"seconds"`
	InFlight bool              `json:"in_flight,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanStat        `json:"children,omitempty"`
}

// Stat snapshots the span and its children recursively.
func (s *Span) Stat() SpanStat {
	s.mu.Lock()
	st := SpanStat{Name: s.name, Start: s.start}
	if s.ended {
		st.Seconds = s.dur.Seconds()
	} else {
		st.Seconds = time.Since(s.start).Seconds()
		st.InFlight = true
	}
	if len(s.attrs) > 0 {
		st.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			st.Attrs[a.key] = a.val
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		st.Children = append(st.Children, c.Stat())
	}
	return st
}
