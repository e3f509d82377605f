package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ageguard/pkg/ageguard/api"
	"ageguard/pkg/ageguard/client"
)

// tap is the caller's transport. It notes the body checksum the daemon
// stamps on every reply (api.BodySumHeader, which the typed client checks
// against the body before decoding it) and counts the body's bytes as the
// client reads them, so the checks can compare replies byte for byte and
// the benchmark can size them without buffering or hashing a reply again.
type tap struct {
	rt   http.RoundTripper
	sum  string
	body *countingBody
}

func (t *tap) RoundTrip(r *http.Request) (*http.Response, error) {
	t.sum, t.body = "", nil
	res, err := t.rt.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	t.sum = res.Header.Get(api.BodySumHeader)
	t.body = &countingBody{ReadCloser: res.Body}
	res.Body = t.body
	return res, nil
}

// countingBody counts the bytes read through it.
type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// reply is one answered request: the typed response of its kind, and the
// checksum and size of the body it was decoded from.
type reply struct {
	sum   string
	size  int64
	gb    *api.GuardbandResponse
	ct    *api.CellTimingResponse
	pa    *api.PathsResponse
	mc    *api.MCGuardbandResponse
	batch *api.BatchResponse
}

// typed returns the response value (for re-encoding).
func (r *reply) typed() any {
	switch {
	case r.gb != nil:
		return r.gb
	case r.ct != nil:
		return r.ct
	case r.pa != nil:
		return r.pa
	case r.mc != nil:
		return r.mc
	default:
		return r.batch
	}
}

// caller is one synchronous client of the daemon: it sends its next
// request only after the previous reply, like the CLIs and monitor
// sweeps that use the typed client.
type caller struct {
	cl  *client.Client
	tap *tap
	res *results
	chk *checker
}

func newCaller(base string, rt http.RoundTripper, m client.Metrics, chk *checker) *caller {
	t := &tap{rt: rt}
	return &caller{
		cl:  client.New(base, client.WithHTTPClient(&http.Client{Transport: t}), client.WithMetrics(m)),
		tap: t,
		res: newResults(),
		chk: chk,
	}
}

// call sends one request through the typed client.
func (c *caller) call(ctx context.Context, r *request) (*reply, error) {
	var rep reply
	var err error
	switch r.kind {
	case kindGuardband:
		rep.gb, err = c.cl.Guardband(ctx, *r.gb)
	case kindCellTiming:
		rep.ct, err = c.cl.CellTiming(ctx, *r.ct)
	case kindPaths:
		rep.pa, err = c.cl.Paths(ctx, *r.pa)
	case kindMC:
		rep.mc, err = c.cl.MCGuardband(ctx, *r.mc)
	case kindBatch:
		rep.batch, err = c.cl.Batch(ctx, r.batch)
	default:
		err = fmt.Errorf("unknown request kind %q", r.kind)
	}
	rep.sum = c.tap.sum
	if c.tap.body != nil {
		rep.size = c.tap.body.n
	}
	return &rep, err
}

// do sends r, checks the answer and records the outcome. A request
// fails when the client reports an error (a non-2xx reply, a transport
// error, a checksum mismatch) or when the answer fails a check; either
// way it counts once. timed says whether its latency belongs to the
// timed phase; sc, when set, records the call and the check as spans.
// The reply is nil when the request failed.
func (c *caller) do(ctx context.Context, r *request, timed bool, sc *spanCtx) (*reply, time.Duration) {
	var span int32
	if sc != nil {
		span = sc.ln.begin("client."+r.kind, sc.id, sc.parent)
	}
	t0 := time.Now()
	rep, err := c.call(ctx, r)
	lat := time.Since(t0)
	if sc != nil {
		sc.ln.end(span)
		span = sc.ln.begin("bench.check", sc.id, sc.parent)
	}
	if err == nil {
		err = c.chk.check(r, rep)
	}
	if sc != nil {
		sc.ln.end(span)
	}
	c.res.record(r, rep, lat, err, timed)
	if err != nil {
		return nil, lat
	}
	return rep, lat
}

// results accumulates one caller's outcomes; a run merges its callers'.
type results struct {
	attempted, failed int
	integrity         int
	fails             []string
	lat               map[string][]float64 // class -> ms, timed successes only
	count             map[string]int       // kind -> timed requests
	replyBytes        map[string]int64     // kind -> reply bytes, timed successes
}

func newResults() *results {
	return &results{lat: map[string][]float64{}, count: map[string]int{}, replyBytes: map[string]int64{}}
}

// maxFailNotes bounds the failure messages a run keeps for its report.
const maxFailNotes = 8

func (rs *results) record(r *request, rep *reply, lat time.Duration, err error, timed bool) {
	rs.attempted++
	if timed {
		rs.count[r.kind]++
	}
	if err != nil {
		rs.failed++
		var ie *client.IntegrityError
		if errors.As(err, &ie) {
			rs.integrity++
		}
		if len(rs.fails) < maxFailNotes {
			rs.fails = append(rs.fails, fmt.Sprintf("%s %s: %v", r.kind, r.class, err))
		}
		return
	}
	if timed {
		rs.lat[r.class] = append(rs.lat[r.class], float64(lat)/float64(time.Millisecond))
		rs.replyBytes[r.kind] += rep.size
	}
}

func (rs *results) merge(o *results) {
	rs.attempted += o.attempted
	rs.failed += o.failed
	rs.integrity += o.integrity
	for _, f := range o.fails {
		if len(rs.fails) < maxFailNotes {
			rs.fails = append(rs.fails, f)
		}
	}
	for k, v := range o.lat {
		rs.lat[k] = append(rs.lat[k], v...)
	}
	for k, v := range o.count {
		rs.count[k] += v
	}
	for k, v := range o.replyBytes {
		rs.replyBytes[k] += v
	}
}

// allLatencies returns every timed success's latency in ms.
func (rs *results) allLatencies() []float64 {
	var out []float64
	for _, v := range rs.lat {
		out = append(out, v...)
	}
	return out
}
