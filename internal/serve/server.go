// Package serve implements ageguardd: an HTTP/JSON daemon answering
// guardband and timing queries against pre-characterized
// degradation-aware libraries. The wire types live in pkg/ageguard/api;
// a typed client in pkg/ageguard/client.
//
// The daemon keeps a bounded in-memory LRU of parsed libraries, one
// compiled netlist (sta.BatchTimer) per circuit, one ranked path list
// per circuit and scenario (a guardband reads its first path's delay, a
// paths query its first K paths) and whole replies, with per-key
// singleflight so a herd of identical cold queries characterizes once.
// A Server has one immutable config and its own LRU, so no key names
// the config. Admission is a bounded queue: requests beyond the
// in-flight limit wait in the queue, and requests beyond the queue are
// rejected immediately with 429 and a Retry-After hint. Every request
// runs under a deadline that propagates into the per-time-step
// cancellation checks of the transient solver; an expired deadline
// reports 504 and leaves no partial cache state (disk caches are
// written atomically, the in-memory LRU only ever holds completed
// values). SIGTERM drains: the listener closes, queued and in-flight
// requests finish, then Run returns.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"ageguard/internal/conc"
	"ageguard/internal/core"
	"ageguard/internal/obs"
	"ageguard/pkg/ageguard/api"
)

// Config parameterizes the daemon. The zero value of every field picks
// a sensible default at New.
type Config struct {
	// Flow is the design-flow configuration queries are answered with.
	Flow core.Flow

	// CacheSize bounds the LRU entry count (default 128).
	CacheSize int

	// MaxInflight bounds the number of requests doing work concurrently
	// (default 4). QueueDepth bounds how many more may wait for a work
	// slot (default 4*MaxInflight); beyond that requests are rejected
	// with 429 and a Retry-After of one second.
	MaxInflight int
	QueueDepth  int

	// RequestTimeout is the per-request deadline (default 5m). It
	// propagates into characterization and STA, whose inner loops check
	// cancellation every solver time step.
	RequestTimeout time.Duration

	// DrainTimeout bounds the graceful shutdown (default 2m).
	DrainTimeout time.Duration

	// WarmStart enables the boot-time disk-cache scan: verified library
	// cache entries for this config hash pre-populate the LRU before
	// the daemon reports ready, so a restart serves repeat queries from
	// the warm path instead of re-characterizing.
	WarmStart bool

	// ScrubInterval, when positive, runs a background scrubber that
	// re-verifies every on-disk library cache entry each interval and
	// quarantines corrupt files (renamed with a .corrupt suffix).
	ScrubInterval time.Duration

	// DrainGrace is how long the daemon keeps serving while advertising
	// not-ready on /readyz before the listener closes, giving load
	// balancers time to stop routing to it (default 0: drain at once).
	DrainGrace time.Duration
}

func (c *Config) fill() {
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxInflight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Minute
	}
}

// Server answers guardband queries. Construct with New; all methods are
// safe for concurrent use.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *cache

	slots chan struct{} // work slots, cap MaxInflight
	queue chan struct{} // admission tickets, cap MaxInflight+QueueDepth

	warmed    chan struct{} // closed when the warm-start scan completes
	draining  atomic.Bool   // set when the drain begins; clears readiness
	warmFence chan struct{} // test seam: when non-nil, warm waits on it
}

// New builds a Server recording its metrics into reg (a fresh registry
// when nil).
func New(cfg Config, reg *obs.Registry) *Server {
	cfg.fill()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Server{
		cfg:    cfg,
		reg:    reg,
		cache:  newCache(cfg.CacheSize, reg),
		slots:  make(chan struct{}, cfg.MaxInflight),
		queue:  make(chan struct{}, cfg.MaxInflight+cfg.QueueDepth),
		warmed: make(chan struct{}),
	}
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the daemon's routing table: the six POST /v1 query
// endpoints, each served through route, plus /healthz, /readyz,
// /metrics (text), /metrics.json and /debug/pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/guardband", s.route("guardband", single(s.guardband)))
	mux.Handle("POST /v1/celltiming", s.route("celltiming", single(s.cellTiming)))
	mux.Handle("POST /v1/grid", s.route("grid", single(s.grid)))
	mux.Handle("POST /v1/paths", s.route("paths", single(s.paths)))
	mux.Handle("POST /v1/mcguardband", s.route("mc", single(s.mcGuardband)))
	mux.Handle("POST /v1/batch", s.route("batch", s.batchReply))

	// Liveness: the process is up and serving HTTP. Stays 200 through
	// warm-up and drain — restarts are for dead processes, not busy ones.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// Readiness: route traffic here. 503 until the warm-start scan
	// completes and again once the drain begins.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.readyNow() {
			http.Error(w, "warming up or draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.reg.Snapshot().WriteText(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.reg.Snapshot().WriteJSON(w)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Run listens on addr and serves until ctx is canceled, then drains
// gracefully: in-flight and queued requests complete (bounded by
// DrainTimeout) before Run returns.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is Run on an existing listener (tests, Smoke and perfbench bind
// :0 and read the port back).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	go s.warm(ctx)
	if s.cfg.ScrubInterval > 0 {
		go s.scrub(ctx)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness first and keep serving through the grace window so
	// load balancers observe not-ready before the listener closes.
	s.draining.Store(true)
	if s.cfg.DrainGrace > 0 {
		time.Sleep(s.cfg.DrainGrace)
	}
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	<-errc // always http.ErrServerClosed once Shutdown began
	return err
}

// statusError pins an HTTP status to an error. errors.As-visible so
// handlers can classify bad input vs. internal failures.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &statusError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &statusError{code: http.StatusNotFound, err: fmt.Errorf(format, args...)}
}

// status maps a handler error to its HTTP status code.
func status(err error) int {
	var se *statusError
	switch {
	case errors.As(err, &se):
		return se.code
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, conc.ErrCanceled):
		// The client went away (or the run was interrupted): nothing
		// useful to say, but pick a distinguishable code for the logs.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// reply is one rendered /v1 reply: its body and, when already known,
// the body's checksum (api.BodySum). The whole-batch memo stores replies
// with their checksum, so a memo hit replays both without rehashing.
type reply struct {
	body []byte
	sum  string
}

// write sends one /v1 reply: every reply, success or error, leaves
// through it. It sets the Content-Length, so no reply is sent chunked,
// and the end-to-end body checksum (api.BodySumHeader): clients verify
// it and retry on mismatch, turning in-transit corruption from a
// silently wrong answer into a transient error.
func write(w http.ResponseWriter, code int, rep reply) {
	if rep.sum == "" {
		rep.sum = api.BodySum(rep.body)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set(api.BodySumHeader, rep.sum)
	h.Set("Content-Length", strconv.Itoa(len(rep.body)))
	w.WriteHeader(code)
	w.Write(rep.body)
}

// writeError sends err as an api.ErrorResponse with status code.
func writeError(w http.ResponseWriter, code int, err error) {
	// A version and a message always marshal.
	b, _ := json.Marshal(api.ErrorResponse{Version: api.APIVersion, Error: err.Error()})
	write(w, code, reply{body: append(b, '\n')})
}

// checkVersion rejects requests from a different protocol generation.
// An empty version is accepted as "current" for curl-friendliness.
func checkVersion(v string) error {
	if v != "" && v != api.APIVersion {
		return badRequest("unsupported api version %q (server speaks %s)", v, api.APIVersion)
	}
	return nil
}

// admit runs the shared admission prologue: an admission ticket (or an
// immediate 429 — no ticket free means the daemon is saturated past its
// queue, so shed so callers back off instead of piling on), the
// per-request deadline, and a work slot (or 504 when the deadline
// expires first — the deadline keeps queue time bounded). On success
// the caller must defer release; on failure the response has been
// written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, errc, rejected, timeouts *obs.Counter) (ctx context.Context, release func(), ok bool) {
	select {
	case s.queue <- struct{}{}:
	default:
		rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			errors.New("server saturated: admission queue full"))
		return nil, nil, false
	}

	ctx = obs.With(r.Context(), s.reg)
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)

	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		timeouts.Inc()
		errc.Inc()
		writeError(w, http.StatusGatewayTimeout,
			errors.New("deadline expired waiting for a work slot"))
		cancel()
		<-s.queue
		return nil, nil, false
	}
	return ctx, func() {
		<-s.slots
		cancel()
		<-s.queue
	}, true
}

// route serves one POST /v1 endpoint: admission (queue ticket or 429),
// the per-request deadline, the body read, the endpoint's answer, the
// status taxonomy and the endpoint's counters and duration histogram,
// which times the whole answer: decode, handler and render, or a memo
// replay.
func (s *Server) route(name string, answer func(ctx context.Context, raw []byte) (reply, error)) http.Handler {
	hist := s.reg.Histogram("serve." + name + ".seconds")
	okc := s.reg.Counter("serve." + name + ".ok")
	errc := s.reg.Counter("serve." + name + ".err")
	rejected := s.reg.Counter("serve.rejected")
	timeouts := s.reg.Counter("serve.timeouts")

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, release, ok := s.admit(w, r, errc, rejected, timeouts)
		if !ok {
			return
		}
		defer release()

		raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			errc.Inc()
			writeError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
			return
		}
		t0 := time.Now()
		rep, err := answer(ctx, raw)
		hist.Since(t0)
		if err != nil {
			code := status(err)
			if code == http.StatusGatewayTimeout {
				timeouts.Inc()
			}
			errc.Inc()
			writeError(w, code, err)
			return
		}
		okc.Inc()
		write(w, http.StatusOK, rep)
	})
}

// single adapts a typed handler to route: it decodes the body into Req,
// runs fn and renders its response. Unlike a json.Decoder, Unmarshal
// refuses anything but whitespace after the value, so a body carrying a
// second value or trailing garbage is refused instead of answered in
// part. A response that does not render (a NaN, say) is a 500.
func single[Req any](fn func(ctx context.Context, req *Req) (any, error)) func(context.Context, []byte) (reply, error) {
	return func(ctx context.Context, raw []byte) (reply, error) {
		var req Req
		if err := json.Unmarshal(raw, &req); err != nil {
			return reply{}, badRequest("decode request: %v", err)
		}
		v, err := fn(ctx, &req)
		if err != nil {
			return reply{}, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return reply{}, fmt.Errorf("render reply: %w", err)
		}
		return reply{body: append(b, '\n')}, nil
	}
}

// maxMemoBody bounds the size of a whole-batch reply kept in the memo;
// a paths-heavy batch can render megabytes, and the LRU is
// entry-counted, not byte-counted.
const maxMemoBody = 1 << 20

// batchReply answers POST /v1/batch through the outer of the two batch
// memo levels: a byte-identical repeat of a fully successful batch
// request, keyed by its raw bytes, replays the stored reply without
// decoding or rendering anything. The per-item memo (batch.go) covers
// batches that merely overlap; this covers the periodic monitor-sweep
// pattern where the same batch recurs verbatim. Replies carrying any
// per-item error are never memoized, so transient failures cannot
// stick.
func (s *Server) batchReply(ctx context.Context, raw []byte) (reply, error) {
	key := "body|" + string(raw)
	if v, ok := s.cache.peek(key); ok {
		s.reg.Counter("serve.batch.body_hits").Inc()
		return v.(reply), nil
	}
	var req batchRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return reply{}, badRequest("decode request: %v", err)
	}
	b, clean, err := s.batch(ctx, &req)
	if err != nil {
		return reply{}, err
	}
	rep := reply{body: b, sum: api.BodySum(b)}
	if clean && len(b) <= maxMemoBody {
		s.cache.put(key, rep)
	}
	return rep, nil
}
