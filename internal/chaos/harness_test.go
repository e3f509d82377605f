// Package chaos is a deterministic fault-injection harness for
// exercising the ageguardd client/server pair under adversity. It
// offers two injection points:
//
//   - Transport, an http.RoundTripper wrapper that delays requests,
//     fabricates connection resets and 5xx replies, and truncates or
//     corrupts response bodies at the HTTP layer;
//   - Proxy, a TCP relay that mangles the response byte stream below
//     HTTP — mid-stream resets, truncation, single-byte corruption —
//     the way a flaky network actually fails.
//
// Both draw every fault decision from one seeded PRNG behind a mutex,
// so a given seed replays the same fault sequence (per decision order),
// and both spend from a finite fault Budget: once it is exhausted the
// harness becomes a transparent pass-through. A finite budget plus a
// retrying client is what makes convergence provable — after at most
// Budget faulted exchanges every further attempt is clean, so a client
// with enough attempts always terminates with the true answer.
//
// Faults are injected only in the response direction (and before the
// request is sent, for resets/5xx). Corrupting a request in flight
// would make the server reject it with a terminal 400 and break the
// convergence guarantee; real middleboxes are equally capable of both,
// but the client property under test — no corrupt reply is ever
// accepted — is a response-side property.
//
// The harness lives in test files: only the convergence suite in
// chaos_test.go uses it.
package chaos

import (
	"math/rand"
	"sync"
	"time"
)

// Config parameterizes the fault mix. Probabilities are per decision
// point in [0, 1] and are checked in a fixed order (reset, 5xx,
// truncate, corrupt, delay); the first one whose draw succeeds (and
// whose budget remains) is injected.
type Config struct {
	// Seed fixes the PRNG; the same seed replays the same decisions.
	Seed int64

	// Budget is the total number of faults the harness may inject
	// before it becomes a pass-through. Zero or negative means no
	// faults at all — an unlimited budget would void the convergence
	// guarantee, so there deliberately isn't one.
	Budget int

	// PReset fabricates a connection reset.
	PReset float64
	// P5xx fabricates a 503 reply without contacting the server
	// (Transport only; carries a Retry-After hint).
	P5xx float64
	// PTruncate cuts the response short.
	PTruncate float64
	// PCorrupt flips one response byte.
	PCorrupt float64
	// PDelay stalls the exchange for up to MaxDelay.
	PDelay float64
	// MaxDelay bounds injected latency (default 50ms when PDelay > 0).
	MaxDelay time.Duration
}

// Fault kinds, as reported by Injected().
const (
	FaultReset    = "reset"
	Fault5xx      = "5xx"
	FaultTruncate = "truncate"
	FaultCorrupt  = "corrupt"
	FaultDelay    = "delay"
)

// injector is the shared deterministic decision engine.
type injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cfg    Config
	budget int
	counts map[string]int64
}

func newInjector(cfg Config) *injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	return &injector{
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		cfg:    cfg,
		budget: cfg.Budget,
		counts: map[string]int64{},
	}
}

// decide draws one fault decision among the given kinds, spending
// budget when a fault fires. Empty string means "no fault".
func (in *injector) decide(kinds ...string) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.budget <= 0 {
		return ""
	}
	for _, k := range kinds {
		var p float64
		switch k {
		case FaultReset:
			p = in.cfg.PReset
		case Fault5xx:
			p = in.cfg.P5xx
		case FaultTruncate:
			p = in.cfg.PTruncate
		case FaultCorrupt:
			p = in.cfg.PCorrupt
		case FaultDelay:
			p = in.cfg.PDelay
		}
		if p > 0 && in.rng.Float64() < p {
			in.budget--
			in.counts[k]++
			return k
		}
	}
	return ""
}

// intn draws a deterministic integer in [0, n).
func (in *injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n <= 1 {
		return 0
	}
	return in.rng.Intn(n)
}

// delay draws a deterministic latency in (0, MaxDelay].
func (in *injector) delay() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	d := time.Duration(in.rng.Int63n(int64(in.cfg.MaxDelay)))
	return d + 1
}

// injected returns a snapshot of the per-kind fault counts.
func (in *injector) injected() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// spent reports how much of the budget has been consumed.
func (in *injector) spent() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cfg.Budget - in.budget
}
