// Package conc provides the small concurrency primitives the
// characterization and experiment pipelines are built on: an errgroup-style
// Group with first-error cancellation, a bounded parallel-for, a weighted
// Limiter that can be shared across nested fan-outs so the total number of
// in-flight leaf tasks stays bounded regardless of nesting depth, and a
// singleflight Flight that deduplicates concurrent identical work.
//
// Everything here is dependency-free by design (the repository is stdlib
// only) and deliberately minimal: deterministic result assembly is the
// caller's job (workers write into pre-indexed slots, never append).
package conc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ErrCanceled is the sentinel every pipeline layer wraps (with %w) when
// work stops because its context was canceled, so callers distinguish
// "the user interrupted the run" from real failures with errors.Is
// instead of string matching. Errors wrapped via WrapCanceled also match
// the underlying context.Canceled / context.DeadlineExceeded.
var ErrCanceled = errors.New("pipeline canceled")

// WrapCanceled converts a context cancellation error into one that also
// matches ErrCanceled; nil and unrelated errors pass through unchanged.
func WrapCanceled(err error) error {
	if err == nil || errors.Is(err, ErrCanceled) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// Workers resolves a Parallelism knob to a worker count: values <= 0 select
// GOMAXPROCS (all available CPUs), 1 means serial, anything else is taken
// as-is.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Group runs tasks on goroutines and collects the first error. Unlike a
// bare WaitGroup it cancels the derived context as soon as any task fails,
// so siblings can stop early. The zero value is not usable; construct with
// NewGroup.
type Group struct {
	wg     sync.WaitGroup
	cancel context.CancelFunc
	sem    chan struct{} // non-nil after SetLimit

	once sync.Once
	err  error
}

// NewGroup returns a Group and a context derived from ctx that is canceled
// when any task returns a non-nil error or when Wait returns.
func NewGroup(ctx context.Context) (*Group, context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	return &Group{cancel: cancel}, ctx
}

// SetLimit bounds the number of concurrently running tasks; Go blocks while
// the limit is reached. Must be called before the first Go.
func (g *Group) SetLimit(n int) {
	g.sem = make(chan struct{}, n)
}

// Go schedules fn on a new goroutine (blocking first if a limit is set and
// exhausted). The first non-nil error is retained and cancels the group
// context.
func (g *Group) Go(fn func() error) {
	if g.sem != nil {
		g.sem <- struct{}{}
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if g.sem != nil {
			defer func() { <-g.sem }()
		}
		if err := fn(); err != nil {
			g.once.Do(func() {
				g.err = err
				g.cancel()
			})
		}
	}()
}

// Wait blocks until every scheduled task has returned, cancels the group
// context, and reports the first error.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}

// ParFor runs fn(i) for every i in [0, n) on up to workers goroutines
// (Workers-resolved) and returns the first error; remaining iterations are
// skipped once an error occurs or ctx is done, and a ctx that stopped
// dispatch early is reported as ctx.Err(). workers == 1 (or n <= 1)
// executes inline with no goroutines, preserving exact serial behavior
// (fn alone observes ctx there). fn must be safe for concurrent invocation
// with distinct i; writing result i into slot i of a pre-sized slice keeps
// assembly deterministic.
func ParFor(ctx context.Context, workers, n int, fn func(i int) error) error {
	workers = Workers(workers)
	if workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	g, gctx := NewGroup(ctx)
	g.SetLimit(workers)
	dispatched := 0
	for i := 0; i < n; i++ {
		if gctx.Err() != nil {
			break // a sibling failed or the caller canceled; stop dispatching
		}
		g.Go(func() error { return fn(i) })
		dispatched++
	}
	err := g.Wait()
	if err == nil && dispatched < n {
		err = ctx.Err() // no task failed, so the caller's ctx stopped dispatch
	}
	return err
}

// Limiter bounds the number of concurrently executing leaf tasks. It is a
// counting semaphore intended to be shared across nested fan-outs (e.g.
// scenarios -> cells -> grid points): only the leaves acquire tokens, so
// the bound holds globally and nesting cannot deadlock.
type Limiter chan struct{}

// NewLimiter returns a Limiter admitting Workers(n) concurrent holders.
func NewLimiter(n int) Limiter { return make(Limiter, Workers(n)) }

// Cap returns the number of tokens (the concurrency bound).
func (l Limiter) Cap() int { return cap(l) }

// Acquire blocks until a token is available or ctx is done. A done ctx
// wins over an available token: without the up-front check, select picks
// randomly when both cases are ready, and after a cancellation roughly
// half of the queued waiters would still grab tokens and start work.
func (l Limiter) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case l <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a token acquired with Acquire.
func (l Limiter) Release() { <-l }

// Flight deduplicates concurrent calls that would perform identical work:
// while a call for a key is in flight, later callers with the same key wait
// for and share its result instead of repeating the work. Calls that fail
// are not cached — the next caller retries. A call whose fn panics fails
// its waiters with an error carrying the panic value, frees the key for
// the next caller and re-panics in its own caller. The zero value is
// ready to use.
type Flight[T any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[T]
}

type flightCall[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Do executes fn for key, unless an identical call is already in flight, in
// which case it waits and returns that call's result. If the shared call
// died of its own cancellation or deadline (context.Canceled,
// context.DeadlineExceeded or ErrCanceled) but ctx itself is still live,
// the leader belonged to a different, since-stopped pipeline: this caller
// takes the work over rather than failing with a foreign error.
func (f *Flight[T]) Do(ctx context.Context, key string, fn func() (T, error)) (T, error) {
	for {
		f.mu.Lock()
		if f.m == nil {
			f.m = map[string]*flightCall[T]{}
		}
		if c, ok := f.m[key]; ok {
			f.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				var zero T
				return zero, ctx.Err()
			}
			if ctx.Err() == nil && canceled(c.err) {
				continue // leader was stopped, we are not: take over
			}
			return c.val, c.err
		}
		c := &flightCall[T]{done: make(chan struct{})}
		f.m[key] = c
		f.mu.Unlock()
		f.lead(key, c, fn)
		return c.val, c.err
	}
}

// canceled reports whether err means its pipeline was stopped rather
// than that the work failed.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrCanceled)
}

// lead runs fn as key's leader and publishes its result. The key is
// released in a deferred call, so a panicking fn cannot leave it held
// and every later Do for it waiting forever.
func (f *Flight[T]) lead(key string, c *flightCall[T], fn func() (T, error)) {
	returned := false
	defer func() {
		var r any
		if !returned {
			r = recover()
			c.err = fmt.Errorf("conc: flight %q: fn panicked: %v", key, r)
		}
		f.mu.Lock()
		delete(f.m, key)
		f.mu.Unlock()
		close(c.done)
		if r != nil {
			panic(r)
		}
	}()
	c.val, c.err = fn()
	returned = true
}
