package conc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if w := Workers(4); w != 4 {
		t.Errorf("Workers(4) = %d", w)
	}
	if w := Workers(0); w < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", w)
	}
	if w := Workers(-3); w != Workers(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", w)
	}
}

func TestParForComputesAllSlots(t *testing.T) {
	const n = 100
	out := make([]int, n)
	err := ParFor(context.Background(), 8, n, func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

func TestParForSerialInline(t *testing.T) {
	// workers == 1 must run in order on the calling goroutine.
	var order []int
	err := ParFor(context.Background(), 1, 5, func(i int) error {
		order = append(order, i) // no lock: inline execution required
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestParForFirstErrorStopsDispatch(t *testing.T) {
	var started atomic.Int32
	boom := errors.New("boom")
	err := ParFor(context.Background(), 2, 1000, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n == 1000 {
		t.Error("error did not stop dispatch")
	}
}

// TestParForReportsCallerCancel: iterations skipped because the caller's
// ctx was canceled must not pass for done — whether ctx was canceled
// before dispatch or by a task mid-dispatch — and the error matches
// ErrCanceled, as a task's own cancel error does.
func TestParForReportsCallerCancel(t *testing.T) {
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	err := ParFor(pre, 2, 8, func(int) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled: err = %v, want context.Canceled and ErrCanceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("pre-canceled: %d calls, want 0", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls.Store(0)
	const n = 1000
	err = ParFor(ctx, 2, n, func(i int) error {
		calls.Add(1)
		if i == 0 {
			cancel()
		} else {
			<-ctx.Done() // hold the slot until fn(0) has canceled
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-dispatch: err = %v, want context.Canceled and ErrCanceled", err)
	}
	if c := calls.Load(); c >= n {
		t.Errorf("mid-dispatch: %d calls, want fewer than %d", c, n)
	}
}

func TestGroupCancelPropagates(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	boom := errors.New("boom")
	g.Go(func() error { return boom })
	g.Go(func() error {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("sibling failure did not cancel context")
		}
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v", err)
	}
}

func TestLimiterBoundsConcurrency(t *testing.T) {
	const cap, tasks = 3, 50
	lim := NewLimiter(cap)
	var cur, peak atomic.Int32
	g, ctx := NewGroup(context.Background())
	for i := 0; i < tasks; i++ {
		g.Go(func() error {
			if err := lim.Acquire(ctx); err != nil {
				return err
			}
			defer lim.Release()
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > cap {
		t.Errorf("peak concurrency %d exceeds limiter cap %d", p, cap)
	}
}

func TestLimiterAcquireHonorsCancel(t *testing.T) {
	lim := NewLimiter(1)
	if err := lim.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := lim.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on canceled ctx = %v", err)
	}
	lim.Release()
}

func TestFlightDeduplicates(t *testing.T) {
	var f Flight[int]
	var runs atomic.Int32
	var wg sync.WaitGroup
	release := make(chan struct{})
	results := make([]int, 16)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.Do(context.Background(), "k", func() (int, error) {
				runs.Add(1)
				<-release // hold every other caller in flight
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}()
	}
	// Give followers a moment to join the in-flight call, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d", i, v)
		}
	}
}

func TestFlightErrorNotCached(t *testing.T) {
	var f Flight[int]
	calls := 0
	_, err := f.Do(context.Background(), "k", func() (int, error) {
		calls++
		return 0, fmt.Errorf("fail %d", calls)
	})
	if err == nil {
		t.Fatal("want error")
	}
	v, err := f.Do(context.Background(), "k", func() (int, error) {
		calls++
		return 7, nil
	})
	if err != nil || v != 7 || calls != 2 {
		t.Fatalf("retry: v=%d err=%v calls=%d", v, err, calls)
	}
}

// TestFlightRetriesAfterLeaderCanceled: a waiter whose ctx is live takes
// the work over when the leader dies of its own cancellation or deadline,
// however the leader's error wraps it, instead of inheriting that error.
func TestFlightRetriesAfterLeaderCanceled(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"canceled", context.Canceled},
		{"deadline", context.DeadlineExceeded},
		{"wrapped_deadline", WrapCanceled(fmt.Errorf("char: cell INV_X1: %w", context.DeadlineExceeded))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f Flight[int]
			leaderIn := make(chan struct{})
			release := make(chan struct{})
			go func() {
				f.Do(context.Background(), "k", func() (int, error) {
					close(leaderIn)
					<-release
					return 0, tc.err // leader's own pipeline was stopped
				})
			}()
			<-leaderIn
			done := make(chan struct{})
			var v int
			var err error
			go func() {
				defer close(done)
				v, err = f.Do(context.Background(), "k", func() (int, error) { return 9, nil })
			}()
			// Release the leader only once the waiter has joined its call.
			for flightCallers("TestFlightRetriesAfterLeaderCanceled") < 2 {
				runtime.Gosched()
			}
			close(release)
			<-done
			if err != nil || v != 9 {
				t.Fatalf("follower after stopped leader: v=%d err=%v", v, err)
			}
		})
	}
}

// flightCallers counts the goroutines inside Flight.Do whose stack names
// the test function test.
func flightCallers(test string) (n int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, ".(*Flight[...]).Do(") && strings.Contains(g, test) {
			n++
		}
	}
	return n
}

// TestFlightPanicReleasesKey: a leader whose fn panics re-panics in its
// own caller, fails its waiter with an error carrying the panic value,
// and releases the key, so the next call runs fn instead of waiting for a
// call that will never finish.
func TestFlightPanicReleasesKey(t *testing.T) {
	var f Flight[int]
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		f.Do(context.Background(), "k", func() (int, error) {
			close(leaderIn)
			<-release
			panic("boom")
		})
	}()
	<-leaderIn
	waiterErr := make(chan error, 1)
	go func() {
		_, err := f.Do(context.Background(), "k", func() (int, error) { return 0, nil })
		waiterErr <- err
	}()
	// Once the waiter is inside Do it joins the leader's call, which
	// cannot finish before release is closed.
	for flightCallers("TestFlightPanicReleasesKey") < 2 {
		runtime.Gosched()
	}
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("leader's caller recovered %v, want the panic value boom", r)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	v, err := f.Do(ctx, "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("call after the panic = (%d, %v), want (7, nil): fn did not run again", v, err)
	}
	select {
	case err := <-waiterErr:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("waiter error = %v, want one carrying the panic value", err)
		}
	case <-ctx.Done():
		t.Fatal("waiter still blocked after the leader panicked")
	}
}
