package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"ageguard/pkg/ageguard/api"
	"ageguard/pkg/ageguard/client"
)

// Smoke starts a Server for cfg on a loopback listener, issues one
// query per endpoint (the six POST /v1 endpoints plus the health,
// metrics and pprof GETs), asserts every one succeeds, then cancels the
// serve context and asserts the drain is clean. It is the make
// serve-smoke / CI gate: a fast end-to-end proof that the daemon comes
// up, answers every route and shuts down without error.
func Smoke(ctx context.Context, cfg Config, lg *log.Logger) error {
	const circuit = "RISC-5P" // the benchmark circuit every query names
	if cfg.DrainGrace <= 0 {
		// Long enough for the drain leg below to observe not-ready
		// before the listener closes.
		cfg.DrainGrace = 250 * time.Millisecond
	}
	s := New(cfg, nil)
	fence := make(chan struct{})
	s.warmFence = fence // hold the warm scan so "not ready yet" is observable

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// The server's lifetime is managed by stop/done below, not by the
	// caller's ctx, so the drain stays clean even when ctx is canceled.
	serveCtx, stop := context.WithCancel(context.WithoutCancel(ctx))
	done := make(chan error, 1)
	go func() { done <- s.Serve(serveCtx, ln) }()
	defer stop()

	base := "http://" + ln.Addr().String()
	cl := client.New(base)
	scen := api.Scenario{Kind: "worst"}

	// expectNotReady asserts /readyz answers 503 while /healthz stays OK
	// — warming up (before the fence opens) and draining both look like
	// this to a load balancer.
	expectNotReady := func() error {
		if err := cl.Healthz(ctx); err != nil {
			return fmt.Errorf("liveness lost: %w", err)
		}
		err := cl.Readyz(ctx)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("readyz = %v, want 503", err)
		}
		return nil
	}

	step := func(name string, fn func() error) error {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lg.Printf("smoke: %-12s ok in %v", name, time.Since(t0).Round(time.Millisecond))
		return nil
	}
	get := func(path string) func() error {
		return func() error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
			if err != nil {
				return err
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			return nil
		}
	}

	checks := []struct {
		name string
		fn   func() error
	}{
		{"warming", expectNotReady},
		{"readyz", func() error {
			close(fence)
			deadline := time.Now().Add(10 * time.Second)
			for {
				err := cl.Readyz(ctx)
				if err == nil {
					return nil
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("never became ready: %w", err)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}},
		{"healthz", func() error { return cl.Healthz(ctx) }},
		{"guardband", func() error {
			resp, err := cl.Guardband(ctx, api.GuardbandRequest{Circuit: circuit, Scenario: scen})
			if err != nil {
				return err
			}
			if resp.AgedCPs <= resp.FreshCPs {
				return fmt.Errorf("implausible CPs: fresh=%g aged=%g", resp.FreshCPs, resp.AgedCPs)
			}
			return nil
		}},
		{"celltiming", func() error {
			resp, err := cl.CellTiming(ctx, api.CellTimingRequest{
				Cell: "INV_X1", Scenario: scen, InSlewS: 20e-12, LoadF: 2e-15,
			})
			if err != nil {
				return err
			}
			if len(resp.Arcs) == 0 {
				return fmt.Errorf("no arcs for INV_X1")
			}
			return nil
		}},
		{"paths", func() error {
			resp, err := cl.Paths(ctx, api.PathsRequest{Circuit: circuit, Scenario: scen, K: 3})
			if err != nil {
				return err
			}
			if len(resp.Paths) == 0 {
				return fmt.Errorf("no paths")
			}
			return nil
		}},
		{"grid", func() error {
			resp, err := cl.Grid(ctx, api.GridRequest{Circuit: circuit})
			if err != nil {
				return err
			}
			if resp.WorstGuardbandS <= 0 {
				return fmt.Errorf("worst guardband %g not positive", resp.WorstGuardbandS)
			}
			return nil
		}},
		{"batch", func() error {
			gbItem := api.GuardbandItem(api.GuardbandRequest{Circuit: circuit, Scenario: scen})
			resp, err := cl.Batch(ctx, []api.BatchItem{
				gbItem,
				api.CellTimingItem(api.CellTimingRequest{
					Cell: "INV_X1", Scenario: scen, InSlewS: 20e-12, LoadF: 2e-15,
				}),
				api.PathsItem(api.PathsRequest{Circuit: circuit, Scenario: scen, K: 2}),
				gbItem,
				{Kind: "teleport"}, // malformed: must fail alone, with a 400
			})
			if err != nil {
				return err
			}
			last := len(resp.Items) - 1
			for i, it := range resp.Items[:last] {
				if it.Error != nil {
					return fmt.Errorf("item %d: %d %s", i, it.Error.Status, it.Error.Message)
				}
			}
			if e := resp.Items[last].Error; e == nil || e.Status != http.StatusBadRequest {
				return fmt.Errorf("malformed item: error %+v, want status 400", e)
			}
			gb := resp.Items[0].Guardband
			if gb == nil || gb.AgedCPs <= gb.FreshCPs {
				return fmt.Errorf("implausible batched guardband: %+v", gb)
			}
			if dup := resp.Items[3].Guardband; dup == nil || *dup != *gb {
				return fmt.Errorf("duplicate guardband item %+v differs from %+v", dup, gb)
			}
			return nil
		}},
		{"mcguardband", func() error {
			resp, err := cl.MCGuardband(ctx, api.MCGuardbandRequest{
				Circuit: circuit, Scenario: scen, Samples: 8, Seed: 1, Bins: 8,
			})
			if err != nil {
				return err
			}
			if resp.Samples != 8 || resp.MeanS <= 0 || resp.MaxS < resp.MinS {
				return fmt.Errorf("implausible mc distribution: %+v", resp)
			}
			return nil
		}},
		{"metrics", get("/metrics")},
		{"metrics.json", get("/metrics.json")},
		{"pprof", get("/debug/pprof/")},
	}
	for _, c := range checks {
		if err := step(c.name, c.fn); err != nil {
			return err
		}
	}

	// Drain: readiness must flip back to 503 during the grace window
	// (liveness intact), then Serve must return cleanly.
	stop()
	if err := step("draining", func() error {
		deadline := time.Now().Add(cfg.DrainGrace)
		for {
			err := expectNotReady()
			if err == nil {
				return nil
			}
			if time.Now().After(deadline) {
				return err
			}
			time.Sleep(5 * time.Millisecond)
		}
	}); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	lg.Printf("smoke: drain        ok")
	return nil
}
