// Command ageguardd serves guardband and timing queries over HTTP/JSON
// against pre-characterized degradation-aware libraries (wire types in
// pkg/ageguard/api, typed client in pkg/ageguard/client).
//
// Usage:
//
//	ageguardd                                # serve on :8347
//	ageguardd -addr :9000 -cache-size 256
//	ageguardd -quick                         # reduced 3x3 grid, smoke/dev
//	ageguardd -quick -smoke                  # one query per endpoint, then drain
//
// Endpoints: POST /v1/guardband, /v1/celltiming, /v1/grid, /v1/paths,
// /v1/mcguardband (process-variation Monte Carlo guardband
// distribution), /v1/batch (heterogeneous items, each answered as its
// single query, so shared subproblems characterize once); GET /healthz
// (liveness), /readyz (readiness: 503 until the -warm-start scan
// completes and again while draining), /metrics (text), /metrics.json,
// /debug/pprof.
//
// Queries answer from a bounded in-memory LRU of parsed libraries,
// synthesized netlists and compiled STA engines; concurrent identical
// cold queries characterize once (singleflight). Past the admission
// queue the daemon sheds load with 429 + Retry-After. Every request
// runs under -req-timeout, which propagates into the transient solver's
// per-time-step cancellation checks; expiry reports 504 and leaves no
// partial cache files. SIGTERM drains gracefully: the listener closes,
// in-flight requests finish, then the process exits.
//
// -smoke boots the daemon in-process on a loopback listener, issues one
// query per endpoint (including a heterogeneous batch) and asserts
// success plus a clean drain (the make serve-smoke / CI gate). The
// daemon's benchmark lives in perfbench/ (bash perfbench/run.sh).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"ageguard/internal/char"
	"ageguard/internal/cli"
	"ageguard/internal/core"
	"ageguard/internal/obs"
	"ageguard/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8347", "listen address")
		cacheSize   = flag.Int("cache-size", 128, "in-memory LRU entry bound")
		maxInflight = flag.Int("max-inflight", 4, "requests doing work concurrently")
		queueDepth  = flag.Int("queue", 16, "admission queue depth beyond -max-inflight")
		reqTimeout  = flag.Duration("req-timeout", 5*time.Minute, "per-request deadline")
		drain       = flag.Duration("drain-timeout", 2*time.Minute, "graceful shutdown bound on SIGTERM")
		years       = flag.Float64("years", 10, "default projected lifetime in years")
		cacheDir    = flag.String("cache", char.RepoCacheDir(), "characterization cache directory ('' disables)")
		quick       = flag.Bool("quick", false, "reduced 3x3 characterization grid (smoke tests, development)")
		smoke       = flag.Bool("smoke", false, "query every endpoint once in-process, then exit")
	)
	c := cli.Register("ageguardd", flag.CommandLine)
	sf := cli.RegisterServe(flag.CommandLine)
	flag.Parse()

	c.Main(context.Background(), func(ctx context.Context) error {
		charCfg := char.CachedConfig()
		if *quick {
			charCfg = char.TestConfig()
		}
		charCfg.CacheDir = *cacheDir
		flow := core.New(
			core.WithCharConfig(charCfg),
			core.WithLifetime(*years),
			core.WithRetries(c.Retries),
			core.WithStrict(c.Strict),
		)
		cfg := serve.Config{
			Flow:           flow,
			CacheSize:      *cacheSize,
			MaxInflight:    *maxInflight,
			QueueDepth:     *queueDepth,
			RequestTimeout: *reqTimeout,
			DrainTimeout:   *drain,
			WarmStart:      sf.WarmStart,
			ScrubInterval:  sf.ScrubInterval,
			DrainGrace:     sf.DrainGrace,
		}

		if *smoke {
			if err := serve.Smoke(ctx, cfg, log.Default()); err != nil {
				return err
			}
			fmt.Println("serve smoke OK")
			return nil
		}

		srv := serve.New(cfg, obs.From(ctx))
		log.Printf("serving on %s (api %s, cache %d entries, %d inflight + %d queued)",
			*addr, "v1", *cacheSize, *maxInflight, *queueDepth)
		return srv.Run(ctx, *addr)
	})
}
