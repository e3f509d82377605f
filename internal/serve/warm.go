package serve

import (
	"context"
	"os"
	"time"

	"ageguard/internal/char"
	"ageguard/internal/obs"
)

// Crash-safe warm start and the background scrubber.
//
// A daemon killed mid-run loses its in-memory LRU but not the disk
// caches its characterizations left behind. On boot the warm-start scan
// walks the library cache directory, verifies every entry written for
// this config hash (char.VerifyCacheFile: the trailing #SUM checksum,
// which every entry must carry, then the parser's structural checks)
// and pre-populates the LRU, so the first repeat query after a restart
// is served from the warm path instead of re-characterizing. Files that
// fail verification, including files whose checksum line is missing or
// whose marker is damaged, are quarantined — renamed aside with a
// .corrupt suffix — so the next miss re-characterizes cleanly instead
// of tripping over the same bad bytes forever. The scrubber repeats the
// verification sweep periodically to catch corruption that lands while
// the daemon runs. It sweeps every .alib file of the directory, so it
// also quarantines files of old config hashes written before the
// checksum existed, which no current config loads.
//
// Readiness is split from liveness: /healthz answers as soon as the
// listener is up (the process is alive), /readyz answers 200 only after
// the warm-start scan completes and until the drain begins, so load
// balancers neither route to a cold instance nor to a dying one.

// quarantineSuffix is appended to cache files that fail verification.
// The rename takes them out of every cache lookup (nothing matches
// *.alib any more) while preserving the bytes for post-mortems.
const quarantineSuffix = ".corrupt"

// quarantine moves a corrupt cache file aside and counts it.
func quarantine(path string, c *obs.Counter) {
	if err := os.Rename(path, path+quarantineSuffix); err == nil {
		c.Inc()
	}
}

// readyNow reports readiness: the warm-start scan has completed and the
// daemon is not draining.
func (s *Server) readyNow() bool {
	select {
	case <-s.warmed:
	default:
		return false
	}
	return !s.draining.Load()
}

// warm runs the boot-time scan and then marks the daemon ready (by
// closing s.warmed). With WarmStart disabled it only flips readiness.
func (s *Server) warm(ctx context.Context) {
	defer close(s.warmed)
	if s.warmFence != nil {
		<-s.warmFence
	}
	if !s.cfg.WarmStart {
		return
	}
	t0 := time.Now()
	scanned := s.reg.Counter("serve.warm.scanned")
	loaded := s.reg.Counter("serve.warm.loaded")
	quarantined := s.reg.Counter("serve.warm.quarantined")
	errs := s.reg.Counter("serve.warm.errors")

	paths, err := s.cfg.Flow.Char.CacheEntries()
	if err != nil {
		errs.Inc()
		return
	}
	for _, p := range paths {
		if ctx.Err() != nil {
			return
		}
		scanned.Inc()
		lib, err := char.VerifyCacheFile(p)
		if err != nil {
			quarantine(p, quarantined)
			continue
		}
		s.cache.put("lib|"+lib.Scenario.ExactKey(), lib)
		loaded.Inc()
	}
	s.reg.Histogram("serve.warm.seconds").Since(t0)
}

// scrub re-verifies the on-disk library cache every ScrubInterval until
// ctx is canceled, quarantining entries that rot while the daemon runs.
func (s *Server) scrub(ctx context.Context) {
	tk := time.NewTicker(s.cfg.ScrubInterval)
	defer tk.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tk.C:
		}
		s.scrubPass(ctx)
	}
}

// scrubPass verifies every .alib file in the cache directory once. It
// sweeps the whole directory, not just this config's entries: a corrupt
// file is a corrupt file no matter which config wrote it.
func (s *Server) scrubPass(ctx context.Context) {
	checked := s.reg.Counter("serve.scrub.checked")
	quarantined := s.reg.Counter("serve.scrub.quarantined")

	paths, err := char.CacheLibraries(s.cfg.Flow.Char.CacheDir)
	if err != nil {
		return
	}
	for _, p := range paths {
		if ctx.Err() != nil {
			return
		}
		checked.Inc()
		if _, err := char.VerifyCacheFile(p); err != nil {
			quarantine(p, quarantined)
		}
	}
	s.reg.Counter("serve.scrub.passes").Inc()
}
