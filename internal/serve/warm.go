package serve

import (
	"context"
	"os"
	"time"

	"ageguard/internal/atomicfile"
	"ageguard/internal/char"
	"ageguard/internal/obs"
)

// Crash-safe warm start and the background scrubber.
//
// A daemon killed mid-run loses its in-memory LRU but not the disk
// caches its characterizations left behind. On boot the warm-start scan
// walks the library cache directory, verifies every entry written for
// this config (char.CacheEntries lists them by name, current-form names
// only; char.VerifyCacheFile checks the file's seal, then the parser's
// structural checks) and pre-populates the LRU, so the first repeat
// query after a restart is served from the warm path instead of
// re-characterizing. Files that fail verification are quarantined —
// renamed aside with a .corrupt suffix — so the next miss
// re-characterizes cleanly instead of tripping over the same bad bytes
// forever. The scrubber catches bytes that change after they were
// written, while the daemon runs: it checks only the seal (atomicfile)
// of every cache file of the directory (char.CacheFiles), of any config
// or kind. The structural checks stay with the loaders, which rebuild
// what fails them.
//
// Readiness is split from liveness: /healthz answers as soon as the
// listener is up (the process is alive), /readyz answers 200 only after
// the warm-start scan completes and until the drain begins, so load
// balancers neither route to a cold instance nor to a dying one.

// quarantineSuffix is appended to cache files that fail verification.
// The rename takes them out of every cache lookup (no library,
// sensitivity file or netlist name matches any more) while preserving
// the bytes for post-mortems.
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

// scrub re-verifies the on-disk cache every ScrubInterval until ctx is
// canceled, quarantining files that rot while the daemon runs.
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

// scrubPass checks the seal of every cache file in the directory once
// (char.CacheFiles, atomicfile.ReadSealed). It sweeps the whole
// directory, not just this config's files: a corrupt file is a corrupt
// file no matter which config wrote it.
func (s *Server) scrubPass(ctx context.Context) {
	checked := s.reg.Counter("serve.scrub.checked")
	quarantined := s.reg.Counter("serve.scrub.quarantined")

	paths, err := char.CacheFiles(s.cfg.Flow.Char.CacheDir)
	if err != nil {
		return
	}
	for _, p := range paths {
		if ctx.Err() != nil {
			return
		}
		checked.Inc()
		if _, err := atomicfile.ReadSealed(p); err != nil {
			quarantine(p, quarantined)
		}
	}
	s.reg.Counter("serve.scrub.passes").Inc()
}
