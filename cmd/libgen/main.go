// Command libgen generates degradation-aware cell libraries (the paper's
// Sec. 4.1 artifact): one .alib per duty-cycle scenario, optionally the
// full 121-library grid, and the merged lambda-indexed complete library.
//
// Usage:
//
//	libgen -out libs -years 10            # fresh + worst-case + balance
//	libgen -out libs -years 10 -grid      # all 121 lambda combinations
//	libgen -out libs -years 10 -merged    # additionally write complete.alib
//	libgen -grid -j 4                     # cap the simulation worker pool
//	libgen -grid -metrics -trace-out run.json -pprof :6060
//	libgen -grid -retries 4 -timeout 2h   # deeper solver ladder, time budget
//	libgen -strict                        # refuse interpolated grid points
//
// Characterization runs on a worker pool using every CPU by default; -j
// bounds it (1 = serial). Scenario output order is always deterministic.
// Ctrl-C cancels the run cleanly: in-flight transient simulations stop
// within one time step and no partial cache entries are left behind.
//
// Runs are fault tolerant by default: a non-convergent transient climbs a
// solver escalation ladder (-retries rungs), isolated permanently failing
// grid points are salvaged by neighbor interpolation (disable with
// -strict), and a scenario that still fails does not abort the remaining
// scenarios — libgen finishes the rest and exits nonzero listing the
// failures. With a cache directory, completed cells are checkpointed on
// disk, so a killed or crashed run resumes where it left off.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ageguard/internal/aging"
	"ageguard/internal/atomicfile"
	"ageguard/internal/char"
	"ageguard/internal/cli"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
)

func main() {
	var (
		out    = flag.String("out", "libs", "output directory")
		years  = flag.Float64("years", 10, "projected lifetime in years")
		grid   = flag.Bool("grid", false, "generate the full 11x11 duty-cycle grid (121 libraries)")
		merged = flag.Bool("merged", false, "also write the merged complete library")
		libFmt = flag.Bool("liberty", false, "additionally emit genuine Liberty (.lib) syntax")
		cache  = flag.String("cache", char.RepoCacheDir(), "characterization cache directory ('' disables)")
		par    = flag.Int("j", 0, "parallel simulation workers (0 = all CPUs, 1 = serial)")
		cells  = flag.String("cells", "", "comma-separated cell subset (default: all cells)")
	)
	c := cli.Register("libgen", flag.CommandLine)
	flag.Parse()

	c.Main(context.Background(), func(ctx context.Context) error {
		return run(ctx, *out, *years, *grid, *merged, *libFmt, *cache, *par, *cells, c.Retries, c.Strict)
	})
}

func run(ctx context.Context, out string, years float64, grid, merged, libFmt bool, cache string, par int, cellList string, retries int, strict bool) error {
	ctx, sp := obs.StartSpan(ctx, "libgen.run")
	defer sp.End()

	cfg := char.DefaultConfig()
	cfg.CacheDir, cfg.Parallelism = cache, par
	cfg.Retries, cfg.Strict = retries, strict
	if cellList != "" {
		cfg.Cells = strings.Split(cellList, ",")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	scenarios := []aging.Scenario{
		aging.Fresh(),
		aging.WorstCase(years),
		aging.BalanceCase(years),
	}
	if grid {
		scenarios = append([]aging.Scenario{aging.Fresh()}, aging.GridScenarios(years)...)
	}

	// A permanently failing scenario is reported and skipped so the rest
	// of the run (often hours of grid characterization) still completes;
	// only cancellation — Ctrl-C or -timeout — aborts everything.
	var libs []*liberty.Library
	var failed []*char.ScenarioError
	for i, s := range scenarios {
		cfg.Progress = func(done, total int) {
			fmt.Printf("\r[%d/%d] %-24s cell %d/%d   ", i+1, len(scenarios), s, done, total)
		}
		lib, err := cfg.Characterize(ctx, s)
		if err != nil {
			fmt.Println()
			if errors.Is(err, char.ErrCanceled) {
				return err
			}
			log.Printf("scenario %s failed: %v", s, err)
			failed = append(failed, &char.ScenarioError{Scenario: s, Err: err})
			continue
		}
		libs = append(libs, lib)
		path := filepath.Join(out, lib.Name+".alib")
		if err := writeLib(path, lib, liberty.Write); err != nil {
			return err
		}
		if libFmt {
			if err := writeLib(filepath.Join(out, lib.Name+".lib"), lib, liberty.WriteLiberty); err != nil {
				return err
			}
		}
		fmt.Printf("\r[%d/%d] %-24s -> %s%20s\n", i+1, len(scenarios), s, path, "")
	}

	if merged && len(libs) > 0 {
		m := liberty.MergeLibraries("complete", libs)
		path := filepath.Join(out, "complete.alib")
		if err := writeLib(path, &m.Library, liberty.Write); err != nil {
			return err
		}
		fmt.Printf("merged %d libraries (%d cells) -> %s\n", len(libs), len(m.Cells), path)
	}
	if len(failed) > 0 {
		return &char.SweepError{Failed: failed, Total: len(scenarios)}
	}
	return nil
}

// writeLib writes lib to path in the given format, atomically.
func writeLib(path string, lib *liberty.Library, write func(io.Writer, *liberty.Library) error) error {
	return atomicfile.Write(path, func(w io.Writer) error { return write(w, lib) })
}
