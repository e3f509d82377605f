package char

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/conc"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
	"ageguard/internal/spice"
	"ageguard/internal/units"
)

// faultConfig returns a 5x5-grid single-cell configuration: 50 points per
// arc, so the 5% salvage budget is 2 — large enough to salvage two
// isolated failures and small enough to keep tests fast.
func faultConfig() Config {
	cfg := DefaultConfig()
	cfg.Slews = LogAxis(5*units.Ps, 947*units.Ps, 5)
	cfg.Loads = LogAxis(0.5*units.FF, 20*units.FF, 5)
	cfg.Cells = []string{"INV_X1"}
	return cfg
}

// failAt builds a FaultInject hook that fails the listed points with
// non-convergence on every retry rung (so the ladder exhausts).
func failAt(pts ...Point) func(Point, int) error {
	return func(p Point, attempt int) error {
		for _, f := range pts {
			if p.Edge == f.Edge && p.I == f.I && p.J == f.J {
				return spice.ErrNoConvergence
			}
		}
		return nil
	}
}

// TestSalvageIsolatedPoints injects permanent non-convergence at exactly
// two isolated grid points and verifies both are salvaged — interpolated,
// marked in the library metadata, and counted — while every other point
// is simulated normally.
func TestSalvageIsolatedPoints(t *testing.T) {
	cfg := faultConfig()
	cfg.FaultInject = failAt(
		Point{Edge: liberty.Rise, I: 0, J: 0},
		Point{Edge: liberty.Fall, I: 4, J: 4},
	)
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	lib, err := cfg.Characterize(ctx, aging.WorstCase(10))
	if err != nil {
		t.Fatal(err)
	}
	if n := lib.SalvagedPoints(); n != 2 {
		t.Fatalf("SalvagedPoints = %d, want 2", n)
	}
	if n := reg.Counter("char.salvaged").Value(); n != 2 {
		t.Errorf("char.salvaged = %d, want 2", n)
	}
	if n := reg.Counter("spice.retry.exhausted").Value(); n != 2 {
		t.Errorf("spice.retry.exhausted = %d, want 2", n)
	}
	ct := lib.MustCell("INV_X1")
	if len(ct.Arcs) != 1 {
		t.Fatalf("INV_X1 has %d arcs, want 1", len(ct.Arcs))
	}
	arc := ct.Arcs[0]
	want := []liberty.SalvagePoint{{Edge: liberty.Rise, I: 0, J: 0}, {Edge: liberty.Fall, I: 4, J: 4}}
	if fmt.Sprint(arc.Salvaged) != fmt.Sprint(want) {
		t.Errorf("Salvaged = %v, want %v", arc.Salvaged, want)
	}
	// Interpolated entries are physical: positive, and between the
	// neighboring values they were averaged from.
	for _, sp := range want {
		d := arc.Delay[sp.Edge].Values[sp.I][sp.J]
		sl := arc.OutSlew[sp.Edge].Values[sp.I][sp.J]
		if d <= 0 || sl <= 0 {
			t.Errorf("salvaged point %v has non-physical delay %g / slew %g", sp, d, sl)
		}
	}
}

// TestSalvageRetryRecoveryNeedsNoSalvage: a point that fails only on the
// first rung is rescued by the escalation ladder, so nothing is salvaged.
func TestSalvageRetryRecoveryNeedsNoSalvage(t *testing.T) {
	cfg := faultConfig()
	cfg.FaultInject = func(p Point, attempt int) error {
		if p.Edge == liberty.Rise && p.I == 2 && p.J == 2 && attempt == 0 {
			return spice.ErrNoConvergence
		}
		return nil
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	lib, err := cfg.Characterize(ctx, aging.WorstCase(10))
	if err != nil {
		t.Fatal(err)
	}
	if n := lib.SalvagedPoints(); n != 0 {
		t.Errorf("SalvagedPoints = %d, want 0 (ladder recovered)", n)
	}
	if n := reg.Counter("spice.retry.recovered").Value(); n != 1 {
		t.Errorf("spice.retry.recovered = %d, want 1", n)
	}
	if n := reg.Counter("char.salvaged").Value(); n != 0 {
		t.Errorf("char.salvaged = %d, want 0", n)
	}
}

// TestStrictFailsWithPointError: under Strict the same isolated failure
// aborts characterization with an error identifying the exact point.
func TestStrictFailsWithPointError(t *testing.T) {
	cfg := faultConfig()
	cfg.Strict = true
	cfg.FaultInject = failAt(Point{Edge: liberty.Rise, I: 0, J: 0})
	_, err := cfg.Characterize(context.Background(), aging.WorstCase(10))
	if err == nil {
		t.Fatal("strict characterization with a failing point returned nil")
	}
	if !errors.Is(err, spice.ErrNoConvergence) {
		t.Errorf("error %v does not match spice.ErrNoConvergence", err)
	}
	for _, frag := range []string{"INV_X1", "slew=", "load=", "rise"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("strict error %q does not identify the point (missing %q)", err, frag)
		}
	}
}

// TestSalvageBudgetExceeded: three isolated failures exceed the 5x5
// grid's 2-point budget and fail the arc with ErrSalvage.
func TestSalvageBudgetExceeded(t *testing.T) {
	cfg := faultConfig()
	cfg.FaultInject = failAt(
		Point{Edge: liberty.Rise, I: 0, J: 0},
		Point{Edge: liberty.Rise, I: 2, J: 2},
		Point{Edge: liberty.Fall, I: 4, J: 4},
	)
	_, err := cfg.Characterize(context.Background(), aging.WorstCase(10))
	if !errors.Is(err, ErrSalvage) {
		t.Fatalf("got %v, want ErrSalvage", err)
	}
	if !errors.Is(err, spice.ErrNoConvergence) {
		t.Errorf("budget error %v does not expose the underlying non-convergence", err)
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("error %q does not mention the budget", err)
	}
}

// TestSalvageAdjacentRejected: two failures adjacent on the same edge's
// grid cannot both be interpolated and fail the arc with ErrSalvage.
func TestSalvageAdjacentRejected(t *testing.T) {
	cfg := faultConfig()
	cfg.FaultInject = failAt(
		Point{Edge: liberty.Rise, I: 0, J: 0},
		Point{Edge: liberty.Rise, I: 0, J: 1},
	)
	_, err := cfg.Characterize(context.Background(), aging.WorstCase(10))
	if !errors.Is(err, ErrSalvage) {
		t.Fatalf("got %v, want ErrSalvage", err)
	}
	if !strings.Contains(err.Error(), "adjacent") {
		t.Errorf("error %q does not mention adjacency", err)
	}
}

// TestSalvageOppositeEdgesNotAdjacent: the same (i, j) failing on both
// output edges is two isolated holes, not an adjacency violation.
func TestSalvageOppositeEdgesNotAdjacent(t *testing.T) {
	cfg := faultConfig()
	cfg.FaultInject = failAt(
		Point{Edge: liberty.Rise, I: 2, J: 2},
		Point{Edge: liberty.Fall, I: 2, J: 2},
	)
	lib, err := cfg.Characterize(context.Background(), aging.WorstCase(10))
	if err != nil {
		t.Fatal(err)
	}
	if n := lib.SalvagedPoints(); n != 2 {
		t.Errorf("SalvagedPoints = %d, want 2", n)
	}
}

// TestSalvagedCacheRoundtrip: salvage markers survive the .alib cache,
// and a Strict run refuses the salvaged entry and rebuilds it cleanly.
func TestSalvagedCacheRoundtrip(t *testing.T) {
	dir := t.TempDir()
	cfg := faultConfig()
	cfg.CacheDir = dir
	cfg.FaultInject = failAt(Point{Edge: liberty.Rise, I: 0, J: 0})
	s := aging.WorstCase(10)
	if _, err := cfg.Characterize(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	// Reload from disk: the marker survived serialization.
	clean := cfg
	clean.FaultInject = nil
	lib, err := clean.loadCache(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := lib.SalvagedPoints(); n != 1 {
		t.Fatalf("cached SalvagedPoints = %d, want 1", n)
	}
	// A Strict config treats the salvaged entry as a miss and rebuilds a
	// fully simulated replacement.
	strict := clean
	strict.Strict = true
	if _, err := strict.loadCache(s); err == nil {
		t.Fatal("strict loadCache accepted a salvaged entry")
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	lib2, err := strict.Characterize(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if n := lib2.SalvagedPoints(); n != 0 {
		t.Errorf("strict rebuild has %d salvaged points, want 0", n)
	}
	if n := reg.Counter("char.cache.hits").Value(); n != 0 {
		t.Errorf("strict rebuild hit the salvaged cache (%d hits)", n)
	}
	// The clean rebuild replaced the salvaged entry on disk.
	lib3, err := strict.loadCache(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := lib3.SalvagedPoints(); n != 0 {
		t.Errorf("cache still holds %d salvaged points after strict rebuild", n)
	}
}

// sweepConfig returns a fast 3x3 single-cell configuration for
// scenario-sweep tests.
func sweepConfig(t *testing.T) Config {
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = t.TempDir()
	return cfg
}

// sweepOutcome is the result of sweep. Libs is parallel to Scenarios; a
// nil slot marks a scenario that failed (its cause is in Failed).
type sweepOutcome struct {
	Scenarios []aging.Scenario
	Libs      []*liberty.Library
	Failed    []*ScenarioError
}

// Err returns nil when every scenario succeeded, and a *SweepError
// otherwise.
func (o *sweepOutcome) Err() error {
	if len(o.Failed) == 0 {
		return nil
	}
	return &SweepError{Failed: o.Failed, Total: len(o.Scenarios)}
}

// sweep characterizes the scenarios concurrently under one shared
// limiter, like CharacterizeAll, but records a permanently failing
// scenario and keeps going (as libgen does serially); only cancellation
// stops it early, with an error matching ErrCanceled.
func (cfg Config) sweep(ctx context.Context, scenarios []aging.Scenario) (*sweepOutcome, error) {
	lim := conc.NewLimiter(cfg.workers())
	out := &sweepOutcome{Scenarios: scenarios, Libs: make([]*liberty.Library, len(scenarios))}
	errs := make([]*ScenarioError, len(scenarios))
	err := conc.ParFor(ctx, cfg.workers(), len(scenarios), func(i int) error {
		lib, err := cfg.characterizeShared(ctx, scenarios[i], lim)
		switch {
		case err == nil:
			out.Libs[i] = lib
		case errors.Is(err, ErrCanceled):
			return err
		default:
			errs[i] = &ScenarioError{Scenario: scenarios[i], Err: err}
		}
		return nil
	})
	if err != nil {
		return nil, conc.WrapCanceled(err)
	}
	for _, e := range errs {
		if e != nil {
			out.Failed = append(out.Failed, e)
		}
	}
	return out, nil
}

// TestSweepContinuesPastFailingScenario: a scenario that fails
// permanently (its cache store errors out) no longer aborts the sweep —
// the other scenarios complete and the failure is reported per scenario.
func TestSweepContinuesPastFailingScenario(t *testing.T) {
	cfg := sweepConfig(t)
	scenarios := []aging.Scenario{aging.Fresh(), aging.WorstCase(10), aging.BalanceCase(10)}
	badPath := cfg.cachePath(scenarios[1])
	cfg.CacheFault = func(op, path string) error {
		if op == "store" && path == badPath {
			return errors.New("injected: disk full")
		}
		return nil
	}
	out, err := cfg.sweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if out.Libs[0] == nil || out.Libs[2] == nil {
		t.Error("healthy scenarios did not complete")
	}
	if out.Libs[1] != nil {
		t.Error("failing scenario produced a library")
	}
	if len(out.Failed) != 1 || out.Failed[0].Scenario != scenarios[1] {
		t.Fatalf("Failed = %v, want exactly scenario %s", out.Failed, scenarios[1])
	}
	serr := out.Err()
	if serr == nil {
		t.Fatal("outcome with failures returned nil Err")
	}
	var sweepErr *SweepError
	if !errors.As(serr, &sweepErr) {
		t.Fatalf("Err() = %T, want *SweepError", serr)
	}
	if !strings.Contains(serr.Error(), "disk full") {
		t.Errorf("sweep error %q does not carry the cause", serr)
	}
}

// TestSweepCancellationAborts: cancellation is not a per-scenario
// failure — it aborts the whole sweep with ErrCanceled.
func TestSweepCancellationAborts(t *testing.T) {
	cfg := sweepConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := cfg.sweep(ctx, []aging.Scenario{aging.Fresh(), aging.WorstCase(10)})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestCkptStoreFaultNonFatal: checkpoint-shard write failures cost only
// resumability — the characterization still completes and the final
// library still lands in the cache.
func TestCkptStoreFaultNonFatal(t *testing.T) {
	cfg := sweepConfig(t)
	cfg.CacheFault = func(op, path string) error {
		if op == "ckpt.store" {
			return errors.New("injected: shard write failed")
		}
		return nil
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	s := aging.WorstCase(10)
	if _, err := cfg.Characterize(ctx, s); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("char.ckpt.store.errors").Value(); n == 0 {
		t.Error("char.ckpt.store.errors = 0, want > 0")
	}
	clean := cfg
	clean.CacheFault = nil
	if _, err := clean.loadCache(s); err != nil {
		t.Errorf("library missing from cache after shard-store faults: %v", err)
	}
}

// TestCkptLoadFaultIsMiss: checkpoint-read failures degrade to a cache
// miss (the cell is re-simulated), never an error.
func TestCkptLoadFaultIsMiss(t *testing.T) {
	cfg := sweepConfig(t)
	cfg.CacheFault = func(op, path string) error {
		if op == "ckpt.load" {
			return errors.New("injected: shard read failed")
		}
		return nil
	}
	if _, err := cfg.Characterize(context.Background(), aging.WorstCase(10)); err != nil {
		t.Fatalf("characterization failed on shard-load faults: %v", err)
	}
}

// TestCacheStoreFaultSurfacesError: a failing final .alib store is a real
// error (unlike shard stores, losing the library itself is not benign).
func TestCacheStoreFaultSurfacesError(t *testing.T) {
	cfg := sweepConfig(t)
	boom := errors.New("injected: store failed")
	cfg.CacheFault = func(op, path string) error {
		if op == "store" {
			return boom
		}
		return nil
	}
	if _, err := cfg.Characterize(context.Background(), aging.WorstCase(10)); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the injected store error", err)
	}
	// Shards from the completed cells remain for the next attempt.
	found := false
	for _, e := range mustReadDir(t, cfg.CacheDir) {
		if strings.HasSuffix(e, ".ckpt") {
			found = true
		}
	}
	if !found {
		t.Error("no checkpoint shards survive a failed library store")
	}
}

// TestGridPartialFailure: a sweep over grid scenarios finishes the rest
// of the grid when single scenarios fail permanently, returning every
// completed library and a SweepError naming the failures.
func TestGridPartialFailure(t *testing.T) {
	cfg := sweepConfig(t)
	grid := aging.GridScenarios(10)
	badPath := cfg.cachePath(grid[5])
	cfg.CacheFault = func(op, path string) error {
		if op == "store" && path == badPath {
			return errors.New("injected: scenario sabotage")
		}
		return nil
	}
	// Restrict the run to a fast subset by pre-caching all but a handful:
	// characterize the full grid would be minutes; instead run the sweep
	// API directly over a 4-scenario slice including the saboteur.
	scenarios := []aging.Scenario{grid[0], grid[5], grid[60], grid[120]}
	out, err := cfg.sweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	var serr *SweepError
	if !errors.As(out.Err(), &serr) {
		t.Fatalf("Err() = %v, want *SweepError", out.Err())
	}
	if serr.Total != 4 || len(serr.Failed) != 1 {
		t.Errorf("SweepError = %d/%d failed, want 1/4", len(serr.Failed), serr.Total)
	}
	ok := 0
	for _, lib := range out.Libs {
		if lib != nil {
			ok++
		}
	}
	if ok != 3 {
		t.Errorf("%d scenarios completed, want 3", ok)
	}
}

// TestCkptSharedStemIncludesHash: shard filenames embed the same
// config-hash stem as the .alib, so shards from a different grid or cell
// set can never be resumed into this library.
func TestCkptSharedStemIncludesHash(t *testing.T) {
	a := TestConfig()
	a.CacheDir = "cache"
	b := a
	b.Slews = append([]float64(nil), a.Slews...)
	b.Slews[1] *= 1.5
	s := aging.WorstCase(10)
	if a.ckptPath(s, "INV_X1") == b.ckptPath(s, "INV_X1") {
		t.Error("different grids share a checkpoint shard path")
	}
	if !strings.HasSuffix(a.ckptPath(s, "INV_X1"), ".cell_INV_X1.ckpt") {
		t.Errorf("unexpected shard path %s", a.ckptPath(s, "INV_X1"))
	}
}

// TestErrNoCellBeforeCacheIO: an invalid cell list surfaces as ErrNoCell
// before any cache or checkpoint I/O happens — the CacheFault seam proves
// no I/O op was even attempted.
func TestErrNoCellBeforeCacheIO(t *testing.T) {
	cfg := sweepConfig(t)
	cfg.Cells = []string{"INV_X1", "NOPE_X9"}
	cfg.CacheFault = func(op, path string) error {
		t.Errorf("cache op %q on %s attempted before cell validation", op, path)
		return nil
	}
	if _, err := cfg.Characterize(context.Background(), aging.Fresh()); !errors.Is(err, ErrNoCell) {
		t.Fatalf("got %v, want ErrNoCell", err)
	}
}

// TestStrictRefusesSalvagedShard: a Strict resume re-simulates cells
// whose shards contain salvaged points instead of adopting them.
func TestStrictRefusesSalvagedShard(t *testing.T) {
	dir := t.TempDir()
	cfg := faultConfig()
	cfg.CacheDir = dir
	s := aging.WorstCase(10)
	// Store a shard with a salvage marker by hand.
	lib, err := cfg.Characterize(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	ct := *lib.MustCell("INV_X1")
	ct.Arcs = append([]liberty.Arc(nil), ct.Arcs...)
	ct.Arcs[0].Salvaged = []liberty.SalvagePoint{{Edge: liberty.Rise, I: 0, J: 0}}
	if err := cfg.storeCellCkpt(s, &ct); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.loadCellCkpt(s, "INV_X1"); err != nil {
		t.Fatalf("non-strict load rejected the salvaged shard: %v", err)
	}
	strict := cfg
	strict.Strict = true
	if _, err := strict.loadCellCkpt(s, "INV_X1"); err == nil {
		t.Fatal("strict load accepted a salvaged shard")
	} else if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("strict rejection %v is not a miss (fs.ErrNotExist)", err)
	}
}
