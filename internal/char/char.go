// Package char implements degradation-aware cell-library characterization —
// the paper's Fig. 4(a): for a given aging scenario it degrades the
// transistor models (package aging), instantiates each standard cell's
// transistor netlist (package cells), sweeps the operating-condition grid
// (input slew x output load) with transient simulations (package spice),
// and emits an NLDM timing library (package liberty).
//
// The paper's configuration is reproduced by DefaultConfig: 7 input slews
// in [5 ps, 947 ps] and 7 output loads in [0.5 fF, 20 fF] — 49 OPCs per
// timing arc — and a duty-cycle grid of 11x11 scenarios yielding 121
// libraries (aging.GridScenarios).
//
// Characterization is deterministic, so libraries are cached on disk in
// the serialized .alib format and reused across processes. Every transient
// simulation in the sweep is independent, so cells and grid points are
// characterized concurrently on a worker pool bounded by Config.Parallelism
// (0 = all CPUs); results are bit-identical at any parallelism because
// workers fill pre-indexed table slots.
package char

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"sync"
	"time"

	"ageguard/internal/aging"
	"ageguard/internal/atomicfile"
	"ageguard/internal/cells"
	"ageguard/internal/conc"
	"ageguard/internal/device"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
	"ageguard/internal/units"
)

// Sentinel errors, matchable with errors.Is through any number of %w
// wrapping layers.
var (
	// ErrNoCell reports a Config.Cells entry naming no known cell.
	ErrNoCell = errors.New("char: no such cell")

	// ErrCacheCorrupt reports an on-disk .alib cache entry that exists
	// but cannot be parsed. Characterization treats it as a miss and
	// rebuilds (atomically replacing the bad file), counting the event
	// under the char.cache.corrupt metric.
	ErrCacheCorrupt = errors.New("char: cache entry corrupt")

	// ErrCanceled aliases conc.ErrCanceled: every error caused by context
	// cancellation matches it (and the context's own error).
	ErrCanceled = conc.ErrCanceled
)

// Config controls characterization.
type Config struct {
	Tech  device.Tech
	Model aging.Model

	Slews []float64 // input-slew axis [s]
	Loads []float64 // output-load axis [F]

	// VthOnly disables the mobility degradation during device aging,
	// modelling the state-of-the-art flows the paper compares against in
	// Fig. 5(a) ([9,11,12,13]: Vth-only analysis).
	VthOnly bool

	// Perturb applies a uniform process-variation perturbation to every
	// device on top of the scenario's aging degradation (per polarity;
	// see device.Perturb). The Monte Carlo subsystem uses single-axis
	// perturbations to finite-difference per-arc delay sensitivities; the
	// zero value characterizes the nominal process and is bit-identical
	// to builds that predate the knob.
	Perturb device.Perturb

	// CacheDir, when non-empty, enables the on-disk library cache.
	CacheDir string

	// Cells restricts characterization to the named cells (nil = all 68).
	Cells []string

	// Parallelism bounds the number of concurrently running transient
	// simulations; CharacterizeAll and CompleteLibrary additionally use it
	// to bound concurrently characterized scenarios. 0 selects GOMAXPROCS
	// (all CPUs); 1 runs one simulation at a time and finishes each cell
	// before starting the next. Results are bit-identical at every
	// setting: workers write into pre-indexed table slots, so assembly
	// order never affects the library.
	Parallelism int

	// Progress, when non-nil, receives (done, total) cell counts as a
	// library is characterized. It is guaranteed to be invoked serially —
	// never from two goroutines at once — with done strictly increasing
	// from 1 to total, regardless of Parallelism.
	Progress func(done, total int)

	// Retries bounds the spice escalation ladder applied to every grid
	// point: a non-convergent transient is re-run up to Retries more
	// times with progressively conservative solver options before the
	// point is declared failed. 0 selects DefaultRetries; negative
	// values disable retrying entirely.
	Retries int

	// Strict disables grid-point salvage: a point that still fails after
	// the retry ladder aborts characterization with a point-identifying
	// error instead of being interpolated from converged neighbors.
	// Strict runs also refuse cached libraries and checkpoint shards
	// that contain salvaged points (they are rebuilt instead).
	Strict bool

	// FaultInject, when non-nil, is invoked before every transient
	// attempt with the point identity and the retry rung (0 = first
	// try); a non-nil return is treated as that attempt's failure. It is
	// the deterministic fault-injection seam used by the regression
	// tests to exercise retry, salvage, checkpoint-replay and
	// partial-grid paths; production configurations leave it nil.
	FaultInject func(p Point, attempt int) error

	// CacheFault, when non-nil, is consulted before library-cache and
	// checkpoint I/O with the operation ("load", "store", "ckpt.load",
	// "ckpt.store") and the file path; a non-nil return is treated as
	// that operation's I/O failure. Test seam; production leaves it nil.
	CacheFault func(op, path string) error
}

// DefaultRetries is the depth of the solver escalation ladder applied to
// non-convergent grid points when Config.Retries is zero.
const DefaultRetries = 2

// retries resolves the Retries knob (0 = DefaultRetries, negative = off).
func (cfg Config) retries() int {
	switch {
	case cfg.Retries > 0:
		return cfg.Retries
	case cfg.Retries < 0:
		return 0
	default:
		return DefaultRetries
	}
}

// Point identifies one transient simulation of the OPC sweep — the unit
// of retry, salvage and fault injection.
type Point struct {
	Cell string
	Pin  string       // arc input pin (the clock pin for sequential cells)
	Edge liberty.Edge // output edge being characterized
	I, J int          // slew and load axis indices
}

// String renders the point for error messages and logs.
func (p Point) String() string {
	return fmt.Sprintf("%s/%s %s (%d,%d)", p.Cell, p.Pin, p.Edge, p.I, p.J)
}

// workers resolves the Parallelism knob.
func (cfg Config) workers() int { return conc.Workers(cfg.Parallelism) }

// DefaultConfig returns the paper's characterization setup: the full cell
// set over the 7x7 OPC grid (Smin=5ps, Smax=947ps, Cmin=0.5fF, Cmax=20fF).
func DefaultConfig() Config {
	return Config{
		Tech:  device.Default45(),
		Model: aging.DefaultModel(),
		Slews: LogAxis(5*units.Ps, 947*units.Ps, 7),
		Loads: LogAxis(0.5*units.FF, 20*units.FF, 7),
	}
}

// TestConfig returns a reduced 3x3-grid configuration for fast tests.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.Slews = LogAxis(5*units.Ps, 947*units.Ps, 3)
	cfg.Loads = LogAxis(0.5*units.FF, 20*units.FF, 3)
	return cfg
}

// LogAxis returns n log-spaced points from lo to hi inclusive.
func LogAxis(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	r := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= r
	}
	out[n-1] = hi
	return out
}

// DFF timing constraints are modelled as constants: the guardband and
// synthesis experiments compare path-delay differences, which the paper's
// evaluation also does, so scenario-dependent setup shifts are second
// order. See DESIGN.md.
const (
	dffSetup = 30 * units.Ps
	dffHold  = 3 * units.Ps
)

// flight deduplicates concurrent characterizations of the same library
// (process-wide): when several goroutines — e.g. parallel experiment legs
// or scenario fan-outs sharing one CacheDir — request the same scenario,
// exactly one simulates and writes the .alib; the rest share its result.
// Returned libraries may therefore be shared between callers and must be
// treated as immutable (everything in this repository already does).
var flight conc.Flight[*liberty.Library]

// Characterize builds the timing library for one aging scenario,
// using the on-disk cache when configured. It is safe to call
// concurrently, including for the same scenario (see flight). Canceling
// ctx stops in-flight simulations within one time step; the returned
// error then matches ErrCanceled.
func (cfg Config) Characterize(ctx context.Context, s aging.Scenario) (*liberty.Library, error) {
	return cfg.characterizeShared(ctx, s, conc.NewLimiter(cfg.workers()))
}

// characterizeShared is the Characterize body with an externally supplied
// simulation limiter, so nested fan-outs (scenarios x cells x grid points)
// share one global concurrency bound.
func (cfg Config) characterizeShared(ctx context.Context, s aging.Scenario, lim conc.Limiter) (*liberty.Library, error) {
	// Validate the cell list before any cache I/O or simulation, so a bad
	// Config.Cells entry surfaces as ErrNoCell immediately instead of
	// leaking out of a cache or simulation layer minutes into a run.
	if _, err := cfg.cellSet(); err != nil {
		return nil, err
	}
	reg := obs.From(ctx)
	lib, err := flight.Do(ctx, cfg.flightKey(s), func() (*liberty.Library, error) {
		ctx, sp := obs.StartSpan(ctx, "char.library")
		defer sp.End()
		sp.SetAttr("scenario", s.String())
		sp.SetAttr("lib", cfg.libName(s))
		lib, err := cfg.loadCache(s)
		switch {
		case err == nil:
			reg.Counter("char.cache.hits").Inc()
			sp.SetAttr("cache", "hit")
			return lib, nil
		case errors.Is(err, ErrCacheCorrupt):
			reg.Counter("char.cache.corrupt").Inc()
			sp.SetAttr("cache", "corrupt")
		default:
			sp.SetAttr("cache", "miss")
		}
		reg.Counter("char.cache.misses").Inc()
		lib, err = cfg.characterize(ctx, s, lim)
		if err != nil {
			sp.SetAttr("error", err)
			return nil, err
		}
		if err := cfg.storeCache(s, lib); err != nil {
			return nil, fmt.Errorf("char: caching %s: %w", cfg.cachePath(s), err)
		}
		// The complete library landed on disk; per-cell checkpoint
		// shards are now redundant.
		cfg.clearCkpts(s)
		reg.Counter("char.libraries").Inc()
		return lib, nil
	})
	return lib, conc.WrapCanceled(err)
}

// flightKey identifies identical characterization work. The cache path
// embeds the exact scenario and the full configuration hash (grid
// values, device/aging models, cell names), so it doubles as the
// deduplication key.
func (cfg Config) flightKey(s aging.Scenario) string {
	return cfg.cachePath(s)
}

func (cfg Config) cellSet() ([]*cells.Cell, error) {
	if cfg.Cells == nil {
		return cells.All(), nil
	}
	out := make([]*cells.Cell, 0, len(cfg.Cells))
	for _, n := range cfg.Cells {
		c, ok := cells.ByName(n)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoCell, n)
		}
		out = append(out, c)
	}
	return out, nil
}

func (cfg Config) libName(s aging.Scenario) string {
	suffix := ""
	if cfg.VthOnly {
		suffix = "_vthonly"
	}
	return fmt.Sprintf("aged_y%.1f_%s%s", s.Years, s.Key(), suffix)
}

// numericsVersion names the characterization numerics: the device
// equations, the transient solver and the measurements that turn
// waveforms into table values. Config.Hash includes it, so cache entries
// written by older numerics are never read back as this build's. Bump it
// with every change that moves a table value: TestNumericsFingerprint
// fails on such a change, and its recorded value is re-recorded with the
// bump.
const numericsVersion = 1

// Hash fingerprints every configuration knob that affects the simulated
// tables: the numerics version, the device technology, the aging model,
// the exact grid axis values (not just their counts), the VthOnly mode
// and the cell set. The cache filename embeds it, so changing e.g. one
// OPC grid point or the solver can never silently reuse a stale entry
// characterized under the old grid or numerics. The hashed structs are
// plain numeric data, so the canonical %v dump is deterministic across
// processes and builds.
//
// Resilience knobs (Retries, Strict) and the fault-injection seams are
// deliberately excluded: they never change the value of a converged grid
// point, so libraries characterized under different ladders stay
// interchangeable. Strict runs additionally refuse cached entries with
// salvaged points at load time (see loadCache).
func (cfg Config) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "numerics=%d|tech=%v|model=%v|slews=%v|loads=%v|vthonly=%v|cells=%q",
		numericsVersion, cfg.Tech, cfg.Model, cfg.Slews, cfg.Loads, cfg.VthOnly, cfg.Cells)
	if !cfg.Perturb.IsZero() {
		fmt.Fprintf(h, "|perturb=%v", cfg.Perturb)
	}
	return h.Sum64()
}

// cachePath names the cache entry of scenario s: the library name for
// readers, the scenario's exact key (the library name rounds the
// lifetime and duty cycles to one decimal and omits temperature and
// supply, so distinct scenarios share it), the grid shape, and the
// configuration hash as the suffix CacheEntries filters on. It is also
// the flight key and the stem of the checkpoint shards.
func (cfg Config) cachePath(s aging.Scenario) string {
	n := len(cfg.Cells)
	if cfg.Cells == nil {
		n = 0 // full set marker
	}
	fn := fmt.Sprintf("%s_s%s_g%dx%d_c%d_v%g_h%016x.alib",
		cfg.libName(s), s.ExactKey(), len(cfg.Slews), len(cfg.Loads), n, cfg.Tech.Vdd, cfg.Hash())
	return filepath.Join(cfg.CacheDir, fn)
}

// loadCache loads the cached library for s. A nil error means a usable
// hit. Misses wrap fs.ErrNotExist; entries that exist but fail the
// trailing checksum or fail to parse wrap ErrCacheCorrupt (the caller
// rebuilds and atomically replaces them).
func (cfg Config) loadCache(s aging.Scenario) (*liberty.Library, error) {
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("char: cache disabled: %w", fs.ErrNotExist)
	}
	path := cfg.cachePath(s)
	if cfg.CacheFault != nil {
		if err := cfg.CacheFault("load", path); err != nil {
			return nil, err
		}
	}
	lib, err := VerifyCacheFile(path)
	if err != nil {
		return nil, err
	}
	// The name carries the exact scenario, so only a hand-copied file
	// holds another one; answering with it would time the wrong stress.
	if lib.Scenario != s {
		return nil, fmt.Errorf("char: %s holds another scenario (%s): %w", path, lib.Scenario, fs.ErrNotExist)
	}
	// Strict runs never reuse a library with interpolated points: treat
	// it as a miss so it is recharacterized without salvage (and the
	// clean result atomically replaces the salvaged entry).
	if cfg.Strict {
		if n := lib.SalvagedPoints(); n > 0 {
			return nil, fmt.Errorf("char: %s has %d salvaged points (strict): %w",
				path, n, fs.ErrNotExist)
		}
	}
	// When restricted to named cells, verify the cached set covers them.
	// (Unreachable while the hash embeds the cell list; kept as defense
	// against hand-copied cache files.)
	set, err := cfg.cellSet()
	if err != nil {
		return nil, err
	}
	for _, c := range set {
		if _, ok := lib.Cell(c.Name); !ok {
			return nil, fmt.Errorf("%w: %s lacks cell %s", ErrCacheCorrupt, path, c.Name)
		}
	}
	return lib, nil
}

// storeCache writes the library atomically (atomicfile.Write), so
// concurrent writers — e.g. distinct processes sharing one cache dir,
// which the in-process singleflight cannot see — never clobber each
// other's half-written data, and an interrupted run never leaves a
// partial cache entry behind.
func (cfg Config) storeCache(s aging.Scenario, lib *liberty.Library) error {
	if cfg.CacheDir == "" {
		return nil
	}
	path := cfg.cachePath(s)
	if cfg.CacheFault != nil {
		if err := cfg.CacheFault("store", path); err != nil {
			return err
		}
	}
	return atomicfile.Write(path, func(w io.Writer) error { return liberty.WriteSummed(w, lib) })
}

// progress serializes Config.Progress invocations under parallelism: the
// mutex both orders the callbacks and makes the done count monotone.
type progress struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(done, total int)
}

func (p *progress) tick() {
	if p.fn == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.fn(p.done, p.total)
	p.mu.Unlock()
}

// characterize performs the actual simulation sweep. Cells are
// characterized concurrently (results written into pre-indexed slots)
// while lim bounds the simulations actually running; the first error
// cancels everything still pending. At most lim.Cap() cells are in flight,
// so cells finish, tick progress and write their checkpoint shards about
// in set order (a one-token run finishes each cell before it starts the
// next), and an interrupted run loses only the cells in flight, not a
// share of every cell.
func (cfg Config) characterize(ctx context.Context, s aging.Scenario, lim conc.Limiter) (*liberty.Library, error) {
	lib := &liberty.Library{
		Name:     cfg.libName(s),
		Scenario: s,
		Vdd:      cfg.Tech.Vdd,
		Slews:    append([]float64(nil), cfg.Slews...),
		Loads:    append([]float64(nil), cfg.Loads...),
		Cells:    map[string]*liberty.CellTiming{},
	}
	set, err := cfg.cellSet()
	if err != nil {
		return nil, err
	}
	prog := &progress{total: len(set), fn: cfg.Progress}
	results := make([]*liberty.CellTiming, len(set))
	g, gctx := conc.NewGroup(ctx)
	g.SetLimit(lim.Cap())
	for i, c := range set {
		g.Go(func() error {
			ct, err := cfg.cellWithCheckpoint(gctx, lim, c, s)
			if err != nil {
				return fmt.Errorf("char: cell %s under %s: %w", c.Name, s, err)
			}
			results[i] = ct
			prog.tick()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	for i, c := range set {
		lib.Cells[c.Name] = results[i]
	}
	return lib, nil
}

// degradations resolves the per-polarity device degradation for a scenario,
// honouring the VthOnly comparison mode.
func (cfg Config) degradations(s aging.Scenario) (p, n aging.Degradation) {
	p = cfg.Model.PMOS(s)
	n = cfg.Model.NMOS(s)
	if cfg.VthOnly {
		p = p.VthOnly()
		n = n.VthOnly()
	}
	return p, n
}

func (cfg Config) characterizeCell(ctx context.Context, lim conc.Limiter, c *cells.Cell, s aging.Scenario) (*liberty.CellTiming, error) {
	reg := obs.From(ctx)
	t0 := time.Now()
	defer func() {
		reg.Counter("char.cells").Inc()
		reg.Histogram("char.cell.seconds").Since(t0)
	}()
	ct := &liberty.CellTiming{
		Name:    c.Name,
		Base:    c.Base,
		Drive:   c.Drive,
		AreaUm2: c.AreaUm2,
		Inputs:  append([]string(nil), c.Inputs...),
		Output:  c.Output,
		PinCap:  map[string]float64{},
	}
	for _, p := range c.Inputs {
		ct.PinCap[p] = c.PinCap(cfg.Tech, p)
	}
	if c.Seq {
		ct.Seq, ct.Clock, ct.Data = true, c.Clock, c.Data
		ct.SetupPS, ct.HoldPS = dffSetup, dffHold
		arc, err := cfg.clockArc(ctx, lim, c, s)
		if err != nil {
			return nil, err
		}
		ct.Arcs = []liberty.Arc{*arc}
		return ct, nil
	}
	for _, spec := range DiscoverArcs(c) {
		arc, err := cfg.combArc(ctx, lim, c, s, spec)
		if err != nil {
			return nil, fmt.Errorf("arc %s/%s: %w", spec.Pin, spec.Sense, err)
		}
		ct.Arcs = append(ct.Arcs, *arc)
	}
	if len(ct.Arcs) == 0 {
		return nil, fmt.Errorf("no sensitizable arcs")
	}
	return ct, nil
}

// ArcSpec names one combinational timing arc to characterize.
type ArcSpec struct {
	Pin   string
	Sense liberty.Sense
	When  uint // side-input assignment (bit per input, pin's own bit ignored)
}

// DiscoverArcs finds, for every input pin of a combinational cell and every
// polarity sense, the first side-input assignment under which toggling the
// pin toggles the output. Most cells are unate (one arc per pin); XOR/XNOR
// and the MUX select pin yield two arcs.
func DiscoverArcs(c *cells.Cell) []ArcSpec {
	var out []ArcSpec
	n := c.NumInputs()
	for pi, pin := range c.Inputs {
		foundPos, foundNeg := false, false
		for side := uint(0); side < 1<<n; side++ {
			if side>>pi&1 == 1 {
				continue // canonical: pin's own bit zero in When
			}
			lo := c.Eval(side)
			hi := c.Eval(side | 1<<pi)
			if lo == hi {
				continue
			}
			if hi && !foundPos {
				out = append(out, ArcSpec{Pin: pin, Sense: liberty.PositiveUnate, When: side})
				foundPos = true
			}
			if !hi && !foundNeg {
				out = append(out, ArcSpec{Pin: pin, Sense: liberty.NegativeUnate, When: side})
				foundNeg = true
			}
			if foundPos && foundNeg {
				break
			}
		}
	}
	return out
}

// CharacterizeAll characterizes the scenarios concurrently —
// bounded by Parallelism both at the scenario level and, through one
// shared limiter, at the simulation level — and returns the libraries in
// input order. Per-scenario singleflight ensures duplicate scenarios (or
// concurrent calls sharing a CacheDir) never characterize or write the
// same .alib twice at the same time. Canceling ctx stops scenario
// dispatch and in-flight simulations; the error then matches ErrCanceled.
func (cfg Config) CharacterizeAll(ctx context.Context, scenarios []aging.Scenario) ([]*liberty.Library, error) {
	ctx, sp := obs.StartSpan(ctx, "char.sweep")
	defer sp.End()
	sp.SetAttr("scenarios", len(scenarios))
	lim := conc.NewLimiter(cfg.workers())
	libs := make([]*liberty.Library, len(scenarios))
	err := conc.ParFor(ctx, cfg.workers(), len(scenarios), func(i int) error {
		lib, err := cfg.characterizeShared(ctx, scenarios[i], lim)
		if err != nil {
			return err
		}
		libs[i] = lib
		return nil
	})
	if err != nil {
		err = conc.WrapCanceled(err)
		sp.SetAttr("error", err)
		return nil, err
	}
	return libs, nil
}

// ScenarioError is one scenario's permanent characterization failure
// within a sweep.
type ScenarioError struct {
	Scenario aging.Scenario
	Err      error
}

// Error renders the scenario and its cause.
func (e *ScenarioError) Error() string {
	return fmt.Sprintf("scenario %s: %v", e.Scenario, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ScenarioError) Unwrap() error { return e.Err }

// SweepError aggregates the scenarios that failed permanently in a sweep
// that was otherwise allowed to complete. It unwraps to every per-scenario
// error, so errors.Is matches any of the underlying causes.
type SweepError struct {
	Failed []*ScenarioError
	Total  int
}

// Error summarizes the failures.
func (e *SweepError) Error() string {
	msg := fmt.Sprintf("char: %d of %d scenarios failed", len(e.Failed), e.Total)
	for _, f := range e.Failed {
		msg += "\n  " + f.Error()
	}
	return msg
}

// Unwrap exposes every scenario failure to errors.Is/As.
func (e *SweepError) Unwrap() []error {
	out := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		out[i] = f
	}
	return out
}

// CompleteLibrary builds the merged, lambda-indexed "complete
// degradation-aware cell library" over the scenarios given (e.g. all 121
// grid points, or just those a netlist annotation needs). Scenarios are
// characterized concurrently; the merge order is the input order.
func (cfg Config) CompleteLibrary(ctx context.Context, name string, scenarios []aging.Scenario) (*liberty.Merged, error) {
	libs, err := cfg.CharacterizeAll(ctx, scenarios)
	if err != nil {
		return nil, err
	}
	return liberty.MergeLibraries(name, libs), nil
}
