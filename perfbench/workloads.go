package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"ageguard/internal/obs"
	"ageguard/pkg/ageguard/api"
)

// bench holds what the passes of one invocation share.
type bench struct {
	root, buildDir string
	work           string // the invocation's scratch directory
	seed           uint64
	ref            *reference
	retries        retryCounter // the typed clients' retries
	cache          string       // the run's copy of the prepared cache
}

// retryCounter is the typed clients' metrics sink; of their counters the
// benchmark keeps only retries.
type retryCounter struct{ n atomic.Int64 }

func (c *retryCounter) Inc(name string) {
	if name == "client.retry.retries" {
		c.n.Add(1)
	}
}

// pass is one execution of a workload. An untraced pass runs for dur; a
// traced pass repeats exactly the units (iterations, requests or rounds
// per caller) an untraced pass completed, with spans and replays.
type pass struct {
	dur    time.Duration
	setups int
	limit  []int
	tr     *tracer
}

// more reports whether lane l should start unit n.
func (p pass) more(l, n int, start time.Time) bool {
	if p.limit != nil {
		return n < p.limit[l]
	}
	return n == 0 || time.Since(start) < p.dur
}

// outcome is what one pass measured.
type outcome struct {
	res        *results
	setups     []float64 // process CPU seconds per set-up
	wall       time.Duration
	cpu        time.Duration      // process CPU time over the timed phase
	done       []int              // units completed per lane
	delta      map[string]float64 // daemon counters over the timed phase
	allocBytes uint64             // heap allocated over the timed phase
	gcCycles   uint32             // GC cycles over the timed phase
	gcPause    time.Duration      // GC pauses over the timed phase
	heapMB     float64
	spanRoots  int
	jsonBytes  int
	warmLoadS  []float64
	itemsSent  int
	violations []string
	rp         *replayer
}

func newOutcome() *outcome {
	return &outcome{res: newResults(), delta: map[string]float64{}}
}

// snapshot reads every counter and histogram sum of a registry.
func snapshot(reg *obs.Registry) map[string]float64 {
	s := reg.Snapshot()
	m := map[string]float64{}
	for k, v := range s.Counters {
		m[k] = float64(v)
	}
	for k, h := range s.Histograms {
		m[k+".sum"] = h.Sum
	}
	return m
}

func (o *outcome) addDelta(before, after map[string]float64) {
	for k, v := range after {
		o.delta[k] += v - before[k]
	}
}

// phaseStart and phaseEnd bracket a timed phase: CPU time, allocation
// and GC counters become deltas, and the live heap is read after a
// forced GC. Set-ups and timed phases start from a collected heap, so
// the garbage of what ran before does not land in them.
type phaseMark struct {
	mem runtime.MemStats
	cpu time.Duration
}

func phaseStart() phaseMark {
	runtime.GC()
	var m phaseMark
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	return m
}

// cpuTime is the process's user plus system CPU time, to the
// nanosecond (CLOCK_PROCESS_CPUTIME_ID). It grows far less than wall
// time while the host runs other guests on this one's CPUs.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func (o *outcome) phaseEnd(start phaseMark) {
	o.cpu += cpuTime() - start.cpu
	before := start.mem
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	o.allocBytes += m.TotalAlloc - before.TotalAlloc
	o.gcCycles += m.NumGC - before.NumGC
	o.gcPause += time.Duration(m.PauseTotalNs - before.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m)
	o.heapMB = float64(m.HeapAlloc) / (1 << 20)
}

// observeDaemon records the daemon's end state: the root spans its
// registry holds and the size of its /metrics.json.
func (o *outcome) observeDaemon(d *daemon) {
	s := d.reg.Snapshot()
	o.spanRoots = len(s.Spans)
	var buf bytes.Buffer
	s.WriteJSON(&buf)
	o.jsonBytes = buf.Len()
	if h, ok := s.Histograms["serve.warm.seconds"]; ok && h.Count > 0 {
		o.warmLoadS = append(o.warmLoadS, h.Sum/float64(h.Count))
	}
}

// requireZero records a violation when a daemon counter moved during
// the timed phase: warm workloads must not characterize or synthesize.
func (o *outcome) requireZero(names ...string) {
	for _, n := range names {
		if v := o.delta[n]; v != 0 {
			o.violations = append(o.violations, fmt.Sprintf("%s moved by %g during the timed phase", n, v))
		}
	}
}

// exec sends r on c as a timed request; a traced pass wraps it in a
// request span and replays it. hit says the daemon answers r from its
// LRU. The error is a replay's; a failed request is only counted.
func (p pass) exec(ctx context.Context, c *caller, ln *lane, rp *replayer, r *request, hit bool) error {
	if p.tr == nil {
		c.do(ctx, r, true, nil)
		return nil
	}
	id := p.tr.nextID()
	sc := spanCtx{ln: ln, id: id, parent: ln.begin("request."+r.class, id, 0)}
	defer ln.end(sc.parent)
	rep, lat := c.do(ctx, r, true, &sc)
	if rep == nil {
		return nil
	}
	return rp.replay(sc, r, rep, lat, hit)
}

// coldGuardband runs cold-guardband: per iteration a fresh daemon on an
// empty disk cache answers the fully cold RISC-5P worst-case query, its
// repeat, and the two other circuits.
func (b *bench) coldGuardband(p pass) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	rng := newRand(b.seed, 0)
	chk := newChecker(b.ref)
	// Booting on an empty cache takes about a millisecond, so one boot
	// per iteration is too few for a steady median: boot a few more.
	for i := 0; i < p.setups; i++ {
		dir, err := os.MkdirTemp(b.work, "boot-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		c0 := cpuTime()
		d, err := boot(dir)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, (cpuTime() - c0).Seconds())
		if err := d.shutdown(); err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
		os.RemoveAll(dir)
	}
	var ln *lane
	if p.tr != nil {
		ln = p.tr.newLane("lane.cold-guardband")
	}
	start := time.Now()
	n := 0
	for ; p.more(0, n, start); n++ {
		reqs := coldIteration(rng)
		dir, err := os.MkdirTemp(b.work, "cold-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		c0 := cpuTime()
		d, err := boot(dir)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, (cpuTime() - c0).Seconds())
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			out.violations = append(out.violations, "the cold daemon's disk cache is not empty")
		}
		if p.tr != nil {
			if out.rp == nil {
				out.rp = newReplayer(b.work)
			}
			out.rp.attach(d, dir)
		}
		c := newCaller(d.base, d.tr, &b.retries, chk)
		before, mark := snapshot(d.reg), phaseStart()
		for i := range reqs {
			if err := p.exec(ctx, c, ln, out.rp, &reqs[i], reqs[i].class == "repeat"); err != nil {
				return nil, err
			}
			if i == 0 {
				out.coldFirst(d)
			}
		}
		out.addDelta(before, snapshot(d.reg))
		out.phaseEnd(mark)
		out.observeDaemon(d)
		out.res.merge(c.res)
		if err := d.shutdown(); err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
		os.RemoveAll(dir)
	}
	out.wall = time.Since(start)
	if ln != nil {
		ln.close()
	}
	out.done = []int{n}
	return out, nil
}

// coldFirst checks that the first answer of a fresh daemon was
// computed, not loaded: it characterized both libraries and synthesized
// the netlist, and no netlist came from disk. (The netlist fill loads
// the fresh library the same query has just written, so that one disk
// hit is part of a cold query.)
func (o *outcome) coldFirst(d *daemon) {
	c := d.reg.Snapshot().Counters
	if c["char.libraries"] != 2 || c["char.cache.misses"] != 2 || c["synth.netlists"] != 1 || c["core.netlist.cache.hits"] != 0 {
		o.violations = append(o.violations, fmt.Sprintf(
			"first query was not cold: char.libraries=%d char.cache.misses=%d synth.netlists=%d core.netlist.cache.hits=%d",
			c["char.libraries"], c["char.cache.misses"], c["synth.netlists"], c["core.netlist.cache.hits"]))
	}
}

// warmSetup boots p.setups daemons in turn on the run's copy of the
// prepared cache, each through its warm-start scan and the pre-warm
// queries, and returns the last, which serves the timed phase.
func (b *bench) warmSetup(p pass, out *outcome, chk *checker, prewarm []request) (*daemon, error) {
	ctx := context.Background()
	var d *daemon
	for i := 0; i < p.setups; i++ {
		if d != nil {
			out.observeDaemon(d)
			if err := d.shutdown(); err != nil {
				return nil, fmt.Errorf("drain: %w", err)
			}
		}
		runtime.GC()
		c0 := cpuTime()
		var err error
		if d, err = boot(b.cache); err != nil {
			return nil, err
		}
		c := newCaller(d.base, d.tr, &b.retries, chk)
		for j := range prewarm {
			c.do(ctx, &prewarm[j], false, nil)
		}
		out.setups = append(out.setups, (cpuTime() - c0).Seconds())
		out.res.merge(c.res)
	}
	if p.tr != nil {
		out.rp = newReplayer(b.work)
		out.rp.attach(d, b.cache)
		if err := out.rp.loadWarm(p.tr); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// warmCallers is warm-mix's closed-loop caller count: the host's two
// cores, one synchronous client each.
const warmCallers = 2

// warmMix runs warm-mix: two callers against a warm-started daemon whose
// LRU holds every answer.
func (b *bench) warmMix(p pass) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	chk := newChecker(b.ref)
	var prewarm []request
	for _, sc := range []api.Scenario{scWorst, scBalance, scDuty} {
		prewarm = append(prewarm, guardbandReq(kindGuardband, "RISC-5P", sc))
	}
	for _, sc := range []api.Scenario{scFresh, scWorst, scBalance, scDuty} {
		prewarm = append(prewarm, pathsReq("RISC-5P", sc, 5))
	}
	prewarm = append(prewarm, request{kind: kindBatch, class: kindBatch, batch: pr9Batch()})
	d, err := b.warmSetup(p, out, chk, prewarm)
	if err != nil {
		return nil, err
	}

	lanes := make([]*lane, warmCallers)
	callers := make([]*caller, warmCallers)
	gens := make([]*warmStream, warmCallers)
	for i := range callers {
		callers[i] = newCaller(d.base, d.tr, &b.retries, chk)
		gens[i] = newWarmStream(b.seed, i)
		if p.tr != nil {
			lanes[i] = p.tr.newLane(fmt.Sprintf("lane.warm-mix.%d", i))
		}
	}
	out.done = make([]int, warmCallers)
	items := make([]int, warmCallers)
	errs := make([]error, warmCallers)
	before, mark := snapshot(d.reg), phaseStart()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for ; p.more(i, n, start); n++ {
				r := gens[i].next()
				items[i] += len(r.batch)
				if err := p.exec(ctx, callers[i], lanes[i], out.rp, &r, true); err != nil {
					errs[i] = err
					break
				}
			}
			out.done[i] = n
			if lanes[i] != nil {
				lanes[i].close()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	for i, c := range callers {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.res.merge(c.res)
		out.itemsSent += items[i]
	}
	out.addDelta(before, snapshot(d.reg))
	out.requireZero("spice.transients", "synth.netlists", "char.libraries")
	out.phaseEnd(mark)
	out.observeDaemon(d)
	if err := d.shutdown(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	return out, nil
}

// missMinRounds is the fewest rounds an untraced miss-sweep pass runs,
// however slow the host: the 16 pre-warmed entries plus 4 rounds of 37
// replies overfill the 128-entry LRU, so by the end it has evicted the
// pre-warm analyzers and holds the same mix of replies on every run.
const missMinRounds = 4

// missSweep runs miss-sweep: one caller alternating a Monte Carlo query
// with a fresh seed and a run of paths queries over more distinct keys
// than the LRU holds, against a warm-started daemon.
func (b *bench) missSweep(p pass) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	chk := newChecker(b.ref)
	var prewarm []request
	for _, c := range circuits {
		for _, sc := range []api.Scenario{scWorst, scBalance} {
			prewarm = append(prewarm, guardbandReq(kindGuardband, c, sc))
		}
	}
	d, err := b.warmSetup(p, out, chk, prewarm)
	if err != nil {
		return nil, err
	}
	var ln *lane
	if p.tr != nil {
		ln = p.tr.newLane("lane.miss-sweep")
	}
	c := newCaller(d.base, d.tr, &b.retries, chk)
	gen := newMissStream(b.seed)
	before, mark := snapshot(d.reg), phaseStart()
	start := time.Now()
	n := 0
	for ; p.more(0, n, start) || (p.limit == nil && n < missMinRounds); n++ {
		round := gen.nextRound()
		for i := range round {
			if err := p.exec(ctx, c, ln, out.rp, &round[i], false); err != nil {
				return nil, err
			}
		}
	}
	out.wall = time.Since(start)
	if ln != nil {
		ln.close()
	}
	out.done = []int{n}
	out.res.merge(c.res)
	out.addDelta(before, snapshot(d.reg))
	out.requireZero("spice.transients", "synth.netlists", "char.libraries")
	out.phaseEnd(mark)
	out.observeDaemon(d)
	if err := d.shutdown(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	return out, nil
}

// prepareRunCache copies the prepared cache into the invocation's
// scratch directory.
func (b *bench) prepareRunCache() error {
	src, err := preparedCache(b.root, b.buildDir)
	if err != nil {
		return err
	}
	b.cache = filepath.Join(b.work, "cache")
	return copyDir(src, b.cache)
}
