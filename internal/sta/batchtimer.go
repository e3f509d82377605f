package sta

import (
	"context"
	"fmt"
	"sync"

	"ageguard/internal/conc"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
)

// BatchTimer is the many-libraries counterpart of Analyzer for workloads
// that re-time ONE fixed netlist many times and only need the
// critical-path delay: the paper's Fig. 5 duty-cycle grid (up to 121 aged
// libraries, one CP call each) and the Monte Carlo statistical STA inner
// loop, which binds each base library once (BindDeltas) and times every
// sample as per-instance shifts of it (DeltaBinding.CP). The netlist
// topology (levelization, net numbering, fanout sinks, endpoint lists) is
// compiled once at construction; each CP call performs only the
// per-library binding and arrival propagation.
//
// Unlike Analyzer, a BatchTimer is safe for concurrent use: the compiled
// topology is immutable and every CP call allocates its own binding and
// state. CP results are bit-identical to a standalone Analyze of the same
// (netlist, library) pair — the same floating-point operations run in the
// same order.
type BatchTimer struct {
	topo *topology
	cfg  Config
}

// NewBatchTimer compiles the netlist topology against the template
// library's cell footprints. Any library whose footprints match the
// template (the flow's aged libraries all do) can then be timed with CP;
// one that deviates gets its own topology.
// The netlist must not be mutated while the BatchTimer is in use.
func NewBatchTimer(ctx context.Context, n *netlist.Netlist, template *liberty.Library, cfg Config) (*BatchTimer, error) {
	if err := ctx.Err(); err != nil {
		return nil, conc.WrapCanceled(fmt.Errorf("sta: %s: %w", n.Name, err))
	}
	cfg.fill()
	topo, err := newTopology(n, template)
	if err != nil {
		return nil, err
	}
	return &BatchTimer{topo: topo, cfg: cfg}, nil
}

// CP times the compiled netlist under lib and returns the critical-path
// delay, bit-identical to Analyze(ctx, netlist, lib, cfg).CP. A library
// whose cell footprints deviate from the compiled topology is timed on a
// topology compiled for it (counted in sta.incremental.fallbacks).
func (bt *BatchTimer) CP(ctx context.Context, lib *liberty.Library) (float64, error) {
	t := bt.topo
	if err := ctx.Err(); err != nil {
		return 0, conc.WrapCanceled(fmt.Errorf("sta: %s: %w", t.n.Name, err))
	}
	reg := obs.From(ctx)
	reg.Counter("sta.analyses").Inc()
	b, err := newBinding(t, lib)
	if err == errFootprint {
		reg.Counter("sta.incremental.fallbacks").Inc()
		t, b, err = compile(t.n, lib)
	}
	if err != nil {
		return 0, err
	}
	s := newState(len(t.nets))
	if err := forwardFull(t, b, s, &bt.cfg); err != nil {
		return 0, err
	}
	return s.cp, nil
}

// DeltaBinding is one base library bound to a BatchTimer's compiled
// netlist together with the per-arc delta tables of its cells: the Monte
// Carlo sample loop, where each sample shifts every instance's tables by
// that instance's weighted deltas (liberty.ArcDelta). It is built once
// per base library and query and is safe for concurrent use. Binding
// interleaves each cell's tables with their deltas once
// (liberty.ShiftTable) and computes every net's load once, since neither
// depends on the sample; a CP call allocates nothing, reusing the
// propagation state of a finished call.
type DeltaBinding struct {
	bt   *BatchTimer
	b    *binding
	load []float64 // per net

	mu   sync.Mutex
	free []*state // states of finished CP calls
}

// BindDeltas binds lib to the compiled netlist with deltas, the per-arc
// delta tables of every cell the netlist instantiates, aligned with the
// cell's arcs in lib. lib's cell footprints must match the compiled
// topology's (the flow's fresh and aged libraries all do). The
// interleaved tables of a cell are shared by its instances.
func (bt *BatchTimer) BindDeltas(lib *liberty.Library, deltas map[string][]liberty.ArcDelta) (*DeltaBinding, error) {
	t := bt.topo
	b, err := newBinding(t, lib)
	if err != nil {
		return nil, err
	}
	b.tables = make([][]arcShift, len(t.src))
	byCell := make(map[string][]arcShift)
	for i := range t.src {
		in := t.inst(i)
		sh, ok := byCell[in.Cell]
		if !ok {
			ct, d := b.ct[i], deltas[in.Cell]
			if len(d) != len(ct.Arcs) {
				return nil, fmt.Errorf("sta: %d delta arcs for the %d arcs of cell %q (inst %s)",
					len(d), len(ct.Arcs), in.Cell, in.Name)
			}
			sh = make([]arcShift, len(ct.Arcs))
			for ai := range ct.Arcs {
				a := &ct.Arcs[ai]
				for e := liberty.Rise; e <= liberty.Fall; e++ {
					sh[ai].delay[e] = a.Delay[e].Interleave(&d[ai].Delay, e)
					sh[ai].slew[e] = a.OutSlew[e].Interleave(&d[ai].OutSlew, e)
				}
			}
			byCell[in.Cell] = sh
		}
		b.tables[i] = sh
	}
	// Pin capacitances are the base cells', so every sample's loads are
	// these.
	load := make([]float64, len(t.nets))
	for v := range load {
		load[v] = computeLoad(t, b, &bt.cfg, int32(v))
	}
	return &DeltaBinding{bt: bt, b: b, load: load}, nil
}

// CP times one sample and returns its critical-path delay: instance
// n.Insts[k] times on its cell's tables shifted by weights w[k], and an
// instance whose weights are all zero on the unshifted tables. The result
// is bit-identical to BatchTimer.CP under the instance-variant library
// whose cells carry liberty.Table.Shift of each table (the library
// char.Sensitivity.SampleLibrary builds), because every lookup shifts
// exactly the four grid points it reads (liberty.ShiftTable.At).
func (db *DeltaBinding) CP(ctx context.Context, w []liberty.DeltaWeights) (float64, error) {
	t := db.bt.topo
	if err := ctx.Err(); err != nil {
		return 0, conc.WrapCanceled(fmt.Errorf("sta: %s: %w", t.n.Name, err))
	}
	if len(w) != len(t.src) {
		return 0, fmt.Errorf("sta: %s: %d weights for %d instances", t.n.Name, len(w), len(t.src))
	}
	obs.From(ctx).Counter("sta.analyses").Inc()
	b := *db.b
	b.w = w
	s := db.state()
	defer db.recycle(s)
	s.resetArrivals()
	if err := propagate(t, &b, s, &db.bt.cfg); err != nil {
		return 0, err
	}
	return s.cp, nil
}

// state returns the state of a finished CP call, or a new one holding the
// binding's loads.
func (db *DeltaBinding) state() *state {
	db.mu.Lock()
	if n := len(db.free); n > 0 {
		s := db.free[n-1]
		db.free = db.free[:n-1]
		db.mu.Unlock()
		return s
	}
	db.mu.Unlock()
	s := newState(len(db.load))
	copy(s.load, db.load)
	for i := range s.hasLoad {
		s.hasLoad[i] = true
	}
	return s
}

// recycle hands a finished call's state to the next CP call.
func (db *DeltaBinding) recycle(s *state) {
	db.mu.Lock()
	db.free = append(db.free, s)
	db.mu.Unlock()
}
