package sta

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"ageguard/internal/conc"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
)

// BatchTimer is the compiled form of one netlist, timed under many
// libraries: the paper's Fig. 5 duty-cycle grid (up to 121 aged
// libraries, one CP call each), the guardband and top-K path queries of
// the daemon, and the Monte Carlo statistical STA inner loop, which binds
// each base library once (BindDeltas) and times every sample as
// per-instance shifts of it (DeltaBinding.CP). The netlist topology
// (levelization, net numbering, fanout sinks, endpoint lists) is compiled
// once at construction; each call performs only the per-library binding
// and arrival propagation.
//
// A BatchTimer is immutable and self-contained: it keeps the design,
// instance and net names and the template's cells (their pin
// footprints), but no reference to the netlist, so later edits of the
// netlist do not reach it. It is safe for concurrent use; every call allocates its own
// binding and state. One footprint rule holds for every library it
// times: each cell must have the pins, in the same order, of its
// namesake in the template (the flow's fresh and aged libraries all do);
// a library that breaks it is an error. Results are bit-identical to a
// standalone Analyze of the same (netlist, library) pair — the same
// floating-point operations run in the same order.
type BatchTimer struct {
	topo *topology
	cfg  Config
}

// NewBatchTimer compiles the netlist against the template library's cell
// footprints.
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

// Insts returns the compiled netlist's instance names in n.Insts order,
// the order of DeltaBinding.CP's weights.
func (bt *BatchTimer) Insts() []string { return slices.Clone(bt.topo.names) }

// CP times the compiled netlist under lib and returns the critical-path
// delay, bit-identical to Analyze(ctx, netlist, lib, cfg).CP.
func (bt *BatchTimer) CP(ctx context.Context, lib *liberty.Library) (float64, error) {
	_, s, err := bt.time(ctx, lib)
	if err != nil {
		return 0, err
	}
	return s.cp, nil
}

// time binds lib to the compiled netlist and propagates its arrivals,
// counting one sta.analyses.
func (bt *BatchTimer) time(ctx context.Context, lib *liberty.Library) (*binding, *state, error) {
	t := bt.topo
	if err := ctx.Err(); err != nil {
		return nil, nil, conc.WrapCanceled(fmt.Errorf("sta: %s: %w", t.design, err))
	}
	obs.From(ctx).Counter("sta.analyses").Inc()
	b, err := newBinding(t, lib, &bt.cfg)
	if err != nil {
		return nil, nil, err
	}
	s := newState(len(t.nets))
	if err := propagate(t, b, s, &bt.cfg); err != nil {
		return nil, nil, err
	}
	return b, s, nil
}

// DeltaBinding is one base library bound to a BatchTimer's compiled
// netlist together with its cells' tables interleaved with their
// sensitivities (liberty.ArcShift): the Monte Carlo sample loop, where
// each sample shifts every instance's tables by that instance's weights.
// It is built once per base library and query and is safe for concurrent
// use. The interleaved tables are shared, not copied: every instance of
// a cell reads its cell's. Pin capacitances are the base cells', so the
// binding's loads are every sample's; a CP call allocates nothing,
// reusing the propagation state of a finished call.
type DeltaBinding struct {
	bt *BatchTimer
	b  *binding

	mu   sync.Mutex
	free []*state // states of finished CP calls
}

// BindDeltas binds lib to the compiled netlist with shifts, the
// interleaved tables of every cell the netlist instantiates
// (char.Sensitivity.Shifts), aligned with the cell's arcs in lib and
// interleaved from its tables. The binding reads the tables in place.
func (bt *BatchTimer) BindDeltas(lib *liberty.Library, shifts map[string][]liberty.ArcShift) (*DeltaBinding, error) {
	t := bt.topo
	b, err := newBinding(t, lib, &bt.cfg)
	if err != nil {
		return nil, err
	}
	b.tables = make([][]liberty.ArcShift, len(t.src))
	for i, ct := range b.ct {
		sh := shifts[ct.Name]
		if len(sh) != len(ct.Arcs) {
			return nil, fmt.Errorf("sta: %d shifted arcs for the %d arcs of cell %q (inst %s)",
				len(sh), len(ct.Arcs), ct.Name, t.name(i))
		}
		b.tables[i] = sh
	}
	return &DeltaBinding{bt: bt, b: b}, nil
}

// CP times one sample and returns its critical-path delay: instance
// n.Insts[k] (BatchTimer.Insts()[k]) times on its cell's tables shifted
// by weights w[k], and an instance whose weights are all zero on the
// unshifted tables. The result is bit-identical to BatchTimer.CP under
// the instance-variant library whose cells carry
// liberty.ShiftTable.Shifted of each table (the library
// char.Sensitivity.SampleLibrary builds), because every lookup shifts
// exactly the four grid points it reads (liberty.ShiftTable.At).
func (db *DeltaBinding) CP(ctx context.Context, w []liberty.DeltaWeights) (float64, error) {
	t := db.bt.topo
	if err := ctx.Err(); err != nil {
		return 0, conc.WrapCanceled(fmt.Errorf("sta: %s: %w", t.design, err))
	}
	if len(w) != len(t.src) {
		return 0, fmt.Errorf("sta: %s: %d weights for %d instances", t.design, len(w), len(t.src))
	}
	obs.From(ctx).Counter("sta.analyses").Inc()
	b := *db.b
	b.w = w
	s := db.state()
	defer db.recycle(s)
	if err := propagate(t, &b, s, &db.bt.cfg); err != nil {
		return 0, err
	}
	return s.cp, nil
}

// state returns the state of a finished CP call, or a new one.
func (db *DeltaBinding) state() *state {
	db.mu.Lock()
	if n := len(db.free); n > 0 {
		s := db.free[n-1]
		db.free = db.free[:n-1]
		db.mu.Unlock()
		return s
	}
	db.mu.Unlock()
	return newState(len(db.bt.topo.nets))
}

// recycle hands a finished call's state to the next CP call.
func (db *DeltaBinding) recycle(s *state) {
	db.mu.Lock()
	db.free = append(db.free, s)
	db.mu.Unlock()
}
