package sta

import (
	"context"
	"fmt"

	"ageguard/internal/conc"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
)

// BatchTimer is the many-libraries counterpart of Analyzer for workloads
// that re-time ONE fixed netlist under a stream of libraries and only need
// the critical-path delay: the paper's Fig. 5 duty-cycle grid (up to 121
// aged libraries) and the Monte Carlo statistical STA inner loop, where
// every sample materializes its own instance-variant library. The netlist
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
// template (the flow's aged and instance-variant libraries all do) can
// then be timed with CP; one that deviates gets its own topology.
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
