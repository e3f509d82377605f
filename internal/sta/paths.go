package sta

import (
	"context"
	"sort"

	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
)

// TopPaths extracts the k worst register-to-register/output paths of n
// under lib: it compiles n and calls BatchTimer.TopPaths once.
func TopPaths(ctx context.Context, n *netlist.Netlist, lib *liberty.Library, cfg Config, k int) ([]Path, error) {
	bt, err := NewBatchTimer(ctx, n, lib, cfg)
	if err != nil {
		return nil, err
	}
	return bt.TopPaths(ctx, lib, k)
}

// TopPaths extracts the k worst register-to-register/output paths under
// lib, one per endpoint-edge: every endpoint-edge is ranked by arrival
// plus setup (stable, latest first) and the k latest are traced back
// through the compiled predecessors. (Industrial tools enumerate multiple
// paths per endpoint too; one-per-endpoint is the granularity the
// optimization passes and the paper's comparisons need.) A k beyond the
// endpoint-edge count returns them all.
func (bt *BatchTimer) TopPaths(ctx context.Context, lib *liberty.Library, k int) ([]Path, error) {
	b, s, err := bt.time(ctx, lib)
	if err != nil {
		return nil, err
	}
	t := bt.topo
	type endpoint struct {
		net          int32
		edge         liberty.Edge
		delay, setup float64
	}
	var eps []endpoint
	forEndpoint(t, b, func(net int32, setup float64) {
		if !s.hasArr[net] {
			return
		}
		for e := liberty.Rise; e <= liberty.Fall; e++ {
			eps = append(eps, endpoint{net, e, s.arr[net][e] + setup, setup})
		}
	})
	sort.SliceStable(eps, func(i, j int) bool { return eps[i].delay > eps[j].delay })
	var out []Path
	for _, ep := range eps {
		if len(out) == k {
			break
		}
		out = append(out, traceCompiled(t, b, s, ep.net, ep.edge, ep.setup))
	}
	return out, nil
}
