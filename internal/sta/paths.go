package sta

import (
	"context"
	"sort"

	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
)

// TopPaths extracts the k worst register-to-register/output paths, one
// per endpoint-edge: every endpoint-edge is ranked by arrival plus setup
// (stable, latest first) and the k latest are traced back through the
// compiled predecessors. (Industrial tools enumerate multiple paths per
// endpoint too; one-per-endpoint is the granularity the optimization
// passes and the paper's comparisons need.) A k beyond the endpoint-edge
// count returns them all.
func TopPaths(ctx context.Context, n *netlist.Netlist, lib *liberty.Library, cfg Config, k int) ([]Path, error) {
	a, err := NewAnalyzer(ctx, n, lib, cfg)
	if err != nil {
		return nil, err
	}
	type endpoint struct {
		net          int32
		edge         liberty.Edge
		delay, setup float64
	}
	var eps []endpoint
	forEndpoint(a.t, a.b, func(net int32, setup float64) {
		if !a.s.hasArr[net] {
			return
		}
		for e := liberty.Rise; e <= liberty.Fall; e++ {
			eps = append(eps, endpoint{net, e, a.s.arr[net][e] + setup, setup})
		}
	})
	sort.SliceStable(eps, func(i, j int) bool { return eps[i].delay > eps[j].delay })
	var out []Path
	for _, ep := range eps {
		if len(out) == k {
			break
		}
		out = append(out, traceCompiled(a.t, a.s, ep.net, ep.edge, ep.setup))
	}
	return out, nil
}
