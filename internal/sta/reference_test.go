package sta

import (
	"fmt"
	"math"
	"sort"

	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
)

// This file holds the reference implementation of the timing engine: a
// straight-line, string-keyed analysis, path traceback, top-K path
// extraction and fixed-path re-timing. It recomputes levelization, fanout
// maps and loads from scratch on every call. It is test-only: the
// executable specification that the compiled engine in analyzer.go is
// differential-tested against, bit for bit.

// pred is the winning arc into one edge of a net.
type pred struct {
	inst    *netlist.Inst
	pin     string
	fromNet string
	inEdge  liberty.Edge
	delay   float64
}

// analyzeReference is the straight-line analysis Analyze must reproduce
// bit for bit.
func analyzeReference(n *netlist.Netlist, lib *liberty.Library, cfg Config) (*Result, error) {
	cfg.fill()
	look := netlist.LibraryLookup(lib)
	order, err := n.Levelize(look)
	if err != nil {
		return nil, err
	}
	fanouts, err := n.FanoutMap(look)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Arrival: map[string][2]float64{},
		Slew:    map[string][2]float64{},
		Load:    map[string]float64{},
	}
	preds := map[string][2]pred{}

	// Net loads: sink pin caps + wire estimate (+ PO load).
	loadOf := func(net string) float64 {
		if l, ok := res.Load[net]; ok {
			return l
		}
		sinks := fanouts[net]
		l := cfg.WireCap
		if len(sinks) > 1 {
			l += cfg.WireCapFan * float64(len(sinks)-1)
		}
		for _, s := range sinks {
			ct := lib.MustCell(s.Inst.Cell)
			l += ct.PinCap[s.Pin]
		}
		for _, po := range n.Outputs {
			if po == net {
				l += cfg.OutputLoad
				break
			}
		}
		res.Load[net] = l
		return l
	}

	neg := math.Inf(-1)
	// Launch points: primary inputs.
	for _, pi := range n.Inputs {
		res.Arrival[pi] = [2]float64{0, 0}
		res.Slew[pi] = [2]float64{cfg.InputSlew, cfg.InputSlew}
	}

	arrOf := func(net string) ([2]float64, bool) {
		a, ok := res.Arrival[net]
		return a, ok
	}

	for _, in := range order {
		ct := lib.MustCell(in.Cell)
		outNet := in.Pins[ct.Output]
		load := loadOf(outNet)
		arr := [2]float64{neg, neg}
		slw := [2]float64{0, 0}
		var pr [2]pred

		if ct.Seq {
			// Clock-to-Q launch.
			for _, arc := range ct.ArcsFor(ct.Clock) {
				for e := liberty.Rise; e <= liberty.Fall; e++ {
					if arc.Delay[e] == nil {
						continue
					}
					d := arc.Delay[e].At(cfg.ClockSlew, load)
					if d > arr[e] {
						arr[e] = d
						slw[e] = arc.OutSlew[e].At(cfg.ClockSlew, load)
						pr[e] = pred{inst: in, pin: ct.Clock, fromNet: netlist.ClockNet, inEdge: liberty.Rise, delay: d}
					}
				}
			}
		} else {
			for _, arc := range ct.Arcs {
				inNet := in.Pins[arc.Pin]
				ia, ok := arrOf(inNet)
				if !ok {
					continue // unreachable input (e.g. tied elsewhere)
				}
				is := res.Slew[inNet]
				for e := liberty.Rise; e <= liberty.Fall; e++ {
					if arc.Delay[e] == nil {
						continue
					}
					ie := arc.Sense.InputEdge(e)
					if math.IsInf(ia[ie], -1) {
						continue
					}
					d := arc.Delay[e].At(is[ie], load)
					if cand := ia[ie] + d; cand > arr[e] {
						arr[e] = cand
						slw[e] = arc.OutSlew[e].At(is[ie], load)
						pr[e] = pred{inst: in, pin: arc.Pin, fromNet: inNet, inEdge: ie, delay: d}
					}
				}
			}
		}
		if math.IsInf(arr[0], -1) && math.IsInf(arr[1], -1) {
			return nil, fmt.Errorf("sta: instance %s has no arrival (undriven inputs?)", in.Name)
		}
		res.Arrival[outNet] = arr
		res.Slew[outNet] = slw
		preds[outNet] = pr
	}

	// Endpoints: primary outputs and DFF data pins (+ setup).
	bestEnd := ""
	bestEdge := liberty.Rise
	bestDelay := neg
	bestSetup := 0.0
	consider := func(net string, setup float64) {
		a, ok := res.Arrival[net]
		if !ok {
			return
		}
		for e := liberty.Rise; e <= liberty.Fall; e++ {
			if a[e]+setup > bestDelay {
				bestDelay = a[e] + setup
				bestEnd, bestEdge, bestSetup = net, e, setup
			}
		}
	}
	for _, po := range n.Outputs {
		consider(po, 0)
	}
	for _, in := range n.Insts {
		ct := lib.MustCell(in.Cell)
		if ct.Seq {
			consider(in.Pins[ct.Data], ct.SetupPS)
		}
	}
	if bestEnd == "" {
		return nil, fmt.Errorf("sta: no timing endpoints in %s", n.Name)
	}
	res.CP = bestDelay
	res.Worst = tracePath(res, preds, bestEnd, bestEdge, bestSetup)
	res.backward(n, lib, order, cfg)
	return res, nil
}

// backward propagates required times from the endpoints (target = CP) and
// derives per-net slacks, enabling slack-driven optimization passes.
func (res *Result) backward(n *netlist.Netlist, lib *liberty.Library, order []*netlist.Inst, cfg Config) {
	inf := math.Inf(1)
	res.Required = map[string][2]float64{}
	res.Slack = map[string]float64{}
	setReq := func(net string, e liberty.Edge, v float64) {
		r, ok := res.Required[net]
		if !ok {
			r = [2]float64{inf, inf}
		}
		if v < r[e] {
			r[e] = v
		}
		res.Required[net] = r
	}
	for _, po := range n.Outputs {
		setReq(po, liberty.Rise, res.CP)
		setReq(po, liberty.Fall, res.CP)
	}
	for _, in := range n.Insts {
		ct := lib.MustCell(in.Cell)
		if ct.Seq {
			d := in.Pins[ct.Data]
			setReq(d, liberty.Rise, res.CP-ct.SetupPS)
			setReq(d, liberty.Fall, res.CP-ct.SetupPS)
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		in := order[i]
		ct := lib.MustCell(in.Cell)
		if ct.Seq {
			continue
		}
		outNet := in.Pins[ct.Output]
		load := res.Load[outNet]
		outReq, ok := res.Required[outNet]
		if !ok {
			continue // dangling output: unconstrained
		}
		for _, arc := range ct.Arcs {
			inNet := in.Pins[arc.Pin]
			is := res.Slew[inNet]
			for e := liberty.Rise; e <= liberty.Fall; e++ {
				if arc.Delay[e] == nil || math.IsInf(outReq[e], 1) {
					continue
				}
				ie := arc.Sense.InputEdge(e)
				d := arc.Delay[e].At(is[ie], load)
				setReq(inNet, ie, outReq[e]-d)
			}
		}
	}
	for net, arr := range res.Arrival {
		req, ok := res.Required[net]
		if !ok {
			res.Slack[net] = inf
			continue
		}
		s := inf
		for e := 0; e < 2; e++ {
			if math.IsInf(arr[e], -1) || math.IsInf(req[e], 1) {
				continue
			}
			if v := req[e] - arr[e]; v < s {
				s = v
			}
		}
		res.Slack[net] = s
	}
}

// tracePath reconstructs the critical path by following predecessors.
func tracePath(res *Result, preds map[string][2]pred, endNet string, endEdge liberty.Edge, setup float64) Path {
	p := Path{Endpoint: endNet, EndEdge: endEdge, Setup: setup}
	p.Delay = res.Arrival[endNet][endEdge] + setup
	net, edge := endNet, endEdge
	for {
		pr, ok := preds[net]
		if !ok || pr[edge].inst == nil {
			break
		}
		q := pr[edge]
		p.Steps = append(p.Steps, Step{
			Inst:    q.inst.Name,
			Cell:    q.inst.Cell,
			Pin:     q.pin,
			FromNet: q.fromNet,
			ToNet:   net,
			InEdge:  q.inEdge,
			OutEdge: edge,
			Delay:   q.delay,
			Arrival: res.Arrival[net][edge],
		})
		net, edge = q.fromNet, q.inEdge
		if net == netlist.ClockNet {
			break
		}
	}
	p.Launch = net
	// Reverse steps to launch->endpoint order.
	for i, j := 0, len(p.Steps)-1; i < j; i, j = i+1, j-1 {
		p.Steps[i], p.Steps[j] = p.Steps[j], p.Steps[i]
	}
	return p
}

// endpointArrival is one timing endpoint with its worst arrival.
type endpointArrival struct {
	Net   string
	Edge  liberty.Edge
	Delay float64 // arrival + setup [s]
	Setup float64
}

// endpointsReference returns every timing endpoint (primary outputs and
// register data pins) sorted by decreasing delay.
func endpointsReference(n *netlist.Netlist, lib *liberty.Library, res *Result) ([]endpointArrival, error) {
	var out []endpointArrival
	add := func(net string, setup float64) {
		a, ok := res.Arrival[net]
		if !ok {
			return
		}
		for e := liberty.Rise; e <= liberty.Fall; e++ {
			out = append(out, endpointArrival{Net: net, Edge: e, Delay: a[e] + setup, Setup: setup})
		}
	}
	for _, po := range n.Outputs {
		add(po, 0)
	}
	for _, in := range n.Insts {
		ct, ok := lib.Cell(in.Cell)
		if !ok {
			continue
		}
		if ct.Seq {
			add(in.Pins[ct.Data], ct.SetupPS)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Delay > out[j].Delay })
	return out, nil
}

// topPathsReference is the specification of TopPaths: the k latest
// endpoint-edges of a reference analysis, each retraced through
// predecessors recomputed from the analysis annotations.
func topPathsReference(n *netlist.Netlist, lib *liberty.Library, cfg Config, k int) ([]Path, error) {
	cfg.fill()
	res, err := analyzeReference(n, lib, cfg)
	if err != nil {
		return nil, err
	}
	eps, err := endpointsReference(n, lib, res)
	if err != nil {
		return nil, err
	}
	// Rebuild predecessor information by re-walking arrivals: the public
	// API stores only the worst path, so we retrace each endpoint path
	// with a fresh analysis pass over the stored annotations.
	preds, err := predecessors(n, lib, res, cfg)
	if err != nil {
		return nil, err
	}
	var out []Path
	for _, ep := range eps {
		if len(out) == k {
			break
		}
		p := tracePath(res, preds, ep.Net, ep.Edge, ep.Setup)
		out = append(out, p)
	}
	return out, nil
}

// predecessors recomputes, for every net and edge, the winning (latest)
// arc that produced its arrival, using the annotations already in res.
func predecessors(n *netlist.Netlist, lib *liberty.Library, res *Result, cfg Config) (map[string][2]pred, error) {
	look := netlist.LibraryLookup(lib)
	order, err := n.Levelize(look)
	if err != nil {
		return nil, err
	}
	preds := map[string][2]pred{}
	for _, in := range order {
		ct := lib.MustCell(in.Cell)
		outNet := in.Pins[ct.Output]
		load := res.Load[outNet]
		var pr [2]pred
		best := [2]float64{negInf, negInf}
		if ct.Seq {
			for _, arc := range ct.ArcsFor(ct.Clock) {
				for e := liberty.Rise; e <= liberty.Fall; e++ {
					if arc.Delay[e] == nil {
						continue
					}
					d := arc.Delay[e].At(cfg.ClockSlew, load)
					if d > best[e] {
						best[e] = d
						pr[e] = pred{inst: in, pin: ct.Clock, fromNet: netlist.ClockNet, inEdge: liberty.Rise, delay: d}
					}
				}
			}
		} else {
			for _, arc := range ct.Arcs {
				inNet := in.Pins[arc.Pin]
				ia, ok := res.Arrival[inNet]
				if !ok {
					continue
				}
				is := res.Slew[inNet]
				for e := liberty.Rise; e <= liberty.Fall; e++ {
					if arc.Delay[e] == nil {
						continue
					}
					ie := arc.Sense.InputEdge(e)
					if ia[ie] == negInf {
						continue
					}
					d := arc.Delay[e].At(is[ie], load)
					if cand := ia[ie] + d; cand > best[e] {
						best[e] = cand
						pr[e] = pred{inst: in, pin: arc.Pin, fromNet: inNet, inEdge: ie, delay: d}
					}
				}
			}
		}
		preds[outNet] = pr
	}
	return preds, nil
}

var negInf = math.Inf(-1)

// pathDelayUnderReference is the specification of PathDelayUnder.
func pathDelayUnderReference(n *netlist.Netlist, p Path, lib *liberty.Library, cfg Config) (float64, error) {
	cfg.fill()
	look := netlist.LibraryLookup(lib)
	fanouts, err := n.FanoutMap(look)
	if err != nil {
		return 0, err
	}
	loadOf := func(net string) float64 {
		sinks := fanouts[net]
		l := cfg.WireCap
		if len(sinks) > 1 {
			l += cfg.WireCapFan * float64(len(sinks)-1)
		}
		for _, s := range sinks {
			l += lib.MustCell(s.Inst.Cell).PinCap[s.Pin]
		}
		for _, po := range n.Outputs {
			if po == net {
				l += cfg.OutputLoad
				break
			}
		}
		return l
	}
	instByName := map[string]*netlist.Inst{}
	for _, in := range n.Insts {
		instByName[in.Name] = in
	}

	arrival := 0.0
	slew := cfg.InputSlew
	for i, st := range p.Steps {
		in, ok := instByName[st.Inst]
		if !ok {
			return 0, fmt.Errorf("sta: path instance %s missing", st.Inst)
		}
		ct := lib.MustCell(in.Cell)
		load := loadOf(st.ToNet)
		if ct.Seq && i == 0 {
			arc := ct.ArcsFor(ct.Clock)
			if len(arc) == 0 {
				return 0, fmt.Errorf("sta: %s has no clock arc", in.Cell)
			}
			arrival = arc[0].Delay[st.OutEdge].At(cfg.ClockSlew, load)
			slew = arc[0].OutSlew[st.OutEdge].At(cfg.ClockSlew, load)
			continue
		}
		var chosen *liberty.Arc
		for ai := range ct.Arcs {
			a := &ct.Arcs[ai]
			if a.Pin == st.Pin && a.Sense.InputEdge(st.OutEdge) == st.InEdge && a.Delay[st.OutEdge] != nil {
				chosen = a
				break
			}
		}
		if chosen == nil {
			return 0, fmt.Errorf("sta: no arc %s->%s (%v) on %s", st.Pin, st.ToNet, st.OutEdge, in.Cell)
		}
		arrival += chosen.Delay[st.OutEdge].At(slew, load)
		slew = chosen.OutSlew[st.OutEdge].At(slew, load)
	}
	return arrival + p.Setup, nil
}
