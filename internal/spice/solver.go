package spice

import (
	"fmt"
	"math"
	"sync"

	"ageguard/internal/device"
	"ageguard/internal/obs"
	"ageguard/internal/units"
)

// This file is the transient solver's hot path. Three decisions keep the
// per-Newton-iteration cost down (see DESIGN.md §5.3):
//
//   - per-element stamp programs are compiled once per run: every
//     resistor, capacitor and MOSFET carries the pre-resolved flat
//     Jacobian offsets of the cells it touches, so the assembly loop is
//     branch-light and performs no node-table lookups;
//   - the Jacobian is one row-major []float64 with a cache-friendly LU
//     kernel, not a [][]float64 of per-row allocations;
//   - MOS conductances come from the analytic derivatives of the compact
//     model (device.Model.Eval) instead of finite differences, and a linear
//     predictor seeds each Newton solve from the previous step's slope.
//     The tests check both against references: finite differences of
//     the assembled residual, and Newton solves started without the
//     predictor.
//
// Solver state is recycled through a sync.Pool (spice.pool.{hits,misses}).
// The pool is safe under the package's concurrency contract: each
// Run/RunRetry call owns its solver exclusively between
// acquire and release, and the retry ladder reuses one solver — including
// its compiled stamps — across all rungs.

// drivenStamp updates one driven node's voltage each time step.
type drivenStamp struct {
	node int32
	wave Waveform
}

// freeStamp is one solved-for node: its node-array index and the flat
// offset of its Jacobian diagonal (for the gmin conditioning term). The
// k-th freeStamp owns unknown k.
type freeStamp struct {
	node int32
	diag int32
}

// linStamp is a compiled resistor: conductance, terminal node indices,
// unknown rows (or -1) and the flat Jacobian offsets of the up-to-four
// cells it touches (-1 when the row or column is not an unknown).
type linStamp struct {
	a, b               int32
	ia, ib             int32
	paa, pab, pba, pbb int32
	g                  float64
}

// capStamp is a compiled capacitor (same layout, value instead of g).
type capStamp struct {
	a, b               int32
	ia, ib             int32
	paa, pab, pba, pbb int32
	c                  float64
}

// mosStamp is a compiled MOSFET: the precomputed compact model (hot,
// first for locality), terminal node indices, drain/gate/source unknown
// indices (-1 when fixed) and the flat offsets of the six Jacobian cells
// its conductances touch.
type mosStamp struct {
	m             device.Model
	d, g, s       int32
	id, ig, is    int32
	pdd, pdg, pds int32 // row id × columns (d, g, s)
	psd, psg, pss int32 // row is × columns (d, g, s)
}

// solver holds per-run mutable state: the compiled stamp program plus the
// Newton/LU scratch vectors. Instances are pooled; see acquireSolver.
type solver struct {
	c    *Circuit
	nn   int // total node count
	nu   int // unknown (free-node) count
	opts Options

	vPrev []float64 // committed node voltages (all nodes)
	vCur  []float64 // trial node voltages (all nodes)
	vOld  []float64 // committed voltages one accepted step back (predictor)
	jac   []float64 // nu×nu Jacobian, row-major
	rhs   []float64
	dx    []float64

	// Predictor state: linear extrapolation of the last accepted step
	// seeds the Newton iteration (see step).
	havePrev bool
	hPrev    float64

	driven []drivenStamp
	frees  []freeStamp
	lins   []linStamp
	caps   []capStamp
	mos    []mosStamp

	iters int64 // Newton iterations performed (incl. settle), for metrics
}

// solverPool recycles solver state across transient runs. Entries hold no
// circuit references between uses (release clears them), so pooled
// solvers never pin caller-owned waveforms or circuits.
var solverPool sync.Pool

// acquireSolver returns a pooled solver (or a fresh one) and records the
// pool outcome in the run's metrics registry.
func acquireSolver(reg *obs.Registry) *solver {
	if v := solverPool.Get(); v != nil {
		reg.Counter("spice.pool.hits").Inc()
		return v.(*solver)
	}
	reg.Counter("spice.pool.misses").Inc()
	return &solver{}
}

// release returns the solver to the pool, dropping all references to the
// circuit it ran so the pool retains only float scratch.
func (s *solver) release() {
	s.c = nil
	for i := range s.driven {
		s.driven[i].wave = nil
	}
	s.driven = s.driven[:0]
	solverPool.Put(s)
}

// growF resizes a float scratch slice to n, reusing capacity.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// compile assigns unknown indices to the circuit's free nodes and builds
// the stamp program. It runs once per acquire (the retry ladder reuses
// the compiled program across rungs); elements that touch no unknown are
// dropped entirely — they cannot contribute to the system.
func (s *solver) compile(c *Circuit) {
	s.c = c
	s.nn = len(c.nodes)
	nu := 0
	for i := range c.nodes {
		if c.nodes[i].kind == kindFree {
			c.nodes[i].idx = nu
			nu++
		} else {
			c.nodes[i].idx = -1
		}
	}
	s.nu = nu
	s.vPrev = growF(s.vPrev, s.nn)
	s.vCur = growF(s.vCur, s.nn)
	s.vOld = growF(s.vOld, s.nn)
	s.jac = growF(s.jac, nu*nu)
	s.rhs = growF(s.rhs, nu)
	s.dx = growF(s.dx, nu)

	pos := func(row, col int32) int32 {
		if row < 0 || col < 0 {
			return -1
		}
		return row*int32(nu) + col
	}
	idx := func(n NodeID) int32 { return int32(c.nodes[n].idx) }

	s.driven = s.driven[:0]
	s.frees = s.frees[:0]
	for i, nd := range c.nodes {
		switch nd.kind {
		case kindDriven:
			s.driven = append(s.driven, drivenStamp{node: int32(i), wave: nd.wave})
		case kindFree:
			k := int32(nd.idx)
			s.frees = append(s.frees, freeStamp{node: int32(i), diag: pos(k, k)})
		}
	}
	s.lins = s.lins[:0]
	for _, r := range c.res {
		ia, ib := idx(r.a), idx(r.b)
		if ia < 0 && ib < 0 {
			continue
		}
		s.lins = append(s.lins, linStamp{
			a: int32(r.a), b: int32(r.b), ia: ia, ib: ib,
			paa: pos(ia, ia), pab: pos(ia, ib), pba: pos(ib, ia), pbb: pos(ib, ib),
			g: r.g,
		})
	}
	s.caps = s.caps[:0]
	for _, cp := range c.caps {
		ia, ib := idx(cp.a), idx(cp.b)
		if ia < 0 && ib < 0 {
			continue
		}
		s.caps = append(s.caps, capStamp{
			a: int32(cp.a), b: int32(cp.b), ia: ia, ib: ib,
			paa: pos(ia, ia), pab: pos(ia, ib), pba: pos(ib, ia), pbb: pos(ib, ib),
			c: cp.c,
		})
	}
	s.mos = s.mos[:0]
	for _, m := range c.mos {
		id, ig, is := idx(m.d), idx(m.g), idx(m.s)
		if id < 0 && is < 0 {
			continue
		}
		s.mos = append(s.mos, mosStamp{
			m: m.p.Model(),
			d: int32(m.d), g: int32(m.g), s: int32(m.s),
			id: id, ig: ig, is: is,
			pdd: pos(id, id), pdg: pos(id, ig), pds: pos(id, is),
			psd: pos(is, id), psg: pos(is, ig), pss: pos(is, is),
		})
	}
}

// initState resets the committed voltages to the t=0 state for a fresh
// transient attempt (each retry rung restarts from here) and installs the
// attempt's options.
func (s *solver) initState(opts Options) {
	s.opts = opts
	s.iters = 0
	s.havePrev = false
	for i, nd := range s.c.nodes {
		switch nd.kind {
		case kindGround:
			s.vPrev[i] = 0
		case kindSupply:
			s.vPrev[i] = s.c.vdd
		case kindDriven:
			s.vPrev[i] = nd.wave.At(0)
		default:
			s.vPrev[i] = 0
			if opts.InitV != nil {
				if v, ok := opts.InitV(nd.name); ok {
					s.vPrev[i] = v
				}
			}
		}
	}
	copy(s.vCur, s.vPrev)
}

// settle relaxes the circuit at t=0 by taking a sequence of large backward
// Euler steps with frozen inputs until the state stops changing.
func (s *solver) settle() error {
	const settleStep = 50 * units.Ps
	for iter := 0; iter < 400; iter++ {
		ok, dv := s.step(0, settleStep)
		if !ok {
			// Retry with a smaller pseudo-step; latches starting from
			// all-zero may need gentler relaxation.
			if ok2, _ := s.step(0, settleStep/100); !ok2 {
				return fmt.Errorf("%w during DC settle", ErrNoConvergence)
			}
		}
		s.accept()
		if ok && dv < 1e-7 {
			return nil
		}
	}
	return fmt.Errorf("%w: DC settle did not stabilize", ErrNoConvergence)
}

func (s *solver) accept() { copy(s.vPrev, s.vCur) }
func (s *solver) reject() { copy(s.vCur, s.vPrev) }

// acceptStep commits a transient step and records the (state, step-size)
// history the predictor extrapolates from. The DC settle uses plain
// accept, so the first transient step always starts unpredicted.
func (s *solver) acceptStep(h float64) {
	copy(s.vOld, s.vPrev)
	copy(s.vPrev, s.vCur)
	s.hPrev = h
	s.havePrev = true
}

// step attempts one backward-Euler step to absolute time t with step h.
// It returns whether Newton converged and the largest node-voltage change
// relative to the previous committed state.
func (s *solver) step(t, h float64) (bool, float64) {
	// Trial point: previous values everywhere (ground/supply are already
	// correct in vPrev), driven nodes advanced to the new time. With step
	// history available, free nodes start from a linear extrapolation of
	// the last accepted step instead — typically one Newton iteration
	// cheaper. The converged solution is unchanged (same residual, same
	// tolerance); only the iteration path differs.
	copy(s.vCur, s.vPrev)
	if s.havePrev && s.hPrev > 0 {
		r := h / s.hPrev
		for k := range s.frees {
			n := s.frees[k].node
			s.vCur[n] += r * (s.vPrev[n] - s.vOld[n])
		}
	}
	for i := range s.driven {
		d := &s.driven[i]
		s.vCur[d.node] = d.wave.At(t)
	}
	const maxIter = 40
	clamp := s.opts.NewtonClamp
	for iter := 0; iter < maxIter; iter++ {
		s.iters++
		s.assemble(h)
		if !s.luSolve() {
			return false, 0
		}
		var dmax float64
		for k := range s.frees {
			// Voltage limiting stabilizes Newton on stiff MOS curves.
			d := units.Clamp(s.dx[k], -clamp, clamp)
			s.vCur[s.frees[k].node] += d
			if a := math.Abs(d); a > dmax {
				dmax = a
			}
		}
		if dmax < 1e-7 {
			var dv float64
			for i := range s.vCur {
				if a := math.Abs(s.vCur[i] - s.vPrev[i]); a > dv {
					dv = a
				}
			}
			return true, dv
		}
	}
	return false, 0
}

// assemble builds the Newton system J*dx = -F at the current trial point
// by executing the compiled stamp program. F_i is the sum of currents
// leaving free node i. MOS conductances are the analytic derivatives of
// the compact model (device.Model.Eval).
func (s *solver) assemble(h float64) {
	jac, rhs := s.jac, s.rhs
	for i := range jac {
		jac[i] = 0
	}
	for i := range rhs {
		rhs[i] = 0
	}
	vc, vp := s.vCur, s.vPrev

	// gmin to ground keeps isolated nodes well-conditioned.
	const gmin = 1e-12
	for k := range s.frees {
		f := &s.frees[k]
		rhs[k] -= gmin * vc[f.node]
		jac[f.diag] += gmin
	}

	for i := range s.lins {
		r := &s.lins[i]
		cur := r.g * (vc[r.a] - vc[r.b])
		if r.ia >= 0 {
			rhs[r.ia] -= cur
			jac[r.paa] += r.g
			if r.pab >= 0 {
				jac[r.pab] -= r.g
			}
		}
		if r.ib >= 0 {
			rhs[r.ib] += cur
			jac[r.pbb] += r.g
			if r.pba >= 0 {
				jac[r.pba] -= r.g
			}
		}
	}

	for i := range s.caps {
		cp := &s.caps[i]
		geq := cp.c / h
		cur := geq * ((vc[cp.a] - vc[cp.b]) - (vp[cp.a] - vp[cp.b]))
		if cp.ia >= 0 {
			rhs[cp.ia] -= cur
			jac[cp.paa] += geq
			if cp.pab >= 0 {
				jac[cp.pab] -= geq
			}
		}
		if cp.ib >= 0 {
			rhs[cp.ib] += cur
			jac[cp.pbb] += geq
			if cp.pba >= 0 {
				jac[cp.pba] -= geq
			}
		}
	}

	for i := range s.mos {
		m := &s.mos[i]
		ids, gds, gm, gms := m.m.Eval(vc[m.d], vc[m.g], vc[m.s])
		if m.id >= 0 {
			rhs[m.id] -= ids
			if m.pdd >= 0 {
				jac[m.pdd] += gds
			}
			if m.pdg >= 0 {
				jac[m.pdg] += gm
			}
			if m.pds >= 0 {
				jac[m.pds] += gms
			}
		}
		if m.is >= 0 {
			rhs[m.is] += ids
			if m.psd >= 0 {
				jac[m.psd] -= gds
			}
			if m.psg >= 0 {
				jac[m.psg] -= gm
			}
			if m.pss >= 0 {
				jac[m.pss] -= gms
			}
		}
	}
}

// luSolve factorizes the assembled Jacobian in place (partial pivoting)
// and solves for the Newton update dx. Returns false on singularity.
func (s *solver) luSolve() bool {
	n := s.nu
	a := s.jac
	b := s.rhs
	for k := 0; k < n; k++ {
		// Pivot search in column k.
		piv, pmax := k, math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > pmax {
				piv, pmax = i, v
			}
		}
		if pmax < 1e-30 {
			return false
		}
		if piv != k {
			// Columns < k of both rows are already eliminated (zero), so
			// swapping the trailing parts is a full row exchange.
			rk, rp := a[k*n:(k+1)*n], a[piv*n:(piv+1)*n]
			for j := k; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			b[k], b[piv] = b[piv], b[k]
		}
		inv := 1 / a[k*n+k]
		rk := a[k*n : (k+1)*n]
		for i := k + 1; i < n; i++ {
			f := a[i*n+k] * inv
			if f == 0 {
				continue
			}
			row := a[i*n : (i+1)*n]
			row[k] = 0
			for j := k + 1; j < n; j++ {
				row[j] -= f * rk[j]
			}
			b[i] -= f * b[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		x := b[i]
		row := a[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			x -= row[j] * s.dx[j]
		}
		s.dx[i] = x / row[i]
	}
	return true
}
