// Package rtl generates the benchmark circuits of the paper's evaluation —
// DSP, FFT, RISC-5P, RISC-6P, VLIW, DCT and IDCT — as technology-
// independent logic networks ready for synthesis.
//
// It provides a word-level builder (buses of AIG literals with two's-
// complement arithmetic: ripple and prefix adders, carry-save array
// multipliers, CSD constant multipliers, barrel shifters, comparators)
// and one generator per benchmark (see circuits.go).
package rtl

import (
	"fmt"

	"ageguard/internal/logic"
)

// Bus is a little-endian vector of literals (bit 0 first).
type Bus []logic.Lit

// Builder constructs word-level logic on an underlying AIG.
type Builder struct {
	A *logic.AIG
}

// NewBuilder returns a Builder over a fresh AIG.
func NewBuilder() *Builder { return &Builder{A: logic.New()} }

// Input creates a named w-bit input bus (bits named name[i]).
func (b *Builder) Input(name string, w int) Bus {
	bus := make(Bus, w)
	for i := range bus {
		bus[i] = b.A.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return bus
}

// InputBit creates a single named input bit.
func (b *Builder) InputBit(name string) logic.Lit { return b.A.Input(name) }

// Output registers bus as a named output (bits name[i]).
func (b *Builder) Output(name string, bus Bus) {
	for i, l := range bus {
		b.A.AddOutput(fmt.Sprintf("%s[%d]", name, i), l)
	}
}

// OutputBit registers a single named output bit.
func (b *Builder) OutputBit(name string, l logic.Lit) { b.A.AddOutput(name, l) }

// Const returns a w-bit constant bus holding v (two's complement).
func (b *Builder) Const(v int64, w int) Bus {
	bus := make(Bus, w)
	for i := range bus {
		if v>>uint(i)&1 == 1 {
			bus[i] = logic.True
		} else {
			bus[i] = logic.False
		}
	}
	return bus
}

// Width returns len(x); a convenience for call sites.
func (x Bus) Width() int { return len(x) }

// Resize returns x truncated or sign-extended to w bits.
func (b *Builder) Resize(x Bus, w int) Bus {
	out := make(Bus, w)
	for i := range out {
		switch {
		case i < len(x):
			out[i] = x[i]
		case len(x) > 0:
			out[i] = x[len(x)-1] // sign extend
		default:
			out[i] = logic.False
		}
	}
	return out
}

// ZeroExtend returns x zero-extended to w bits (or truncated).
func (b *Builder) ZeroExtend(x Bus, w int) Bus {
	out := make(Bus, w)
	for i := range out {
		if i < len(x) {
			out[i] = x[i]
		} else {
			out[i] = logic.False
		}
	}
	return out
}

// Not returns the bitwise complement.
func (b *Builder) Not(x Bus) Bus {
	out := make(Bus, len(x))
	for i := range out {
		out[i] = x[i].Not()
	}
	return out
}

// AndB returns the bitwise AND of equal-width buses.
func (b *Builder) AndB(x, y Bus) Bus { return b.zip(x, y, b.A.And) }

// OrB returns the bitwise OR.
func (b *Builder) OrB(x, y Bus) Bus { return b.zip(x, y, b.A.Or) }

// XorB returns the bitwise XOR.
func (b *Builder) XorB(x, y Bus) Bus { return b.zip(x, y, b.A.Xor) }

func (b *Builder) zip(x, y Bus, f func(a, c logic.Lit) logic.Lit) Bus {
	if len(x) != len(y) {
		panic("rtl: width mismatch")
	}
	out := make(Bus, len(x))
	for i := range out {
		out[i] = f(x[i], y[i])
	}
	return out
}

// ReduceOr returns the OR of all bits.
func (b *Builder) ReduceOr(x Bus) logic.Lit {
	r := logic.False
	for _, l := range x {
		r = b.A.Or(r, l)
	}
	return r
}

// fullAdder returns (sum, carry) of three bits.
func (b *Builder) fullAdder(x, y, c logic.Lit) (logic.Lit, logic.Lit) {
	return b.A.Xor(b.A.Xor(x, y), c), b.A.Maj(x, y, c)
}

// Add returns x + y + cin as a ripple-carry sum of width len(x), plus the
// carry out. Widths must match.
func (b *Builder) Add(x, y Bus, cin logic.Lit) (Bus, logic.Lit) {
	if len(x) != len(y) {
		panic("rtl: width mismatch")
	}
	out := make(Bus, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out, c
}

// AddFast returns x + y + cin using a Kogge-Stone parallel-prefix carry
// network — a shallower (but larger) adder that diversifies the path
// structure of generated datapaths.
func (b *Builder) AddFast(x, y Bus, cin logic.Lit) (Bus, logic.Lit) {
	if len(x) != len(y) {
		panic("rtl: width mismatch")
	}
	n := len(x)
	g := make([]logic.Lit, n) // generate
	p := make([]logic.Lit, n) // propagate
	for i := 0; i < n; i++ {
		g[i] = b.A.And(x[i], y[i])
		p[i] = b.A.Xor(x[i], y[i])
	}
	// Incorporate cin as generate into bit -1 via first combine step.
	carry := make([]logic.Lit, n+1)
	carry[0] = cin
	// Prefix combine: (G,P) spans.
	G := append([]logic.Lit(nil), g...)
	P := append([]logic.Lit(nil), p...)
	for d := 1; d < n; d <<= 1 {
		ng := append([]logic.Lit(nil), G...)
		np := append([]logic.Lit(nil), P...)
		for i := d; i < n; i++ {
			ng[i] = b.A.Or(G[i], b.A.And(P[i], G[i-d]))
			np[i] = b.A.And(P[i], P[i-d])
		}
		G, P = ng, np
	}
	for i := 0; i < n; i++ {
		// carry[i+1] = G[0..i] | P[0..i]&cin
		carry[i+1] = b.A.Or(G[i], b.A.And(P[i], cin))
	}
	out := make(Bus, n)
	for i := 0; i < n; i++ {
		out[i] = b.A.Xor(p[i], carry[i])
	}
	return out, carry[n]
}

// Sub returns x - y (two's complement) and the borrow-free carry out.
func (b *Builder) Sub(x, y Bus) (Bus, logic.Lit) {
	return b.Add(x, b.Not(y), logic.True)
}

// Neg returns -x.
func (b *Builder) Neg(x Bus) Bus {
	out, _ := b.Add(b.Not(x), b.Const(0, len(x)), logic.True)
	return out
}

// Mux2 returns s ? t : f for equal-width buses.
func (b *Builder) Mux2(s logic.Lit, t, f Bus) Bus {
	if len(t) != len(f) {
		panic("rtl: width mismatch")
	}
	out := make(Bus, len(t))
	for i := range out {
		out[i] = b.A.Mux(s, t[i], f[i])
	}
	return out
}

// MuxN selects choices[sel] with a binary select bus; missing choices
// default to the last provided one.
func (b *Builder) MuxN(sel Bus, choices []Bus) Bus {
	if len(choices) == 0 {
		panic("rtl: MuxN with no choices")
	}
	cur := choices
	for level := 0; level < len(sel); level++ {
		next := make([]Bus, (len(cur)+1)/2)
		for i := range next {
			a := cur[2*i]
			if 2*i+1 < len(cur) {
				next[i] = b.Mux2(sel[level], cur[2*i+1], a)
			} else {
				next[i] = a
			}
		}
		cur = next
	}
	return cur[0]
}

// Eq returns 1 when x == y.
func (b *Builder) Eq(x, y Bus) logic.Lit {
	return b.ReduceOr(b.XorB(x, y)).Not()
}

// LtU returns 1 when x < y, unsigned.
func (b *Builder) LtU(x, y Bus) logic.Lit {
	_, c := b.Sub(x, y)
	return c.Not() // borrow
}

// LtS returns 1 when x < y, signed.
func (b *Builder) LtS(x, y Bus) logic.Lit {
	n := len(x)
	diff, _ := b.Sub(x, y)
	sx, sy := x[n-1], y[n-1]
	// x<y iff (sx&!sy) | (sx==sy & diff<0)
	return b.A.Or(b.A.And(sx, sy.Not()),
		b.A.And(b.A.Xnor(sx, sy), diff[n-1]))
}

// ShiftLeftConst shifts left by k, keeping width.
func (b *Builder) ShiftLeftConst(x Bus, k int) Bus {
	out := make(Bus, len(x))
	for i := range out {
		if i >= k {
			out[i] = x[i-k]
		} else {
			out[i] = logic.False
		}
	}
	return out
}

// ShiftRightConst shifts right by k; arith selects sign fill.
func (b *Builder) ShiftRightConst(x Bus, k int, arith bool) Bus {
	out := make(Bus, len(x))
	fill := logic.False
	if arith && len(x) > 0 {
		fill = x[len(x)-1]
	}
	for i := range out {
		if i+k < len(x) {
			out[i] = x[i+k]
		} else {
			out[i] = fill
		}
	}
	return out
}

// Barrel implements a logarithmic barrel shifter: right when right is
// true, else left; arith selects arithmetic right shifts.
func (b *Builder) Barrel(x Bus, sh Bus, right logic.Lit, arith bool) Bus {
	cur := x
	for s := 0; s < len(sh); s++ {
		k := 1 << s
		if k >= len(x) {
			break
		}
		l := b.ShiftLeftConst(cur, k)
		r := b.ShiftRightConst(cur, k, arith)
		shifted := b.Mux2(right, r, l)
		cur = b.Mux2(sh[s], shifted, cur)
	}
	return cur
}

// MulCSA returns the len(x)+len(y)-bit signed product using a carry-save
// (3:2 compressor) reduction tree with a final ripple adder — the
// structure of real datapath multipliers (Baugh-Wooley sign handling).
func (b *Builder) MulCSA(x, y Bus) Bus {
	n, m := len(x), len(y)
	w := n + m
	xs := b.Resize(x, w)
	// Partial products: pp[j] = (y[j] ? x<<j : 0), sign-extended.
	var rows []Bus
	for j := 0; j < m; j++ {
		row := make(Bus, w)
		sx := b.ShiftLeftConst(xs, j)
		for i := range row {
			row[i] = b.A.And(sx[i], y[j])
		}
		if j == m-1 {
			// Subtract the last row for the signed multiplier bit:
			// x*y = sum_{j<m-1} x*2^j*y_j - x*2^(m-1)*y_{m-1}.
			row = b.Neg(row)
		}
		rows = append(rows, row)
	}
	// Carry-save reduction.
	for len(rows) > 2 {
		var next []Bus
		for i := 0; i+2 < len(rows); i += 3 {
			s := make(Bus, w)
			c := make(Bus, w)
			c[0] = logic.False
			for k := 0; k < w; k++ {
				sum, carry := b.fullAdder(rows[i][k], rows[i+1][k], rows[i+2][k])
				s[k] = sum
				if k+1 < w {
					c[k+1] = carry
				}
			}
			next = append(next, s, c)
		}
		rem := len(rows) % 3
		next = append(next, rows[len(rows)-rem:]...)
		rows = next
	}
	if len(rows) == 1 {
		return rows[0]
	}
	out, _ := b.Add(rows[0], rows[1], logic.False)
	return out
}

// MulConst returns x * c (signed x, integer constant c) at width w using
// canonical-signed-digit shift-and-add — the structure used for the
// DCT/IDCT coefficient multipliers.
func (b *Builder) MulConst(x Bus, c int64, w int) Bus {
	if c == 0 {
		return b.Const(0, w)
	}
	neg := c < 0
	if neg {
		c = -c
	}
	xs := b.Resize(x, w)
	var acc Bus
	// CSD recoding: digits in {-1, 0, +1} with no adjacent nonzeros.
	for i := 0; c != 0; i++ {
		if c&1 == 1 {
			var d int64 = 1
			if c&3 == 3 {
				d = -1 // ...11 -> +100...(-1)
			}
			term := b.ShiftLeftConst(xs, i)
			switch {
			case acc == nil && d > 0:
				acc = term
			case acc == nil:
				acc = b.Neg(term)
			case d > 0:
				acc, _ = b.Add(acc, term, logic.False)
			default:
				acc, _ = b.Sub(acc, term)
			}
			c -= d
		}
		c >>= 1
	}
	if neg {
		acc = b.Neg(acc)
	}
	return acc
}

// RoundShiftRight returns (x + 2^(k-1)) >> k, arithmetic, keeping width
// len(x)-k but at least 1.
func (b *Builder) RoundShiftRight(x Bus, k int) Bus {
	half := b.Const(1<<(k-1), len(x))
	sum, _ := b.Add(x, half, logic.False)
	sh := b.ShiftRightConst(sum, k, true)
	return sh[:max(1, len(x)-k)]
}

// Saturate clamps a signed value to w bits (keeping w bits out).
func (b *Builder) Saturate(x Bus, w int) Bus {
	if len(x) <= w {
		return b.Resize(x, w)
	}
	sign := x[len(x)-1]
	// Overflow iff the discarded top bits plus new sign bit are not all
	// equal to the sign.
	ovf := logic.False
	for i := w - 1; i < len(x); i++ {
		ovf = b.A.Or(ovf, b.A.Xor(x[i], sign))
	}
	maxv := b.Const(1<<(w-1)-1, w)
	minv := b.Const(-(1 << (w - 1)), w)
	clamped := b.Mux2(sign, minv, maxv)
	return b.Mux2(ovf, clamped, x[:w])
}
