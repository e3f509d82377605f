package rtl

import (
	"math"

	"ageguard/internal/logic"
)

// Benchmarks returns the generator for every evaluation circuit of the
// paper, keyed by the names used in Figs. 5 and 6: DSP, FFT, RISC-6P,
// RISC-5P, VLIW, DCT, IDCT.
func Benchmarks() map[string]func() *logic.AIG {
	return map[string]func() *logic.AIG{
		"DSP":     GenDSP,
		"FFT":     GenFFT,
		"RISC-6P": GenRISC6,
		"RISC-5P": GenRISC5,
		"VLIW":    GenVLIW,
		"DCT":     GenDCT,
		"IDCT":    GenIDCT,
	}
}

// ---------------------------------------------------------------------------
// DCT / IDCT: 8-point fixed-point 1-D transforms (14-bit datapath,
// Q10 coefficients, CSD constant multipliers, rounded and saturated).
// A 2-D transform is two passes through the same circuit with a transpose
// in between, exactly like a hardware row/column architecture; the image
// pipeline in package image drives it that way.

// DCTWidth is the signed datapath width of the DCT/IDCT circuits.
const DCTWidth = 14

// DCTFrac is the number of fractional bits of the coefficient encoding.
const DCTFrac = 10

// DCTCoeff returns the orthonormal DCT-II coefficient matrix scaled to
// Q10 integers: C[k][n] = round(2^10 * c(k) * cos((2n+1) k pi / 16)).
func DCTCoeff() [8][8]int64 {
	var c [8][8]int64
	for k := 0; k < 8; k++ {
		scale := math.Sqrt(2.0 / 8.0)
		if k == 0 {
			scale = math.Sqrt(1.0 / 8.0)
		}
		for n := 0; n < 8; n++ {
			v := scale * math.Cos(float64(2*n+1)*float64(k)*math.Pi/16)
			c[k][n] = int64(math.Round(v * (1 << DCTFrac)))
		}
	}
	return c
}

// genTransform builds an 8-point constant-matrix transform y = M*x.
func genTransform(name string, m [8][8]int64) *logic.AIG {
	b := NewBuilder()
	const acc = DCTWidth + DCTFrac + 2 // product+sum headroom
	var x [8]Bus
	for i := range x {
		x[i] = b.Input(busName(name, i), DCTWidth)
	}
	for k := 0; k < 8; k++ {
		var sum Bus
		for n := 0; n < 8; n++ {
			if m[k][n] == 0 {
				continue
			}
			term := b.MulConst(x[n], m[k][n], acc)
			if sum == nil {
				sum = term
			} else {
				sum, _ = b.Add(sum, term, logic.False)
			}
		}
		if sum == nil {
			sum = b.Const(0, acc)
		}
		y := b.RoundShiftRight(sum, DCTFrac)
		b.Output(outName(k), b.Saturate(y, DCTWidth))
	}
	return b.A
}

func busName(prefix string, i int) string { return prefix + string(rune('a'+i)) }
func outName(k int) string                { return "y" + string(rune('0'+k)) }

// GenDCT generates the 8-point forward DCT circuit used by the paper's
// image-processing evaluation (encoder side).
func GenDCT() *logic.AIG { return genTransform("x", DCTCoeff()) }

// GenIDCT generates the inverse transform (decoder side): the transpose
// of the orthonormal DCT matrix.
func GenIDCT() *logic.AIG {
	c := DCTCoeff()
	var tr [8][8]int64
	for k := 0; k < 8; k++ {
		for n := 0; n < 8; n++ {
			tr[k][n] = c[n][k]
		}
	}
	return genTransform("z", tr)
}

// ---------------------------------------------------------------------------
// DSP: a multiply-accumulate slice (16x16 multiplier, 32-bit accumulator,
// saturating update, mode-selectable add/sub/shift), representative of the
// datapath of an audio/filter DSP.

// GenDSP generates the DSP benchmark.
func GenDSP() *logic.AIG {
	b := NewBuilder()
	a := b.Input("a", 16)
	x := b.Input("b", 16)
	c := b.Input("c", 16)
	acc := b.Input("acc", 32)
	op := b.Input("op", 2)

	prod := b.MulCSA(a, x) // 32-bit signed product
	acc34 := b.Resize(acc, 34)
	prod34 := b.Resize(prod, 34)
	mac, _ := b.AddFast(acc34, prod34, logic.False)
	msub, _ := b.Sub(acc34, prod34)
	addc, _ := b.Add(acc34, b.Resize(c, 34), logic.False)
	shift := b.Resize(b.Barrel(acc, c[:5], logic.True, true), 34)

	y := b.MuxN(op, []Bus{mac, msub, addc, shift})
	b.Output("y", b.Saturate(y, 32))
	return b.A
}

// ---------------------------------------------------------------------------
// FFT: a radix-2 decimation-in-time butterfly on 16-bit complex samples
// with Q12 twiddle factors — the inner kernel of the FFT processor.

// GenFFT generates the FFT butterfly benchmark.
func GenFFT() *logic.AIG {
	b := NewBuilder()
	ar := b.Input("ar", 16)
	ai := b.Input("ai", 16)
	br := b.Input("br", 16)
	bi := b.Input("bi", 16)
	wr := b.Input("wr", 14) // Q12 twiddle real
	wi := b.Input("wi", 14) // Q12 twiddle imag

	// t = b * w (complex), rounded back to Q0.
	brwr := b.MulCSA(br, wr) // 30 bits
	biwi := b.MulCSA(bi, wi)
	brwi := b.MulCSA(br, wi)
	biwr := b.MulCSA(bi, wr)
	trFull, _ := b.Sub(brwr, biwi)
	tiFull, _ := b.Add(brwi, biwr, logic.False)
	tr := b.Saturate(b.RoundShiftRight(trFull, 12), 16)
	ti := b.Saturate(b.RoundShiftRight(tiFull, 12), 16)

	sum := func(p, q Bus) Bus {
		s, _ := b.Add(b.Resize(p, 17), b.Resize(q, 17), logic.False)
		return b.Saturate(s, 16)
	}
	diff := func(p, q Bus) Bus {
		s, _ := b.Sub(b.Resize(p, 17), b.Resize(q, 17))
		return b.Saturate(s, 16)
	}
	b.Output("xr", sum(ar, tr))
	b.Output("xi", sum(ai, ti))
	b.Output("yr", diff(ar, tr))
	b.Output("yi", diff(ai, ti))
	return b.A
}

// ---------------------------------------------------------------------------
// RISC execute-stage slices. The combinational core of the EX stage is the
// critical-path carrier of in-order RISC pipelines: operand bypass
// multiplexers, the ALU, the branch comparator and the address generator.
// The 5-stage variant forwards from two later stages with a fast ALU
// adder; the 6-stage variant has a third forwarding source (the deeper
// pipeline), a ripple ALU adder and a separate branch unit.

func riscCore(b *Builder, fwdSources int, fastAdder bool) {
	rs1 := b.Input("rs1", 32)
	rs2 := b.Input("rs2", 32)
	fwd := make([]Bus, fwdSources)
	for i := range fwd {
		fwd[i] = b.Input("fwd"+string(rune('0'+i)), 32)
	}
	selA := b.Input("selA", 2)
	selB := b.Input("selB", 2)
	imm := b.Input("imm", 16)
	useImm := b.InputBit("useImm")
	aluOp := b.Input("aluOp", 3)

	choicesA := append([]Bus{rs1}, fwd...)
	choicesB := append([]Bus{rs2}, fwd...)
	opA := b.MuxN(selA, choicesA)
	opB := b.Mux2(useImm, b.Resize(imm, 32), b.MuxN(selB, choicesB))

	var addv Bus
	if fastAdder {
		addv, _ = b.AddFast(opA, opB, logic.False)
	} else {
		addv, _ = b.Add(opA, opB, logic.False)
	}
	subv, _ := b.Sub(opA, opB)
	andv := b.AndB(opA, opB)
	orv := b.OrB(opA, opB)
	xorv := b.XorB(opA, opB)
	slt := b.ZeroExtend(Bus{b.LtS(opA, opB)}, 32)
	sll := b.Barrel(opA, opB[:5], logic.False, false)
	srl := b.Barrel(opA, opB[:5], logic.True, true)

	res := b.MuxN(aluOp, []Bus{addv, subv, andv, orv, xorv, slt, sll, srl})
	b.Output("result", res)

	addr, _ := b.Add(opA, b.Resize(imm, 32), logic.False)
	b.Output("addr", addr)

	b.OutputBit("takenEq", b.Eq(opA, opB))
	b.OutputBit("takenLt", b.LtS(opA, opB))
}

// GenRISC5 generates the 5-pipeline-stage RISC EX slice.
func GenRISC5() *logic.AIG {
	b := NewBuilder()
	riscCore(b, 2, true)
	return b.A
}

// GenRISC6 generates the 6-pipeline-stage RISC EX slice (extra forwarding
// source, ripple ALU adder).
func GenRISC6() *logic.AIG {
	b := NewBuilder()
	riscCore(b, 3, false)
	return b.A
}

// ---------------------------------------------------------------------------
// VLIW: a 2-issue slot pair with cross-slot operand bypassing and a shared
// shifter — the characteristic mux-heavy structure of VLIW datapaths.

// GenVLIW generates the VLIW benchmark.
func GenVLIW() *logic.AIG {
	b := NewBuilder()
	type slot struct {
		a, b Bus
		op   Bus
	}
	var slots [2]slot
	for i := range slots {
		suffix := string(rune('0' + i))
		slots[i] = slot{
			a:  b.Input("a"+suffix, 32),
			b:  b.Input("b"+suffix, 32),
			op: b.Input("op"+suffix, 3),
		}
	}
	cross := b.Input("cross", 2) // cross-bypass selects
	sh := b.Input("sh", 5)

	// Cross-slot bypass: each slot's B operand may come from the other
	// slot's A operand.
	b0 := b.Mux2(cross[0], slots[1].a, slots[0].b)
	b1 := b.Mux2(cross[1], slots[0].a, slots[1].b)

	shared := b.Barrel(slots[0].a, sh, logic.True, true)

	alu := func(a, x Bus, op Bus) Bus {
		add, _ := b.AddFast(a, x, logic.False)
		sub, _ := b.Sub(a, x)
		return b.MuxN(op, []Bus{
			add, sub, b.AndB(a, x), b.OrB(a, x),
			b.XorB(a, x), shared,
			b.ZeroExtend(Bus{b.LtU(a, x)}, 32),
			b.ZeroExtend(Bus{b.Eq(a, x)}, 32),
		})
	}
	b.Output("r0", alu(slots[0].a, b0, slots[0].op))
	b.Output("r1", alu(slots[1].a, b1, slots[1].op))
	return b.A
}
