package rtl

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ageguard/internal/logic"
)

// evalCircuit drives the named input buses with the given integer values
// (single vector; bits replicated across all 64 lanes) and decodes every
// output bus back to a signed integer keyed by bus name.
func evalCircuit(t *testing.T, a *logic.AIG, vals map[string]int64) map[string]int64 {
	t.Helper()
	in := make([]uint64, a.NumInputs())
	for i := 0; i < a.NumInputs(); i++ {
		name, bit := splitBit(a.InputName(i))
		v, ok := vals[name]
		if !ok {
			t.Fatalf("missing input %q", name)
		}
		if v>>uint(bit)&1 == 1 {
			in[i] = ^uint64(0)
		}
	}
	out, _ := a.Eval64(in, nil)
	width := map[string]int{}
	raw := map[string]uint64{}
	for i, o := range a.Outputs() {
		name, bit := splitBit(o.Name)
		if out[i]&1 == 1 {
			raw[name] |= 1 << uint(bit)
		}
		if bit+1 > width[name] {
			width[name] = bit + 1
		}
	}
	res := map[string]int64{}
	for name, v := range raw {
		res[name] = signExtend(v, width[name])
	}
	for name, w := range width {
		if _, ok := res[name]; !ok {
			res[name] = signExtend(0, w)
		}
	}
	return res
}

func splitBit(s string) (string, int) {
	i := strings.IndexByte(s, '[')
	if i < 0 {
		return s, 0
	}
	b, _ := strconv.Atoi(strings.TrimSuffix(s[i+1:], "]"))
	return s[:i], b
}

func signExtend(v uint64, w int) int64 {
	if w >= 64 {
		return int64(v)
	}
	if v>>(uint(w)-1)&1 == 1 {
		v |= ^uint64(0) << uint(w)
	}
	return int64(v)
}

func mask(v int64, w int) int64 { return signExtend(uint64(v)&(1<<uint(w)-1), w) }

func TestAdders(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fast := range []bool{false, true} {
		b := NewBuilder()
		x := b.Input("x", 16)
		y := b.Input("y", 16)
		var s Bus
		if fast {
			s, _ = b.AddFast(x, y, logic.False)
		} else {
			s, _ = b.Add(x, y, logic.False)
		}
		b.Output("s", s)
		for i := 0; i < 200; i++ {
			xv := int64(int16(rng.Uint64()))
			yv := int64(int16(rng.Uint64()))
			got := evalCircuit(t, b.A, map[string]int64{"x": xv, "y": yv})["s"]
			if want := mask(xv+yv, 16); got != want {
				t.Fatalf("fast=%v: %d+%d = %d, want %d", fast, xv, yv, got, want)
			}
		}
	}
}

func TestSubNeg(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 12)
	y := b.Input("y", 12)
	d, _ := b.Sub(x, y)
	b.Output("d", d)
	b.Output("n", b.Neg(x))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		xv := int64(rng.Intn(4096) - 2048)
		yv := int64(rng.Intn(4096) - 2048)
		res := evalCircuit(t, b.A, map[string]int64{"x": xv, "y": yv})
		if want := mask(xv-yv, 12); res["d"] != want {
			t.Fatalf("%d-%d = %d, want %d", xv, yv, res["d"], want)
		}
		if want := mask(-xv, 12); res["n"] != want {
			t.Fatalf("-%d = %d, want %d", xv, res["n"], want)
		}
	}
}

func TestMulCSA(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 12)
	y := b.Input("y", 12)
	b.Output("p", b.MulCSA(x, y))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		xv := int64(rng.Intn(4096) - 2048)
		yv := int64(rng.Intn(4096) - 2048)
		got := evalCircuit(t, b.A, map[string]int64{"x": xv, "y": yv})["p"]
		if want := xv * yv; got != want {
			t.Fatalf("%d*%d = %d, want %d", xv, yv, got, want)
		}
	}
}

func TestMulConstCSD(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range []int64{0, 1, -1, 3, 5, 7, 11, 100, 723, -1024, 1023, 4096} {
		b := NewBuilder()
		x := b.Input("x", 14)
		b.Output("p", b.MulConst(x, c, 28))
		for i := 0; i < 30; i++ {
			xv := int64(rng.Intn(1<<14) - 1<<13)
			got := evalCircuit(t, b.A, map[string]int64{"x": xv})["p"]
			if want := mask(xv*c, 28); got != want {
				t.Fatalf("%d*%d = %d, want %d", xv, c, got, want)
			}
		}
	}
}

func TestComparators(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 10)
	y := b.Input("y", 10)
	b.OutputBit("eq", b.Eq(x, y))
	b.OutputBit("ltu", b.LtU(x, y))
	b.OutputBit("lts", b.LtS(x, y))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		xv := int64(rng.Intn(1024) - 512)
		yv := int64(rng.Intn(1024) - 512)
		if i == 0 {
			yv = xv
		}
		res := evalCircuit(t, b.A, map[string]int64{"x": xv, "y": yv})
		xu, yu := uint64(xv)&1023, uint64(yv)&1023
		if got, want := res["eq"] != 0, xv == yv; got != want {
			t.Fatalf("eq(%d,%d) = %v", xv, yv, got)
		}
		if got, want := res["ltu"] != 0, xu < yu; got != want {
			t.Fatalf("ltu(%d,%d) = %v", xu, yu, got)
		}
		if got, want := res["lts"] != 0, xv < yv; got != want {
			t.Fatalf("lts(%d,%d) = %v", xv, yv, got)
		}
	}
}

func TestBarrel(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 16)
	sh := b.Input("sh", 4)
	right := b.InputBit("right")
	b.Output("y", b.Barrel(x, sh, right, true))
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		xv := int64(int16(rng.Uint64()))
		s := int64(rng.Intn(16))
		r := int64(rng.Intn(2))
		got := evalCircuit(t, b.A, map[string]int64{"x": xv, "sh": s, "right": r})["y"]
		var want int64
		if r == 1 {
			want = mask(xv>>uint(s), 16) // arithmetic
		} else {
			want = mask(xv<<uint(s), 16)
		}
		if got != want {
			t.Fatalf("shift(%d, %d, right=%d) = %d, want %d", xv, s, r, got, want)
		}
	}
}

func TestSaturate(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 12)
	b.Output("y", b.Saturate(x, 8))
	cases := map[int64]int64{0: 0, 100: 100, 127: 127, 128: 127, 2000: 127, -128: -128, -129: -128, -2000: -128}
	for in, want := range cases {
		got := evalCircuit(t, b.A, map[string]int64{"x": in})["y"]
		if got != want {
			t.Fatalf("sat(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestMuxN(t *testing.T) {
	b := NewBuilder()
	s := b.Input("s", 2)
	var ch []Bus
	for i := 0; i < 4; i++ {
		ch = append(ch, b.Const(int64(10+i), 8))
	}
	b.Output("y", b.MuxN(s, ch))
	for i := int64(0); i < 4; i++ {
		got := evalCircuit(t, b.A, map[string]int64{"s": i})["y"]
		if got != 10+i {
			t.Fatalf("mux(%d) = %d", i, got)
		}
	}
}

// dctGolden computes the fixed-point golden model matching the circuit.
func dctGolden(m [8][8]int64, x [8]int64) [8]int64 {
	var y [8]int64
	for k := 0; k < 8; k++ {
		var sum int64
		for n := 0; n < 8; n++ {
			sum += x[n] * m[k][n]
		}
		v := (sum + 1<<(DCTFrac-1)) >> DCTFrac
		if v > 1<<(DCTWidth-1)-1 {
			v = 1<<(DCTWidth-1) - 1
		}
		if v < -(1 << (DCTWidth - 1)) {
			v = -(1 << (DCTWidth - 1))
		}
		y[k] = v
	}
	return y
}

func TestDCTCircuitMatchesGolden(t *testing.T) {
	a := GenDCT()
	m := DCTCoeff()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var x [8]int64
		vals := map[string]int64{}
		for i := range x {
			x[i] = int64(rng.Intn(256) - 128)
			vals[busName("x", i)] = x[i]
		}
		res := evalCircuit(t, a, vals)
		want := dctGolden(m, x)
		for k := 0; k < 8; k++ {
			if res[outName(k)] != want[k] {
				t.Fatalf("trial %d: y%d = %d, want %d", trial, k, res[outName(k)], want[k])
			}
		}
	}
}

func TestDCTIDCTRoundTrip(t *testing.T) {
	// Forward then inverse must reconstruct pixels within rounding error.
	dct := GenDCT()
	idct := GenIDCT()
	rng := rand.New(rand.NewSource(8))
	var worst float64
	for trial := 0; trial < 30; trial++ {
		var x [8]int64
		vals := map[string]int64{}
		for i := range x {
			x[i] = int64(rng.Intn(256) - 128)
			vals[busName("x", i)] = x[i]
		}
		ycirc := evalCircuit(t, dct, vals)
		zvals := map[string]int64{}
		for k := 0; k < 8; k++ {
			zvals[busName("z", k)] = ycirc[outName(k)]
		}
		back := evalCircuit(t, idct, zvals)
		for n := 0; n < 8; n++ {
			err := math.Abs(float64(back[outName(n)] - x[n]))
			if err > worst {
				worst = err
			}
		}
	}
	if worst > 2 {
		t.Errorf("DCT->IDCT reconstruction error %v LSB, want <= 2", worst)
	}
}

func TestDSPMac(t *testing.T) {
	a := GenDSP()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 60; i++ {
		av := int64(int16(rng.Uint64()))
		bv := int64(int16(rng.Uint64()))
		cv := int64(int16(rng.Uint64()))
		accv := int64(int32(rng.Uint64()))
		for op := int64(0); op < 4; op++ {
			res := evalCircuit(t, a, map[string]int64{
				"a": av, "b": bv, "c": cv, "acc": accv, "op": op,
			})["y"]
			var want int64
			switch op {
			case 0:
				want = accv + av*bv
			case 1:
				want = accv - av*bv
			case 2:
				want = accv + cv
			case 3:
				want = accv >> uint(cv&31)
			}
			want = sat32(want)
			if res != want {
				t.Fatalf("op %d: got %d, want %d", op, res, want)
			}
		}
	}
}

func sat32(v int64) int64 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	if v < math.MinInt32 {
		return math.MinInt32
	}
	return v
}

func TestFFTButterfly(t *testing.T) {
	a := GenFFT()
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 60; i++ {
		arv := int64(rng.Intn(8192) - 4096)
		aiv := int64(rng.Intn(8192) - 4096)
		brv := int64(rng.Intn(8192) - 4096)
		biv := int64(rng.Intn(8192) - 4096)
		ang := rng.Float64() * 2 * math.Pi
		wrv := int64(math.Round(4096 * math.Cos(ang)))
		wiv := int64(math.Round(4096 * math.Sin(ang)))
		res := evalCircuit(t, a, map[string]int64{
			"ar": arv, "ai": aiv, "br": brv, "bi": biv, "wr": wrv, "wi": wiv,
		})
		round := func(v int64) int64 { return sat16((v + 2048) >> 12) }
		tr := round(brv*wrv - biv*wiv)
		ti := round(brv*wiv + biv*wrv)
		checks := map[string]int64{
			"xr": sat16(arv + tr), "xi": sat16(aiv + ti),
			"yr": sat16(arv - tr), "yi": sat16(aiv - ti),
		}
		for k, want := range checks {
			if res[k] != want {
				t.Fatalf("%s = %d, want %d", k, res[k], want)
			}
		}
	}
}

func sat16(v int64) int64 {
	if v > math.MaxInt16 {
		return math.MaxInt16
	}
	if v < math.MinInt16 {
		return math.MinInt16
	}
	return v
}

func TestRISCALU(t *testing.T) {
	for _, gen := range []func() *logic.AIG{GenRISC5, GenRISC6} {
		a := gen()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 40; i++ {
			rs1 := int64(int32(rng.Uint64()))
			rs2 := int64(int32(rng.Uint64()))
			imm := int64(int16(rng.Uint64()))
			vals := map[string]int64{
				"rs1": rs1, "rs2": rs2, "imm": imm,
				"selA": 0, "selB": 0, "useImm": 0,
				"fwd0": 0, "fwd1": 0, "fwd2": 0,
			}
			for op := int64(0); op < 8; op++ {
				vals["aluOp"] = op
				res := evalCircuit(t, a, vals)
				var want int64
				switch op {
				case 0:
					want = mask(rs1+rs2, 32)
				case 1:
					want = mask(rs1-rs2, 32)
				case 2:
					want = rs1 & rs2
				case 3:
					want = rs1 | rs2
				case 4:
					want = rs1 ^ rs2
				case 5:
					if rs1 < rs2 {
						want = 1
					}
				case 6:
					want = mask(rs1<<uint(rs2&31), 32)
				case 7:
					want = mask(rs1>>uint(rs2&31), 32)
				}
				if res["result"] != want {
					t.Fatalf("op %d: result = %d, want %d", op, res["result"], want)
				}
			}
			if got, want := res32(t, a, vals, "addr"), mask(rs1+imm, 32); got != want {
				t.Fatalf("addr = %d, want %d", got, want)
			}
		}
	}
}

func res32(t *testing.T, a *logic.AIG, vals map[string]int64, key string) int64 {
	t.Helper()
	return evalCircuit(t, a, vals)[key]
}

func TestRISCForwarding(t *testing.T) {
	a := GenRISC5()
	vals := map[string]int64{
		"rs1": 111, "rs2": 222, "imm": 0, "useImm": 0, "aluOp": 0,
		"fwd0": 1000, "fwd1": 2000, "selA": 1, "selB": 2,
	}
	got := evalCircuit(t, a, vals)["result"]
	if got != 3000 {
		t.Fatalf("forwarded add = %d, want 3000", got)
	}
}

func TestVLIWCrossBypass(t *testing.T) {
	a := GenVLIW()
	vals := map[string]int64{
		"a0": 5, "b0": 7, "op0": 0,
		"a1": 100, "b1": 1, "op1": 0,
		"cross": 2, "sh": 0, // slot1 B <- slot0 A
	}
	res := evalCircuit(t, a, vals)
	if res["r0"] != 12 {
		t.Fatalf("r0 = %d, want 12", res["r0"])
	}
	if res["r1"] != 105 {
		t.Fatalf("r1 = %d, want 105 (cross bypass)", res["r1"])
	}
}

func TestBenchmarkSizes(t *testing.T) {
	for name, gen := range Benchmarks() {
		a := gen()
		ands := a.NumNodes() - 1 - a.NumInputs() // node 0 is the constant
		if ands < 500 {
			t.Errorf("%s: only %d AND nodes; too small to be a realistic benchmark", name, ands)
		}
		depth := 0
		for _, o := range a.Outputs() {
			depth = max(depth, a.Level(o.L))
		}
		if depth < 10 {
			t.Errorf("%s: depth %d too shallow", name, depth)
		}
		t.Logf("%s: %d ands, depth %d, %d in, %d out",
			name, ands, depth, a.NumInputs(), len(a.Outputs()))
	}
}
