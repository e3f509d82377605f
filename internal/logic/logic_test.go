package logic

import (
	"testing"
	"testing/quick"
)

func TestLitOps(t *testing.T) {
	a := New()
	x := a.Input("x")
	if x.Not().Not() != x {
		t.Error("double complement")
	}
	if !x.Not().Compl() || x.Compl() {
		t.Error("Compl wrong")
	}
	if x.NotIf(true) != x.Not() || x.NotIf(false) != x {
		t.Error("NotIf wrong")
	}
	if x.Node() != x.Not().Node() {
		t.Error("Node must ignore complement")
	}
}

func TestConstantFolding(t *testing.T) {
	a := New()
	x := a.Input("x")
	if a.And(x, False) != False {
		t.Error("x&0 != 0")
	}
	if a.And(x, True) != x {
		t.Error("x&1 != x")
	}
	if a.And(x, x) != x {
		t.Error("x&x != x")
	}
	if a.And(x, x.Not()) != False {
		t.Error("x&!x != 0")
	}
	if a.NumAnds() != 0 {
		t.Errorf("folding created %d nodes", a.NumAnds())
	}
}

func TestStructuralHashing(t *testing.T) {
	a := New()
	x := a.Input("x")
	y := a.Input("y")
	n1 := a.And(x, y)
	n2 := a.And(y, x)
	if n1 != n2 {
		t.Error("commuted AND not hashed")
	}
	if a.NumAnds() != 1 {
		t.Errorf("NumAnds = %d", a.NumAnds())
	}
}

func TestEval64TruthTables(t *testing.T) {
	a := New()
	x := a.Input("x")
	y := a.Input("y")
	z := a.Input("z")
	a.AddOutput("and", a.And(x, y))
	a.AddOutput("or", a.Or(x, y))
	a.AddOutput("xor", a.Xor(x, y))
	a.AddOutput("xnor", a.Xnor(x, y))
	a.AddOutput("mux", a.Mux(z, x, y))
	a.AddOutput("maj", a.Maj(x, y, z))
	a.AddOutput("nand", a.Nand(x, y))
	a.AddOutput("nor", a.Nor(x, y))

	// Exhaustive over the 8 input combinations, bit-parallel.
	var xv, yv, zv uint64
	for k := uint(0); k < 8; k++ {
		xv |= uint64(k&1) << k
		yv |= uint64(k>>1&1) << k
		zv |= uint64(k>>2&1) << k
	}
	out, _ := a.Eval64([]uint64{xv, yv, zv}, nil)
	const m = 0xff
	checks := []struct {
		name string
		want uint64
	}{
		{"and", xv & yv & m},
		{"or", (xv | yv) & m},
		{"xor", (xv ^ yv) & m},
		{"xnor", ^(xv ^ yv) & m},
		{"mux", (zv&xv | ^zv&yv) & m},
		{"maj", (xv&yv | xv&zv | yv&zv) & m},
		{"nand", ^(xv & yv) & m},
		{"nor", ^(xv | yv) & m},
	}
	for i, c := range checks {
		if out[i]&m != c.want {
			t.Errorf("%s = %08b, want %08b", c.name, out[i]&m, c.want)
		}
	}
}

func TestLevels(t *testing.T) {
	a := New()
	x := a.Input("x")
	y := a.Input("y")
	n1 := a.And(x, y)
	n2 := a.And(n1, x.Not())
	if a.Level(x) != 0 || a.Level(n1) != 1 || a.Level(n2) != 2 {
		t.Errorf("levels: %d %d %d", a.Level(x), a.Level(n1), a.Level(n2))
	}
	a.AddOutput("o", n2)
	if a.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d", a.MaxLevel())
	}
}

func TestFanoutCounts(t *testing.T) {
	a := New()
	x := a.Input("x")
	y := a.Input("y")
	n1 := a.And(x, y)
	n2 := a.And(n1, y.Not())
	a.AddOutput("o1", n1)
	a.AddOutput("o2", n2)
	cnt := a.FanoutCounts()
	if cnt[x.Node()] != 1 {
		t.Errorf("fanout(x) = %d", cnt[x.Node()])
	}
	if cnt[y.Node()] != 2 {
		t.Errorf("fanout(y) = %d", cnt[y.Node()])
	}
	if cnt[n1.Node()] != 2 { // used by n2 and output o1
		t.Errorf("fanout(n1) = %d", cnt[n1.Node()])
	}
}

func TestIsInputIsConst(t *testing.T) {
	a := New()
	x := a.Input("x")
	n := a.And(x, a.Input("y"))
	if !a.IsInput(x) || a.IsInput(n) || a.IsInput(False) {
		t.Error("IsInput wrong")
	}
	if !a.IsConst(False) || !a.IsConst(True) || a.IsConst(x) {
		t.Error("IsConst wrong")
	}
}

func TestXorProperty(t *testing.T) {
	// Xor built from ANDs must satisfy the truth table for random vectors.
	a := New()
	x := a.Input("x")
	y := a.Input("y")
	a.AddOutput("xor", a.Xor(x, y))
	f := func(xv, yv uint64) bool {
		out, _ := a.Eval64([]uint64{xv, yv}, nil)
		return out[0] == xv^yv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEval64PanicsOnBadWidth(t *testing.T) {
	a := New()
	a.Input("x")
	defer func() {
		if recover() == nil {
			t.Error("want panic on wrong input count")
		}
	}()
	a.Eval64(nil, nil)
}

func TestInputNames(t *testing.T) {
	a := New()
	a.Input("alpha")
	a.Input("beta")
	if a.InputName(0) != "alpha" || a.InputName(1) != "beta" {
		t.Error("input names wrong")
	}
	if a.NumInputs() != 2 {
		t.Error("NumInputs wrong")
	}
}

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// NumAnds returns the number of AND nodes.
func (a *AIG) NumAnds() int { return len(a.fan0) - 1 - len(a.inputs) }

// Nand returns NOT (x AND y).
func (a *AIG) Nand(x, y Lit) Lit { return a.And(x, y).Not() }

// Nor returns NOT (x OR y).
func (a *AIG) Nor(x, y Lit) Lit { return a.Or(x, y).Not() }

// MaxLevel returns the largest output logic depth.
func (a *AIG) MaxLevel() int {
	m := 0
	for _, o := range a.outputs {
		if l := a.Level(o.L); l > m {
			m = l
		}
	}
	return m
}
