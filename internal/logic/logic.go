// Package logic implements the technology-independent logic network used
// as synthesis input: an And-Inverter Graph (AIG) with structural hashing.
// RTL generators (package rtl) build AIGs; the technology mapper (package
// synth) covers them with standard cells.
//
// Literals encode a node index and a complement bit, so inversion is free —
// matching the cost model of static CMOS where most cells are inverting.
package logic

import (
	"fmt"
	"math"
)

// Lit is a literal: a node reference with a complement bit in bit 0.
type Lit uint32

// Constant literals: node 0 is the constant-false node.
const (
	False Lit = 0
	True  Lit = 1
)

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Node returns the node index.
func (l Lit) Node() uint32 { return uint32(l) >> 1 }

// Compl reports whether the literal is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

const inputMark = math.MaxUint32

// AIG is an And-Inverter Graph. Create with New; nodes are appended
// bottom-up, so node indexes form a topological order.
type AIG struct {
	fan0, fan1 []Lit // per node; fan0 == inputMark flags an input node
	level      []int32
	strash     map[uint64]Lit

	inputs     []Lit
	inputNames []string
	outputs    []Output
}

// Output is a named primary output.
type Output struct {
	Name string
	L    Lit
}

// New returns an empty AIG containing only the constant node.
func New() *AIG {
	return &AIG{
		fan0:   []Lit{inputMark}, // node 0: constant (marked; never evaluated)
		fan1:   []Lit{0},
		level:  []int32{0},
		strash: map[uint64]Lit{},
	}
}

// NumNodes returns the node count including constants and inputs.
func (a *AIG) NumNodes() int { return len(a.fan0) }

// NumInputs returns the primary-input count.
func (a *AIG) NumInputs() int { return len(a.inputs) }

// Inputs returns the primary-input literals in creation order.
func (a *AIG) Inputs() []Lit { return a.inputs }

// InputName returns the name of the i-th input.
func (a *AIG) InputName(i int) string { return a.inputNames[i] }

// Outputs returns the primary outputs in creation order.
func (a *AIG) Outputs() []Output { return a.outputs }

// IsInput reports whether the node of l is a primary input.
func (a *AIG) IsInput(l Lit) bool {
	return l.Node() != 0 && a.fan0[l.Node()] == inputMark
}

// IsConst reports whether the node of l is the constant node.
func (a *AIG) IsConst(l Lit) bool { return l.Node() == 0 }

// Fanins returns the two fanin literals of an AND node.
func (a *AIG) Fanins(node uint32) (Lit, Lit) { return a.fan0[node], a.fan1[node] }

// Level returns the logic depth of the literal's node (inputs at 0).
func (a *AIG) Level(l Lit) int { return int(a.level[l.Node()]) }

// Input creates a named primary input and returns its literal.
func (a *AIG) Input(name string) Lit {
	n := uint32(len(a.fan0))
	a.fan0 = append(a.fan0, inputMark)
	a.fan1 = append(a.fan1, 0)
	a.level = append(a.level, 0)
	l := Lit(n << 1)
	a.inputs = append(a.inputs, l)
	a.inputNames = append(a.inputNames, name)
	return l
}

// AddOutput registers a named primary output.
func (a *AIG) AddOutput(name string, l Lit) {
	a.outputs = append(a.outputs, Output{Name: name, L: l})
}

// And returns a literal for x AND y, applying constant folding, trivial
// rules and structural hashing.
func (a *AIG) And(x, y Lit) Lit {
	// Trivial cases.
	switch {
	case x == False || y == False || x == y.Not():
		return False
	case x == True:
		return y
	case y == True:
		return x
	case x == y:
		return x
	}
	if x > y {
		x, y = y, x
	}
	key := uint64(x)<<32 | uint64(y)
	if l, ok := a.strash[key]; ok {
		return l
	}
	n := uint32(len(a.fan0))
	a.fan0 = append(a.fan0, x)
	a.fan1 = append(a.fan1, y)
	lv := a.level[x.Node()]
	if l1 := a.level[y.Node()]; l1 > lv {
		lv = l1
	}
	a.level = append(a.level, lv+1)
	l := Lit(n << 1)
	a.strash[key] = l
	return l
}

// Or returns x OR y.
func (a *AIG) Or(x, y Lit) Lit { return a.And(x.Not(), y.Not()).Not() }

// Xor returns x XOR y.
func (a *AIG) Xor(x, y Lit) Lit {
	return a.Or(a.And(x, y.Not()), a.And(x.Not(), y))
}

// Xnor returns NOT (x XOR y).
func (a *AIG) Xnor(x, y Lit) Lit { return a.Xor(x, y).Not() }

// Mux returns s ? t : f.
func (a *AIG) Mux(s, t, f Lit) Lit {
	return a.Or(a.And(s, t), a.And(s.Not(), f))
}

// Maj returns the majority of three literals (full-adder carry).
func (a *AIG) Maj(x, y, z Lit) Lit {
	return a.Or(a.And(x, y), a.Or(a.And(x, z), a.And(y, z)))
}

// Eval64 evaluates the network bit-parallel over 64 input vectors at once.
// in[i] carries 64 values of input i (creation order); the result carries
// 64 values per output. The scratch slice is reused across calls when its
// capacity allows, enabling allocation-free inner loops.
func (a *AIG) Eval64(in []uint64, scratch []uint64) (out []uint64, newScratch []uint64) {
	if len(in) != len(a.inputs) {
		panic(fmt.Sprintf("logic: Eval64 got %d input words, want %d", len(in), len(a.inputs)))
	}
	n := len(a.fan0)
	if cap(scratch) < n {
		scratch = make([]uint64, n)
	}
	v := scratch[:n]
	v[0] = 0
	for i, l := range a.inputs {
		v[l.Node()] = in[i]
	}
	litVal := func(l Lit) uint64 {
		x := v[l.Node()]
		if l.Compl() {
			return ^x
		}
		return x
	}
	for node := 1; node < n; node++ {
		if a.fan0[node] == inputMark {
			continue
		}
		v[node] = litVal(a.fan0[node]) & litVal(a.fan1[node])
	}
	out = make([]uint64, len(a.outputs))
	for i, o := range a.outputs {
		out[i] = litVal(o.L)
	}
	return out, scratch
}

// FanoutCounts returns the number of references to each node from AND
// fanins and outputs — used by the mapper's area-flow heuristic.
func (a *AIG) FanoutCounts() []int {
	cnt := make([]int, len(a.fan0))
	for node := 1; node < len(a.fan0); node++ {
		if a.fan0[node] == inputMark {
			continue
		}
		cnt[a.fan0[node].Node()]++
		cnt[a.fan1[node].Node()]++
	}
	for _, o := range a.outputs {
		cnt[o.L.Node()]++
	}
	return cnt
}
