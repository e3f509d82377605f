package netlist

import (
	"fmt"
	"math/rand"
	"testing"
)

// levelizeReference is the map-based levelization LevelOrder replaced,
// kept as the specification of its order and its errors: drivers by net
// name, DFS state by instance pointer, and two cell lookups per fan-in
// edge.
func levelizeReference(n *Netlist, look Lookup) ([]*Inst, error) {
	drivers := map[string]*Inst{}
	for _, in := range n.Insts {
		ci, ok := look(in.Cell)
		if !ok {
			return nil, fmt.Errorf("netlist: unknown cell %q (inst %s)", in.Cell, in.Name)
		}
		out := in.Pins[ci.Output]
		if out == "" {
			return nil, fmt.Errorf("netlist: inst %s output unconnected", in.Name)
		}
		if prev, dup := drivers[out]; dup {
			return nil, fmt.Errorf("netlist: net %q driven by %s and %s", out, prev.Name, in.Name)
		}
		drivers[out] = in
	}
	type state byte
	const (
		white, grey, black state = 0, 1, 2
	)
	st := make(map[*Inst]state, len(n.Insts))
	order := make([]*Inst, 0, len(n.Insts))

	var visit func(in *Inst) error
	visit = func(in *Inst) error {
		switch st[in] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("netlist: combinational cycle through %s", in.Name)
		}
		st[in] = grey
		ci, _ := look(in.Cell)
		if !ci.Seq {
			for _, p := range ci.Inputs {
				if drv := drivers[in.Pins[p]]; drv != nil {
					dci, _ := look(drv.Cell)
					if !dci.Seq {
						if err := visit(drv); err != nil {
							return err
						}
					}
				}
			}
		}
		st[in] = black
		order = append(order, in)
		return nil
	}
	for _, in := range n.Insts {
		if ci, ok := look(in.Cell); ok && ci.Seq {
			st[in] = black
			order = append(order, in)
		}
	}
	for _, in := range n.Insts {
		if err := visit(in); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// randLevelNetlist builds a random registered netlist over the test
// catalog: gates read primary inputs, register outputs and earlier gate
// outputs (so nets fan out), registers sample late nets (so sequential
// loops exist), and n.Insts is shuffled so construction order says
// nothing about topological order.
func randLevelNetlist(rng *rand.Rand, gates int) *Netlist {
	n := New(fmt.Sprintf("lev%d", gates))
	pool := []string{"a", "b", ClockNet}
	n.Inputs = []string{"a", "b"}
	regs := 1 + gates/8
	for r := 0; r < regs; r++ {
		pool = append(pool, fmt.Sprintf("q%d", r))
	}
	for g := 0; g < gates; g++ {
		out := fmt.Sprintf("n%d", g)
		pick := func() string { return pool[rng.Intn(len(pool))] }
		if rng.Intn(3) == 0 {
			n.AddInst(fmt.Sprintf("g%d", g), "INV_X1", map[string]string{"A": pick(), "ZN": out})
		} else {
			n.AddInst(fmt.Sprintf("g%d", g), "NAND2_X2", map[string]string{"A1": pick(), "A2": pick(), "ZN": out})
		}
		pool = append(pool, out)
	}
	for r := 0; r < regs; r++ {
		n.AddInst(fmt.Sprintf("r%d", r), "DFF_X1", map[string]string{
			"D": pool[len(pool)-1-rng.Intn(gates)], "CK": ClockNet, "Q": fmt.Sprintf("q%d", r)})
	}
	n.Outputs = []string{pool[len(pool)-1]}
	rng.Shuffle(len(n.Insts), func(i, j int) { n.Insts[i], n.Insts[j] = n.Insts[j], n.Insts[i] })
	return n
}

// TestLevelizeMatchesReference: on random netlists the index-based
// levelization yields exactly the reference order, and LevelOrder's
// indices name the same instances.
func TestLevelizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := randLevelNetlist(rng, 1+rng.Intn(200))
		want, err := levelizeReference(n, look)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.Levelize(look)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := n.LevelOrder(look)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(idx) != len(want) {
			t.Fatalf("%s: %d and %d instances ordered, reference %d", n.Name, len(got), len(idx), len(want))
		}
		for i := range want {
			if got[i] != want[i] || n.Insts[idx[i]] != want[i] {
				t.Fatalf("%s: position %d is %s (index %d), reference %s",
					n.Name, i, got[i].Name, idx[i], want[i].Name)
			}
		}
	}
}

// TestLevelizeErrorsMatchReference: every malformed netlist fails with
// the reference's error text.
func TestLevelizeErrorsMatchReference(t *testing.T) {
	cycle := New("cycle")
	cycle.Inputs = []string{"a"}
	cycle.AddInst("g0", "NAND2_X1", map[string]string{"A1": "a", "A2": "z", "ZN": "x"})
	cycle.AddInst("g1", "INV_X1", map[string]string{"A": "x", "ZN": "y"})
	cycle.AddInst("g2", "INV_X1", map[string]string{"A": "y", "ZN": "z"})
	cases := map[string]*Netlist{"combinational cycle": cycle}

	unknown := sample()
	unknown.AddInst("g3", "XOR9_X1", map[string]string{"A": "a", "ZN": "w"})
	cases["unknown cell"] = unknown

	open := sample()
	open.AddInst("g3", "INV_X1", map[string]string{"A": "a"})
	cases["unconnected output"] = open

	double := sample()
	double.AddInst("g3", "INV_X1", map[string]string{"A": "a", "ZN": "n1"})
	cases["doubly driven net"] = double

	for name, n := range cases {
		_, want := levelizeReference(n, look)
		if want == nil {
			t.Fatalf("%s: the reference accepted it", name)
		}
		_, got := n.Levelize(look)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("%s: error %v, reference %v", name, got, want)
		}
		if _, got := n.LevelOrder(look); got == nil || got.Error() != want.Error() {
			t.Errorf("%s: LevelOrder error %v, reference %v", name, got, want)
		}
	}
}
