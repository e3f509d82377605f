package netlist

import (
	"bytes"
	"strings"
	"testing"

	"ageguard/internal/aging"
)

// tiny catalog for structural tests.
func look(cell string) (CellInfo, bool) {
	switch {
	case strings.HasPrefix(cell, "INV"):
		return CellInfo{Inputs: []string{"A"}, Output: "ZN", AreaUm2: 0.5}, true
	case strings.HasPrefix(cell, "NAND2"):
		return CellInfo{Inputs: []string{"A1", "A2"}, Output: "ZN", AreaUm2: 0.8}, true
	case strings.HasPrefix(cell, "DFF"):
		return CellInfo{Inputs: []string{"D", "CK"}, Output: "Q", Seq: true, Clock: "CK", Data: "D", AreaUm2: 4.0}, true
	}
	return CellInfo{}, false
}

func sample() *Netlist {
	n := New("t")
	n.Inputs = []string{"a", "b"}
	n.Outputs = []string{"y"}
	n.AddInst("g1", "NAND2_X1", map[string]string{"A1": "a", "A2": "b", "ZN": "n1"})
	n.AddInst("g2", "INV_X1", map[string]string{"A": "n1", "ZN": "y"})
	return n
}

func TestCheckOK(t *testing.T) {
	if err := sample().Check(look); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCatchesDoubleDriver(t *testing.T) {
	n := sample()
	n.AddInst("g3", "INV_X1", map[string]string{"A": "a", "ZN": "y"})
	if err := n.Check(look); err == nil {
		t.Error("double driver not caught")
	}
}

func TestCheckCatchesUndriven(t *testing.T) {
	n := sample()
	n.AddInst("g3", "INV_X1", map[string]string{"A": "ghost", "ZN": "z"})
	if err := n.Check(look); err == nil {
		t.Error("undriven net not caught")
	}
}

func TestCheckCatchesCycle(t *testing.T) {
	n := New("loop")
	n.Outputs = []string{"y"}
	n.AddInst("g1", "INV_X1", map[string]string{"A": "y", "ZN": "x"})
	n.AddInst("g2", "INV_X1", map[string]string{"A": "x", "ZN": "y"})
	if err := n.Check(look); err == nil {
		t.Error("combinational cycle not caught")
	}
}

func TestSequentialBreaksCycle(t *testing.T) {
	n := New("seqloop")
	n.Outputs = []string{"q"}
	n.AddInst("g1", "INV_X1", map[string]string{"A": "q", "ZN": "d"})
	n.AddInst("r1", "DFF_X1", map[string]string{"D": "d", "CK": ClockNet, "Q": "q"})
	if err := n.Check(look); err != nil {
		t.Fatalf("sequential loop should be legal: %v", err)
	}
}

func TestLevelizeOrder(t *testing.T) {
	n := sample()
	order, err := n.Levelize(look)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, in := range order {
		pos[in.Name] = i
	}
	if pos["g1"] > pos["g2"] {
		t.Error("g1 must precede g2")
	}
}

func TestStats(t *testing.T) {
	st, err := sample().ComputeStats(look)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 2 || st.Seq != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.AreaUm2 != 1.3 {
		t.Errorf("area = %v", st.AreaUm2)
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := sample()
	c := n.Clone()
	c.Insts[0].Pins["A1"] = "zzz"
	c.Insts[1].Cell = "INV_X4"
	if n.Insts[0].Pins["A1"] != "a" || n.Insts[1].Cell != "INV_X1" {
		t.Error("Clone shares state with original")
	}
}

func TestIORoundTrip(t *testing.T) {
	n := sample()
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "t" || len(got.Insts) != 2 || len(got.Inputs) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Insts[0].Pins["A1"] != "a" {
		t.Error("pins lost")
	}
	if err := got.Check(look); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("design x\nbogus line\nend\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(strings.NewReader("design x\n")); err == nil {
		t.Error("missing end accepted")
	}
	// A design line without a name is a short line like any other: an
	// error naming the line, not an index-out-of-range panic.
	if _, err := Read(strings.NewReader("design\nend\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("nameless design line: err = %v, want a line-1 error", err)
	}
}

func TestAnnotate(t *testing.T) {
	n := sample()
	ann := n.Annotate(map[string]Lambdas{
		"g1": {P: 0.42, N: 0.58},
		// g2 missing -> worst case
	})
	if ann.Insts[0].Cell != "NAND2_X1_0.4_0.6" {
		t.Errorf("annotated = %s", ann.Insts[0].Cell)
	}
	if ann.Insts[1].Cell != "INV_X1_1.0_1.0" {
		t.Errorf("default annotation = %s", ann.Insts[1].Cell)
	}
	// Original untouched.
	if n.Insts[0].Cell != "NAND2_X1" {
		t.Error("Annotate mutated the input")
	}
}

func TestSplitAnnotated(t *testing.T) {
	lp, ln, plain, err := SplitAnnotated("NAND2_X1_0.4_0.6")
	if err != nil || lp != 0.4 || ln != 0.6 || plain != "NAND2_X1" {
		t.Errorf("split = %v %v %q %v", lp, ln, plain, err)
	}
	if _, _, _, err := SplitAnnotated("INV"); err == nil {
		t.Error("non-annotated name accepted")
	}
}

func TestAnnotatedScenarios(t *testing.T) {
	n := sample()
	ann := n.Annotate(map[string]Lambdas{
		"g1": {P: 0.4, N: 0.6},
		"g2": {P: 0.4, N: 0.6},
	})
	scen, err := AnnotatedScenarios(ann, aging.WorstCase(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(scen) != 1 {
		t.Fatalf("scenarios = %d, want 1 (deduplicated)", len(scen))
	}
	if scen[0].Key() != "0.4_0.6" {
		t.Errorf("key = %s", scen[0].Key())
	}
}

func TestNets(t *testing.T) {
	nets := sample().Nets()
	want := []string{"a", "b", "n1", "y"}
	if len(nets) != len(want) {
		t.Fatalf("nets = %v", nets)
	}
	for i := range want {
		if nets[i] != want[i] {
			t.Fatalf("nets = %v", nets)
		}
	}
}
