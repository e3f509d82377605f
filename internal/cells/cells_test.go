package cells

import (
	"sort"
	"testing"
	"testing/quick"

	"ageguard/internal/device"
	"ageguard/internal/units"
)

func TestCatalogSize(t *testing.T) {
	all := All()
	if len(all) != 68 {
		t.Fatalf("catalog has %d cells, want 68 (paper's Nangate subset)", len(all))
	}
	seen := map[string]bool{}
	for _, c := range all {
		if seen[c.Name] {
			t.Errorf("duplicate cell %s", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestByName(t *testing.T) {
	c, ok := ByName("NAND2_X1")
	if !ok || c.Base != "NAND2" || c.Drive != 1 {
		t.Fatalf("ByName(NAND2_X1) = %v, %v", c, ok)
	}
	if _, ok := ByName("NAND9_X1"); ok {
		t.Error("found nonexistent cell")
	}
}

func TestVariantsSorted(t *testing.T) {
	v := Variants("INV")
	if len(v) != 4 {
		t.Fatalf("INV variants = %d, want 4 (X1,X2,X4,X8)", len(v))
	}
	for i := 1; i < len(v); i++ {
		if v[i].Drive <= v[i-1].Drive {
			t.Error("variants not sorted by drive")
		}
	}
	if len(Variants("NAND2")) != 3 {
		t.Error("NAND2 should have 3 drives")
	}
}

func TestEvalFunctions(t *testing.T) {
	cases := []struct {
		cell string
		in   uint
		want bool
	}{
		{"INV_X1", 0, true}, {"INV_X1", 1, false},
		{"BUF_X1", 0, false}, {"BUF_X1", 1, true},
		{"NAND2_X1", 3, false}, {"NAND2_X1", 2, true}, {"NAND2_X1", 0, true},
		{"NOR2_X1", 0, true}, {"NOR2_X1", 1, false}, {"NOR2_X1", 3, false},
		{"AND3_X1", 7, true}, {"AND3_X1", 5, false},
		{"OR3_X1", 0, false}, {"OR3_X1", 4, true},
		{"NAND4_X1", 15, false}, {"NAND4_X1", 7, true},
		{"NOR4_X1", 0, true}, {"NOR4_X1", 8, false},
		{"XOR2_X1", 0, false}, {"XOR2_X1", 1, true}, {"XOR2_X1", 2, true}, {"XOR2_X1", 3, false},
		{"XNOR2_X1", 0, true}, {"XNOR2_X1", 3, true}, {"XNOR2_X1", 1, false},
		// AOI21: !((A1&A2)|B); bits: A1=1, A2=2, B=4
		{"AOI21_X1", 0, true}, {"AOI21_X1", 3, false}, {"AOI21_X1", 4, false}, {"AOI21_X1", 1, true},
		// AOI22: !((A1&A2)|(B1&B2))
		{"AOI22_X1", 0, true}, {"AOI22_X1", 3, false}, {"AOI22_X1", 12, false}, {"AOI22_X1", 5, true},
		// OAI21: !((A1|A2)&B)
		{"OAI21_X1", 0, true}, {"OAI21_X1", 5, false}, {"OAI21_X1", 4, true}, {"OAI21_X1", 3, true},
		// OAI22: !((A1|A2)&(B1|B2))
		{"OAI22_X1", 0, true}, {"OAI22_X1", 5, false}, {"OAI22_X1", 3, true}, {"OAI22_X1", 12, true},
		// MUX2: S?B:A; bits: A=1, B=2, S=4
		{"MUX2_X1", 1, true}, {"MUX2_X1", 2, false}, {"MUX2_X1", 6, true}, {"MUX2_X1", 5, false},
	}
	for _, tc := range cases {
		c := MustByName(tc.cell)
		if got := c.Eval(tc.in); got != tc.want {
			t.Errorf("%s.Eval(%b) = %v, want %v", tc.cell, tc.in, got, tc.want)
		}
	}
}

func TestDriveVariantsShareFunction(t *testing.T) {
	for _, base := range Bases() {
		vars := Variants(base)
		if vars[0].Seq {
			continue
		}
		tt := vars[0].TruthTable()
		for _, v := range vars[1:] {
			if v.TruthTable() != tt {
				t.Errorf("%s truth table differs from %s", v.Name, vars[0].Name)
			}
		}
	}
}

func TestAreaModel(t *testing.T) {
	inv1 := MustByName("INV_X1")
	if inv1.AreaUm2 < 0.3 || inv1.AreaUm2 > 1.2 {
		t.Errorf("INV_X1 area = %v um^2, want ~0.5", inv1.AreaUm2)
	}
	inv4 := MustByName("INV_X4")
	if inv4.AreaUm2 <= inv1.AreaUm2 {
		t.Error("larger drive must cost area")
	}
	dff := MustByName("DFF_X1")
	if dff.AreaUm2 <= MustByName("NAND2_X1").AreaUm2 {
		t.Error("DFF must be larger than NAND2")
	}
}

func TestPinCaps(t *testing.T) {
	tech := device.Default45()
	nand := MustByName("NAND2_X1")
	c1 := nand.PinCap(tech, "A1")
	if c1 < 0.2*units.FF || c1 > 10*units.FF {
		t.Errorf("NAND2_X1 pin cap = %s implausible", units.FFString(c1))
	}
	nand4 := MustByName("NAND2_X4")
	if nand4.PinCap(tech, "A1") <= c1 {
		t.Error("X4 pin cap should exceed X1")
	}
	if MustByName("XOR2_X1").PinCap(tech, "A") <= 0 {
		t.Error("XOR2 pin A has no gate cap")
	}
}

func TestTopologyConnectivity(t *testing.T) {
	// Every cell's output must be reachable as a device drain/source and
	// every input pin must drive at least one gate.
	for _, c := range All() {
		touched := map[string]bool{}
		gates := map[string]bool{}
		for _, d := range c.Topo.Devices {
			touched[d.D] = true
			touched[d.S] = true
			gates[d.G] = true
		}
		if !touched[c.Output] {
			t.Errorf("%s: output %s not driven", c.Name, c.Output)
		}
		for _, in := range c.Inputs {
			// Inputs normally drive gates; transmission-gate inputs
			// (MUX2 A/B, DFF D) connect to channel terminals instead.
			if !gates[in] && !touched[in] {
				t.Errorf("%s: input %s unconnected", c.Name, in)
			}
		}
		if !touched[NodeVDD] || !touched[NodeGND] {
			t.Errorf("%s: rails not connected", c.Name)
		}
	}
}

func TestSequentialMetadata(t *testing.T) {
	d := MustByName("DFF_X1")
	if !d.Seq || d.Clock != "CK" || d.Data != "D" {
		t.Errorf("DFF metadata wrong: %+v", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("Eval on DFF should panic")
		}
	}()
	d.Eval(0)
}

func TestTruthTableProperty(t *testing.T) {
	// TruthTable and Eval must agree for random cells and inputs.
	all := All()
	f := func(ci, in uint) bool {
		c := all[ci%uint(len(all))]
		if c.Seq {
			return true
		}
		k := in % (1 << c.NumInputs())
		return c.Eval(k) == (c.TruthTable()>>k&1 == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodesSortedUnique(t *testing.T) {
	n := MustByName("NAND3_X1").Topo.Nodes()
	for i := 1; i < len(n); i++ {
		if n[i] <= n[i-1] {
			t.Fatalf("Nodes not sorted/unique: %v", n)
		}
	}
}

// MustByName is ByName that panics on unknown names; for internal tables.
func MustByName(name string) *Cell {
	c, ok := ByName(name)
	if !ok {
		panic("cells: unknown cell " + name)
	}
	return c
}

// Bases returns the distinct base names in the catalog, sorted.
func Bases() []string {
	catalogOnce.Do(buildCatalog)
	set := map[string]bool{}
	for _, c := range catalog {
		set[c.Base] = true
	}
	var out []string
	for b := range set {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Variants returns all drive-strength variants of the given base, sorted
// by ascending drive. Used by the gate-sizing optimization pass.
func Variants(base string) []*Cell {
	catalogOnce.Do(buildCatalog)
	var out []*Cell
	for _, c := range catalog {
		if c.Base == base {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Drive < out[j].Drive })
	return out
}

// Nodes returns the sorted set of all node names used by the topology.
func (t *Topology) Nodes() []string {
	set := map[string]bool{}
	for _, d := range t.Devices {
		set[d.D] = true
		set[d.G] = true
		set[d.S] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
