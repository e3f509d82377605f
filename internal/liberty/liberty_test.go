package liberty

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"ageguard/internal/aging"
)

// Read parses a library previously produced by Write: it reads r to
// the end and parses the bytes with Parse. The tests read buffers and
// strings through it; production loads whole files
// (char.VerifyCacheFile).
func Read(r io.Reader) (*Library, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("liberty: %w", err)
	}
	return Parse(data)
}

func sampleTable() *Table {
	t := NewTable([]float64{1, 2, 4}, []float64{10, 20})
	t.Values = [][]float64{{1, 2}, {3, 4}, {5, 6}}
	return t
}

func TestTableAtCorners(t *testing.T) {
	tb := sampleTable()
	cases := []struct{ s, l, want float64 }{
		{1, 10, 1}, {1, 20, 2}, {4, 10, 5}, {4, 20, 6},
		{2, 10, 3}, {1, 15, 1.5}, {3, 10, 4}, {1.5, 15, 2.5},
	}
	for _, c := range cases {
		if got := tb.At(c.s, c.l); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v,%v) = %v, want %v", c.s, c.l, got, c.want)
		}
	}
}

func TestTableClamping(t *testing.T) {
	tb := sampleTable()
	if got := tb.At(0.1, 5); got != 1 {
		t.Errorf("below-range = %v, want clamp to 1", got)
	}
	if got := tb.At(100, 100); got != 6 {
		t.Errorf("above-range = %v, want clamp to 6", got)
	}
}

func TestTableAtWithinBounds(t *testing.T) {
	tb := sampleTable()
	f := func(s, l float64) bool {
		if math.IsNaN(s) || math.IsNaN(l) || math.IsInf(s, 0) || math.IsInf(l, 0) {
			return true
		}
		v := tb.At(s, l)
		return v >= 1 && v <= 6 // interpolation must stay within value range
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// tableRows keeps NewTable's rows alive in TestNewTableAllocs, so the
// allocations under test cannot be elided.
var tableRows [][]float64

// TestNewTableAllocs: NewTable allocates the row headers and one backing
// array for any axes (the Table header itself stays on the caller's stack
// here), and every row is capped at its length, so an append to one row
// copies instead of overwriting the next.
func TestNewTableAllocs(t *testing.T) {
	for _, n := range [][2]int{{1, 1}, {7, 7}, {3, 40}, {40, 3}} {
		slews, loads := make([]float64, n[0]), make([]float64, n[1])
		if got := testing.AllocsPerRun(10, func() { tableRows = NewTable(slews, loads).Values }); got != 2 {
			t.Errorf("NewTable over %d x %d axes: %v allocations, want 2", n[0], n[1], got)
		}
		tb := NewTable(slews, loads)
		for i, row := range tb.Values {
			if len(row) != n[1] || cap(row) != n[1] {
				t.Fatalf("%d x %d: row %d has len %d cap %d, want %d", n[0], n[1], i, len(row), cap(row), n[1])
			}
		}
		_ = append(tb.Values[0], 1)
		if n[0] > 1 && tb.Values[1][0] != 0 {
			t.Errorf("%d x %d: an append to row 0 wrote row 1", n[0], n[1])
		}
	}
}

func TestTableMaxScale(t *testing.T) {
	tb := sampleTable()
	if tb.Max() != 6 {
		t.Errorf("Max = %v", tb.Max())
	}
	s := tb.Scale(2)
	if s.Max() != 12 || tb.Max() != 6 {
		t.Error("Scale must not mutate the receiver")
	}
}

func TestSenseInputEdge(t *testing.T) {
	if PositiveUnate.InputEdge(Rise) != Rise || PositiveUnate.InputEdge(Fall) != Fall {
		t.Error("positive unate edges wrong")
	}
	if NegativeUnate.InputEdge(Rise) != Fall || NegativeUnate.InputEdge(Fall) != Rise {
		t.Error("negative unate edges wrong")
	}
	if Rise.Opposite() != Fall || Fall.Opposite() != Rise {
		t.Error("Opposite wrong")
	}
}

func testLibrary() *Library {
	slews := []float64{5e-12, 5e-11}
	loads := []float64{5e-16, 2e-15}
	mk := func(base float64) *Table {
		t := NewTable(slews, loads)
		for i := range slews {
			for j := range loads {
				t.Values[i][j] = base + float64(i)*1e-12 + float64(j)*2e-12
			}
		}
		return t
	}
	nand := &CellTiming{
		Name: "NAND2_X1", Base: "NAND2", Drive: 1, AreaUm2: 0.8,
		Inputs: []string{"A1", "A2"}, Output: "ZN",
		PinCap: map[string]float64{"A1": 1e-15, "A2": 1.1e-15},
		Arcs: []Arc{
			{Pin: "A1", Sense: NegativeUnate, When: 2,
				Delay:   [2]*Table{mk(10e-12), mk(12e-12)},
				OutSlew: [2]*Table{mk(8e-12), mk(9e-12)}},
			{Pin: "A2", Sense: NegativeUnate, When: 1,
				Delay:   [2]*Table{mk(11e-12), mk(13e-12)},
				OutSlew: [2]*Table{mk(8e-12), mk(9e-12)}},
		},
	}
	dff := &CellTiming{
		Name: "DFF_X1", Base: "DFF", Drive: 1, AreaUm2: 4.5,
		Inputs: []string{"D", "CK"}, Output: "Q",
		PinCap: map[string]float64{"D": 0.8e-15, "CK": 0.9e-15},
		Seq:    true, Clock: "CK", Data: "D", SetupPS: 30e-12, HoldPS: 5e-12,
		Arcs: []Arc{
			{Pin: "CK", Sense: PositiveUnate,
				Delay:   [2]*Table{mk(40e-12), mk(42e-12)},
				OutSlew: [2]*Table{mk(10e-12), mk(11e-12)}},
		},
	}
	return &Library{
		Name:     "test",
		Scenario: aging.WorstCase(10),
		Vdd:      1.1,
		Slews:    slews,
		Loads:    loads,
		Cells:    map[string]*CellTiming{"NAND2_X1": nand, "DFF_X1": dff},
	}
}

func TestRoundTrip(t *testing.T) {
	l := testLibrary()
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != l.Name || got.Vdd != l.Vdd {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.Scenario != l.Scenario {
		t.Errorf("scenario mismatch: %+v vs %+v", got.Scenario, l.Scenario)
	}
	if !reflect.DeepEqual(got.Slews, l.Slews) || !reflect.DeepEqual(got.Loads, l.Loads) {
		t.Error("axes mismatch")
	}
	if len(got.Cells) != len(l.Cells) {
		t.Fatalf("cell count %d, want %d", len(got.Cells), len(l.Cells))
	}
	gn := got.MustCell("NAND2_X1")
	ln := l.MustCell("NAND2_X1")
	if !reflect.DeepEqual(gn.Arcs[0].Delay[Rise].Values, ln.Arcs[0].Delay[Rise].Values) {
		t.Error("table values mismatch after round trip")
	}
	if gn.Arcs[1].When != 1 || gn.Arcs[0].Sense != NegativeUnate {
		t.Error("arc metadata mismatch")
	}
	gd := got.MustCell("DFF_X1")
	if !gd.Seq || gd.Clock != "CK" || gd.SetupPS != 30e-12 {
		t.Errorf("sequential metadata mismatch: %+v", gd)
	}
	if !reflect.DeepEqual(gn.PinCap, ln.PinCap) {
		t.Error("pin caps mismatch")
	}
}

func TestMergeLibraries(t *testing.T) {
	a := testLibrary()
	a.Scenario = aging.WorstCase(10).WithLambda(0.4, 0.6)
	b := testLibrary()
	b.Scenario = aging.WorstCase(10).WithLambda(1.0, 1.0)
	m := MergeLibraries("complete", []*Library{a, b})
	if len(m.Cells) != 4 {
		t.Fatalf("merged cells = %d, want 4", len(m.Cells))
	}
	if _, ok := m.Cell("NAND2_X1_0.4_0.6"); !ok {
		t.Error("missing indexed cell NAND2_X1_0.4_0.6 (paper naming)")
	}
	if _, ok := m.Cell("DFF_X1_1.0_1.0"); !ok {
		t.Error("missing indexed DFF")
	}
	if len(m.Keys) != 2 {
		t.Errorf("keys = %v", m.Keys)
	}
}

func TestIndexedName(t *testing.T) {
	if got := IndexedName("AND2_X1", 0.4, 0.6); got != "AND2_X1_0.4_0.6" {
		t.Errorf("IndexedName = %q", got)
	}
	if got := IndexedName("NAND2_X2", 0.9, 0.5); got != "NAND2_X2_0.9_0.5" {
		t.Errorf("IndexedName = %q", got)
	}
}

func TestCellNamesSorted(t *testing.T) {
	l := testLibrary()
	names := l.CellNames()
	if !reflect.DeepEqual(names, []string{"DFF_X1", "NAND2_X1"}) {
		t.Errorf("CellNames = %v", names)
	}
}

func TestWorstDelay(t *testing.T) {
	l := testLibrary()
	ct := l.MustCell("NAND2_X1")
	w := ct.WorstDelay(5e-12, 5e-16)
	if w != 13e-12 {
		t.Errorf("WorstDelay = %v, want 13ps (A2 fall table)", w)
	}
}

func TestArcsFor(t *testing.T) {
	l := testLibrary()
	ct := l.MustCell("NAND2_X1")
	if n := len(ct.ArcsFor("A1")); n != 1 {
		t.Errorf("ArcsFor(A1) = %d arcs", n)
	}
	if n := len(ct.ArcsFor("ZZ")); n != 0 {
		t.Errorf("ArcsFor(ZZ) = %d arcs", n)
	}
}

func TestMustCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCell should panic on unknown cell")
		}
	}()
	testLibrary().MustCell("NOPE")
}

// WorstDelay returns the largest delay of any arc/edge at (slew, load),
// a convenient pessimistic summary used by the mapper's quick estimates.
func (ct *CellTiming) WorstDelay(slew, load float64) float64 {
	var w float64
	for _, a := range ct.Arcs {
		for e := 0; e < 2; e++ {
			if a.Delay[e] == nil {
				continue
			}
			if d := a.Delay[e].At(slew, load); d > w {
				w = d
			}
		}
	}
	return w
}
