package cells

import (
	"fmt"
	"sort"
	"sync"
)

// drives lists the drive strengths present for every base; INV and BUF
// additionally exist at X8, bringing the set to exactly 68 cells.
var drives = []int{1, 2, 4}

// All returns the complete cell set (68 cells), sorted by name.
// The returned cells are shared singletons; do not mutate them.
func All() []*Cell {
	catalogOnce.Do(buildCatalog)
	out := make([]*Cell, len(catalog))
	copy(out, catalog)
	return out
}

// ByName looks a cell up by its full name (e.g. "NAND2_X2").
func ByName(name string) (*Cell, bool) {
	catalogOnce.Do(buildCatalog)
	c, ok := catalogByName[name]
	return c, ok
}

var (
	catalogOnce   sync.Once
	catalog       []*Cell
	catalogByName map[string]*Cell
)

func buildCatalog() {
	type def struct {
		base   string
		build  func() *Cell
		extraX bool // also produce X8
	}
	defs := []def{
		{"INV", invCell, true},
		{"BUF", bufCell, true},
		{"NAND2", func() *Cell { return nandCell(2) }, false},
		{"NAND3", func() *Cell { return nandCell(3) }, false},
		{"NAND4", func() *Cell { return nandCell(4) }, false},
		{"NOR2", func() *Cell { return norCell(2) }, false},
		{"NOR3", func() *Cell { return norCell(3) }, false},
		{"NOR4", func() *Cell { return norCell(4) }, false},
		{"AND2", func() *Cell { return andCell(2) }, false},
		{"AND3", func() *Cell { return andCell(3) }, false},
		{"AND4", func() *Cell { return andCell(4) }, false},
		{"OR2", func() *Cell { return orCell(2) }, false},
		{"OR3", func() *Cell { return orCell(3) }, false},
		{"OR4", func() *Cell { return orCell(4) }, false},
		{"AOI21", aoi21Cell, false},
		{"AOI22", aoi22Cell, false},
		{"OAI21", oai21Cell, false},
		{"OAI22", oai22Cell, false},
		{"XOR2", xorCell, false},
		{"XNOR2", xnorCell, false},
		{"MUX2", muxCell, false},
		{"DFF", dffCell, false},
	}
	catalogByName = map[string]*Cell{}
	for _, d := range defs {
		ds := drives
		if d.extraX {
			ds = []int{1, 2, 4, 8}
		}
		for _, drive := range ds {
			c := d.build()
			c.Base = d.base
			c.Drive = drive
			c.Name = fmt.Sprintf("%s_X%d", d.base, drive)
			c.AreaUm2 = area(c)
			catalog = append(catalog, c)
			catalogByName[c.Name] = c
		}
	}
	sort.Slice(catalog, func(i, j int) bool { return catalog[i].Name < catalog[j].Name })
}

func pins(n int) []string {
	p := make([]string, n)
	for i := range p {
		p[i] = fmt.Sprintf("A%d", i+1)
	}
	return p
}

func bit(bits uint, i int) bool { return bits>>i&1 == 1 }

func invCell() *Cell {
	c := &Cell{Inputs: []string{"A"}, Output: "ZN"}
	c.Topo.inv("A", "ZN", 1)
	c.eval = func(b uint) bool { return !bit(b, 0) }
	return c
}

func bufCell() *Cell {
	c := &Cell{Inputs: []string{"A"}, Output: "Z"}
	c.Topo.inv("A", "x1", 0.5)
	c.Topo.inv("x1", "Z", 1)
	c.eval = func(b uint) bool { return bit(b, 0) }
	return c
}

func nandCell(n int) *Cell {
	in := pins(n)
	c := &Cell{Inputs: in, Output: "ZN"}
	c.Topo.nSeries("ZN", NodeGND, 1, in...)
	c.Topo.pParallel("ZN", NodeVDD, 1, in...)
	c.eval = func(b uint) bool { return b != (1<<n)-1 }
	return c
}

func norCell(n int) *Cell {
	in := pins(n)
	c := &Cell{Inputs: in, Output: "ZN"}
	c.Topo.nParallel("ZN", NodeGND, 1, in...)
	c.Topo.pSeries("ZN", NodeVDD, 1, in...)
	c.eval = func(b uint) bool { return b == 0 }
	return c
}

func andCell(n int) *Cell {
	in := pins(n)
	c := &Cell{Inputs: in, Output: "Z"}
	c.Topo.nSeries("x0", NodeGND, 0.7, in...)
	c.Topo.pParallel("x0", NodeVDD, 0.7, in...)
	c.Topo.inv("x0", "Z", 1)
	c.eval = func(b uint) bool { return b == (1<<n)-1 }
	return c
}

func orCell(n int) *Cell {
	in := pins(n)
	c := &Cell{Inputs: in, Output: "Z"}
	c.Topo.nParallel("x0", NodeGND, 0.7, in...)
	c.Topo.pSeries("x0", NodeVDD, 0.7, in...)
	c.Topo.inv("x0", "Z", 1)
	c.eval = func(b uint) bool { return b != 0 }
	return c
}

// AOI21: ZN = !((A1 & A2) | B)
func aoi21Cell() *Cell {
	c := &Cell{Inputs: []string{"A1", "A2", "B"}, Output: "ZN"}
	c.Topo.nSeries("ZN", NodeGND, 1, "A1", "A2")
	c.Topo.nmos("ZN", "B", NodeGND, 1)
	c.Topo.pmos("pm", "B", NodeVDD, 1.5)
	c.Topo.pParallel("ZN", "pm", 1.5, "A1", "A2")
	c.eval = func(b uint) bool { return !(bit(b, 0) && bit(b, 1) || bit(b, 2)) }
	return c
}

// AOI22: ZN = !((A1 & A2) | (B1 & B2))
func aoi22Cell() *Cell {
	c := &Cell{Inputs: []string{"A1", "A2", "B1", "B2"}, Output: "ZN"}
	c.Topo.nSeries("ZN", NodeGND, 1, "A1", "A2")
	c.Topo.nSeries("ZN", NodeGND, 1, "B1", "B2")
	c.Topo.pParallel("pm", NodeVDD, 1.5, "A1", "A2")
	c.Topo.pParallel("ZN", "pm", 1.5, "B1", "B2")
	c.eval = func(b uint) bool { return !(bit(b, 0) && bit(b, 1) || bit(b, 2) && bit(b, 3)) }
	return c
}

// OAI21: ZN = !((A1 | A2) & B)
func oai21Cell() *Cell {
	c := &Cell{Inputs: []string{"A1", "A2", "B"}, Output: "ZN"}
	c.Topo.nParallel("nm", "ZN", 1.5, "A1", "A2") // note: drain/source chain below
	c.Topo.nmos("nm", "B", NodeGND, 1.5)
	c.Topo.pSeries("ZN", NodeVDD, 1, "A1", "A2")
	c.Topo.pmos("ZN", "B", NodeVDD, 1)
	c.eval = func(b uint) bool { return !((bit(b, 0) || bit(b, 1)) && bit(b, 2)) }
	return c
}

// OAI22: ZN = !((A1 | A2) & (B1 | B2))
func oai22Cell() *Cell {
	c := &Cell{Inputs: []string{"A1", "A2", "B1", "B2"}, Output: "ZN"}
	c.Topo.nParallel("nm", "ZN", 1.5, "A1", "A2")
	c.Topo.nParallel(NodeGND, "nm", 1.5, "B1", "B2")
	c.Topo.pSeries("ZN", NodeVDD, 1, "A1", "A2")
	c.Topo.pSeries("ZN", NodeVDD, 1, "B1", "B2")
	c.eval = func(b uint) bool { return !((bit(b, 0) || bit(b, 1)) && (bit(b, 2) || bit(b, 3))) }
	return c
}

// XOR2: Z = A ^ B. Static CMOS with internal input inverters (multi-stage:
// the internal slopes of an/bn shape the aging response, the case the
// paper's Fig. 2 libraries must capture).
func xorCell() *Cell {
	c := &Cell{Inputs: []string{"A", "B"}, Output: "Z"}
	t := &c.Topo
	t.inv("A", "an", 0.5)
	t.inv("B", "bn", 0.5)
	// Pull-up: (gate an, gate B) and (gate A, gate bn) branches.
	t.pSeries("Z", NodeVDD, 1, "an", "B")
	t.pSeries("Z", NodeVDD, 1, "A", "bn")
	// Pull-down: (A,B) and (an,bn) branches.
	t.nSeries("Z", NodeGND, 1, "A", "B")
	t.nSeries("Z", NodeGND, 1, "an", "bn")
	c.eval = func(b uint) bool { return bit(b, 0) != bit(b, 1) }
	return c
}

// XNOR2: ZN = !(A ^ B).
func xnorCell() *Cell {
	c := &Cell{Inputs: []string{"A", "B"}, Output: "ZN"}
	t := &c.Topo
	t.inv("A", "an", 0.5)
	t.inv("B", "bn", 0.5)
	t.pSeries("ZN", NodeVDD, 1, "A", "B")
	t.pSeries("ZN", NodeVDD, 1, "an", "bn")
	t.nSeries("ZN", NodeGND, 1, "A", "bn")
	t.nSeries("ZN", NodeGND, 1, "an", "B")
	c.eval = func(b uint) bool { return bit(b, 0) == bit(b, 1) }
	return c
}

// MUX2: Z = S ? B : A. Transmission-gate multiplexer with a restoring
// output buffer (multi-stage).
func muxCell() *Cell {
	c := &Cell{Inputs: []string{"A", "B", "S"}, Output: "Z"}
	t := &c.Topo
	t.inv("S", "sn", 0.5)
	t.tg("A", "m", "sn", "S", 0.7) // passes A when S=0
	t.tg("B", "m", "S", "sn", 0.7) // passes B when S=1
	t.inv("m", "mb", 0.7)
	t.inv("mb", "Z", 1)
	c.eval = func(b uint) bool {
		if bit(b, 2) {
			return bit(b, 1)
		}
		return bit(b, 0)
	}
	return c
}

// DFF: positive-edge-triggered master-slave transmission-gate flip-flop
// with local clock buffering — 22 transistors, the most deeply multi-stage
// cell in the set.
func dffCell() *Cell {
	c := &Cell{
		Inputs: []string{"D", "CK"},
		Output: "Q",
		Seq:    true,
		Clock:  "CK",
		Data:   "D",
	}
	t := &c.Topo
	t.inv("CK", "cki", 0.7)
	t.inv("cki", "ckb", 0.7)
	// Master latch: transparent while CK low.
	t.tg("D", "n1", "cki", "ckb", 0.7)
	t.inv("n1", "n2", 1)
	t.inv("n2", "n3", 0.5)
	t.tg("n3", "n1", "ckb", "cki", 0.5)
	// Slave latch: transparent while CK high.
	t.tg("n2", "n4", "ckb", "cki", 0.7)
	t.inv("n4", "n5", 1)
	t.inv("n5", "n6", 0.5)
	t.tg("n6", "n4", "cki", "ckb", 0.5)
	// Output driver: Q = !n4 = D (captured).
	t.inv("n4", "Q", 1.5)
	return c
}
