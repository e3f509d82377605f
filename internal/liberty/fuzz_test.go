package liberty

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"ageguard/internal/aging"
)

// fuzzSeedLibrary serializes a minimal two-cell library so the fuzzer
// starts from well-formed input and mutates toward the parser's edges.
func fuzzSeedLibrary() []byte {
	tb := NewTable([]float64{1e-12, 2e-12}, []float64{1e-15, 2e-15})
	for i := range tb.Values {
		for j := range tb.Values[i] {
			tb.Values[i][j] = float64(i+j+1) * 1e-12
		}
	}
	l := &Library{
		Name:     "fuzzseed",
		Scenario: aging.Fresh(),
		Vdd:      1.1,
		Slews:    tb.Slews,
		Loads:    tb.Loads,
		Cells: map[string]*CellTiming{
			"INV_X1": {
				Name:   "INV_X1",
				Base:   "INV",
				Drive:  1,
				Inputs: []string{"A"},
				Output: "ZN",
				PinCap: map[string]float64{"A": 1e-15},
				Arcs: []Arc{{
					Pin:     "A",
					Sense:   NegativeUnate,
					Delay:   [2]*Table{tb, tb},
					OutSlew: [2]*Table{tb, tb},
				}},
			},
			"DFF_X1": {
				Name:    "DFF_X1",
				Base:    "DFF",
				Drive:   1,
				Inputs:  []string{"D"},
				Output:  "Q",
				PinCap:  map[string]float64{"D": 1e-15, "CK": 1e-15},
				Seq:     true,
				Clock:   "CK",
				Data:    "D",
				SetupPS: 20,
				HoldPS:  5,
				Arcs: []Arc{{
					Pin:     "CK",
					Sense:   PositiveUnate,
					Delay:   [2]*Table{tb, tb},
					OutSlew: [2]*Table{tb, tb},
				}},
			},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzLibertyRead asserts the cache deserializer's contract on arbitrary
// bytes: parse cleanly or return an error — never panic, never hang. A
// successfully parsed library must also survive re-serialization and
// re-parse (the cache writer/loader round trip). Read must agree with
// the reference reader it replaced: both fail, or both return libraries
// equal in every field and every float's bits. That comparison is
// skipped for inputs with bytes of 0x80 and above, where the reference
// also splits at Unicode spaces, which Write never emits.
func FuzzLibertyRead(f *testing.F) {
	seed := fuzzSeedLibrary()
	f.Add(seed)
	f.Add([]byte(""))
	f.Add([]byte("LIBRARY fuzz\nENDLIB\n"))
	f.Add([]byte("LIBRARY truncated"))
	f.Add(bytes.Repeat([]byte("CELL "), 100))
	// A prefix truncation of the valid seed must be rejected (no ENDLIB).
	f.Add(seed[:len(seed)/2])
	// Oversized axes must be refused before TABLE blocks can allocate
	// len(Slews)*len(Loads) floats per arc (found by this fuzzer).
	f.Add([]byte("LIBRARY big\nSLEWS" + strings.Repeat(" 1e-12", 5000) + "\nENDLIB\n"))
	// Line ends and spacing the two readers must treat alike.
	f.Add(bytes.ReplaceAll(seed, []byte("\n"), []byte("\r\n")))
	f.Add([]byte("\t LIBRARY \v l\f\r\n  # note\n\nENDLIB"))
	// A cell without an output, which Write would serialize as a short
	// OUTPUT line (found by this fuzzer).
	f.Add([]byte(cellWithoutOutput))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Read(bytes.NewReader(data))
		if !hasHighBytes(data) {
			ref, rerr := readReference(bytes.NewReader(data))
			if (err == nil) != (rerr == nil) {
				t.Fatalf("Read error %v, reference error %v", err, rerr)
			}
			if err == nil {
				if d := diffLibraries(l, ref); d != "" {
					t.Fatalf("Read and reference differ at %s", d)
				}
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, l); err != nil {
			t.Fatalf("parsed library failed to serialize: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

func hasHighBytes(data []byte) bool {
	for _, b := range data {
		if b >= 0x80 {
			return true
		}
	}
	return false
}

func TestFuzzSeedParses(t *testing.T) {
	l, err := Read(bytes.NewReader(fuzzSeedLibrary()))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Cells) != 2 || l.Name != "fuzzseed" {
		t.Fatalf("seed library = %+v", l)
	}
	if _, err := Read(strings.NewReader("garbage\n")); err == nil {
		t.Error("garbage parsed")
	}
}

// cellWithoutOutput holds a cell whose OUTPUT line a bare '\r' joined
// onto its CELL header, whose extra fields both readers ignore.
const cellWithoutOutput = "LIBRARY x\nCELL INV_X1 INV 1 0.5\rOUTPUT ZN\nINPUTS A\nENDCELL\nENDLIB\n"

// TestReadRejectsCellWithoutOutput: a cell that reaches ENDCELL without
// an output fails Read and the reference reader alike, so the readers
// still agree and every library they accept writes (Write) bytes they
// accept again; with its OUTPUT on a line of its own the cell parses in
// both.
func TestReadRejectsCellWithoutOutput(t *testing.T) {
	if _, err := Read(strings.NewReader(cellWithoutOutput)); err == nil {
		t.Error("Read accepted a cell without an output")
	}
	if _, err := readReference(strings.NewReader(cellWithoutOutput)); err == nil {
		t.Error("the reference reader accepted a cell without an output")
	}
	fixed := strings.Replace(cellWithoutOutput, "\r", "\n", 1)
	for name, read := range map[string]func(io.Reader) (*Library, error){"Read": Read, "reference": readReference} {
		l, err := read(strings.NewReader(fixed))
		if err != nil || l.Cells["INV_X1"].Output != "ZN" {
			t.Errorf("%s of the cell with its OUTPUT line: %v", name, err)
		}
	}
}

// TestReadRejectsOversizedAxis pins the allocation guard the fuzzer
// motivated: an axis line with more points than any real grid must fail
// parsing instead of sizing table allocations.
func TestReadRejectsOversizedAxis(t *testing.T) {
	huge := "LIBRARY big\nLOADS" + strings.Repeat(" 2e-15", maxAxisPoints+1) + "\nENDLIB\n"
	if _, err := Read(strings.NewReader(huge)); err == nil {
		t.Fatal("axis with maxAxisPoints+1 entries parsed")
	}
	ok := "LIBRARY big\nLOADS" + strings.Repeat(" 2e-15", maxAxisPoints) + "\nENDLIB\n"
	if _, err := Read(strings.NewReader(ok)); err != nil {
		t.Fatalf("axis at the limit rejected: %v", err)
	}
}
