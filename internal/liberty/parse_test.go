package liberty

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ageguard/internal/aging"
)

// daemonSizeLibrary builds a library the size of the daemon's: 68 cells
// over a 7×7 grid, each table value a full-precision float that prints
// with 16–17 significant digits, as characterized values do. One cell is
// sequential and one arc carries salvage markers, so every line kind of
// the format occurs.
func daemonSizeLibrary() *Library {
	rng := rand.New(rand.NewSource(1))
	axis := func(lo, span float64) []float64 {
		out := make([]float64, 7)
		for i := range out {
			out[i] = lo * math.Pow(span, float64(i)/6)
		}
		return out
	}
	l := &Library{
		Name:     "aged_y10.0_1.0_1.0",
		Scenario: aging.WorstCase(10),
		Vdd:      1.1,
		Slews:    axis(5e-12, 189.4),
		Loads:    axis(5e-16, 40),
		Cells:    make(map[string]*CellTiming, 68),
	}
	table := func() *Table {
		t := NewTable(l.Slews, l.Loads)
		for _, row := range t.Values {
			for j := range row {
				row[j] = 1e-11 * (0.5 + 10*rng.Float64())
			}
		}
		return t
	}
	pins := []string{"A1", "A2", "A3", "A4"}
	for c := 0; c < 68; c++ {
		ct := &CellTiming{
			Name: fmt.Sprintf("CELL%02d_X%d", c, 1+c%4), Base: fmt.Sprintf("CELL%02d", c),
			Drive: 1 + c%4, AreaUm2: 0.5 + 5*rng.Float64(),
			Inputs: pins[:1+c%4], Output: "ZN", PinCap: map[string]float64{},
		}
		for _, p := range ct.Inputs {
			ct.PinCap[p] = 1e-15 * (0.5 + 2*rng.Float64())
			senses := []Sense{NegativeUnate}
			if c%7 == 0 {
				senses = append(senses, PositiveUnate)
			}
			for _, s := range senses {
				ct.Arcs = append(ct.Arcs, Arc{Pin: p, Sense: s, When: uint(c % 3),
					Delay: [2]*Table{table(), table()}, OutSlew: [2]*Table{table(), table()}})
			}
		}
		if c == 67 {
			ct.Inputs = []string{"D", "CK"}
			ct.PinCap = map[string]float64{"D": 0.9e-15, "CK": 1.1e-15}
			ct.Seq, ct.Clock, ct.Data, ct.SetupPS, ct.HoldPS = true, "CK", "D", 3e-11, 3e-12
			ct.Arcs = []Arc{{Pin: "CK", Sense: PositiveUnate,
				Delay: [2]*Table{table(), table()}, OutSlew: [2]*Table{table(), table()}}}
		}
		if c == 1 {
			ct.Arcs[0].Salvaged = []SalvagePoint{{Edge: Fall, I: 3, J: 4}}
		}
		l.Cells[ct.Name] = ct
	}
	return l
}

// diffBits reports the first difference between two values of the same
// type, or "" when there is none. Floats compare by their bits, slices
// and maps by their nil-ness as well as their elements, so it is
// stricter than reflect.DeepEqual.
func diffBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil mismatch"
			}
			return ""
		}
		return diffBits(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return path + ": nil mismatch"
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, k)
			}
			if d := diffBits(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k)); d != "" {
				return d
			}
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Int:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	default:
		return fmt.Sprintf("%s: cannot compare kind %s", path, a.Kind())
	}
	return ""
}

// diffLibraries compares two parsed libraries field by field and bit by
// bit; "" means equal.
func diffLibraries(a, b *Library) string {
	return diffBits(reflect.ValueOf(a), reflect.ValueOf(b), "Library")
}

// TestParseMatchesReference parses a daemon-size library with Parse and
// with the reference reader, as written, with CRLF line ends and
// without its final newline, summed and plain. Both must give the
// library that was written, bit for bit. Parse's result must not alias
// its input: overwriting the input afterwards changes nothing.
func TestParseMatchesReference(t *testing.T) {
	want := daemonSizeLibrary()
	var summed, plain bytes.Buffer
	if err := WriteSummed(&summed, want); err != nil {
		t.Fatal(err)
	}
	if err := Write(&plain, want); err != nil {
		t.Fatal(err)
	}
	crlf := func(b []byte) []byte { return bytes.ReplaceAll(b, []byte("\n"), []byte("\r\n")) }
	cases := []struct {
		name string
		data []byte
	}{
		{"summed", summed.Bytes()},
		{"summed CRLF", crlf(summed.Bytes())},
		{"summed without final newline", summed.Bytes()[:summed.Len()-1]},
		{"plain", plain.Bytes()},
		{"plain CRLF", crlf(plain.Bytes())},
		{"plain without final newline", plain.Bytes()[:plain.Len()-1]},
	}
	for _, c := range cases {
		ref, err := readReference(bytes.NewReader(c.data))
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		in := append([]byte(nil), c.data...)
		got, err := Parse(in)
		if err != nil {
			t.Fatalf("%s: Parse: %v", c.name, err)
		}
		if d := diffLibraries(got, ref); d != "" {
			t.Errorf("%s: Parse and reference differ at %s", c.name, d)
		}
		if d := diffLibraries(got, want); d != "" {
			t.Errorf("%s: parsed library differs from the written one at %s", c.name, d)
		}
		for i := range in {
			in[i] = 'x'
		}
		if d := diffLibraries(got, ref); d != "" {
			t.Errorf("%s: overwriting Parse's input changed its library at %s", c.name, d)
		}
	}
	if n := summed.Len(); n < 600<<10 {
		t.Errorf("daemon-size library serializes to %d bytes, want the daemon's ~0.9 MB", n)
	}
}

// TestParseLineLimit: a line of maxLineBytes or more fails in both
// parsers, and one byte shorter parses in both.
func TestParseLineLimit(t *testing.T) {
	for _, n := range []int{maxLineBytes - 1, maxLineBytes} {
		line := bytes.Repeat([]byte(" "), n)
		copy(line, "# ")
		data := append([]byte("LIBRARY l\n"), line...)
		data = append(data, "\nENDLIB\n"...)
		_, err := Parse(data)
		_, rerr := readReference(bytes.NewReader(data))
		if (err == nil) != (n < maxLineBytes) || (rerr == nil) != (n < maxLineBytes) {
			t.Errorf("%d-byte line: Parse error %v, reference error %v", n, err, rerr)
		}
	}
}
