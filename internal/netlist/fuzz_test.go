package netlist

import (
	"bytes"
	"maps"
	"slices"
	"testing"
)

// sameNetlist reports whether a and b have the same name, inputs,
// outputs and instances (name, cell and pin map, in order).
func sameNetlist(a, b *Netlist) bool {
	return a.Name == b.Name &&
		slices.Equal(a.Inputs, b.Inputs) && slices.Equal(a.Outputs, b.Outputs) &&
		slices.EqualFunc(a.Insts, b.Insts, func(x, y *Inst) bool {
			return x.Name == y.Name && x.Cell == y.Cell && maps.Equal(x.Pins, y.Pins)
		})
}

// FuzzNetlistRead asserts the .netl reader's contract on arbitrary
// bytes: parse or return an error, never panic. A netlist it accepts
// must survive Write and a second Read unchanged (the disk cache's
// store/load round trip).
func FuzzNetlistRead(f *testing.F) {
	n := sample()
	n.AddInst("r1", "DFF_X1", map[string]string{"D": "y", "CK": ClockNet, "Q": "q"})
	n.Outputs = append(n.Outputs, "q")
	var seed bytes.Buffer
	if err := Write(&seed, n); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("design"))
	f.Add([]byte("end\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, n); err != nil {
			t.Fatalf("Write of an accepted netlist: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-Read of %q: %v", buf.String(), err)
		}
		if !sameNetlist(back, n) {
			t.Fatalf("round trip changed the netlist:\n%+v\n%+v", n, back)
		}
	})
}
