package netlist

import (
	"bytes"
	"testing"
)

func seqSample() *Netlist {
	n := New("top")
	n.Inputs = []string{"a", "b[0]"}
	n.Outputs = []string{"y"}
	n.AddInst("g1", "NAND2_X1", map[string]string{"A1": "a", "A2": "b[0]", "ZN": "n1"})
	n.AddInst("r1", "DFF_X1", map[string]string{"D": "n1", "CK": ClockNet, "Q": "y"})
	return n
}

// TestVerilogRoundTrip pins the structural Verilog that external tools
// read back (stareport -verilog): the clock port first in a sequential
// design, bus bits as escaped identifiers with their trailing space,
// internal nets declared as wires, and named connections in pin order.
func TestVerilogRoundTrip(t *testing.T) {
	const want = `module top (clk, a, \b[0] , y);
  input clk;
  input a;
  input \b[0] ;
  output y;
  wire n1;
  NAND2_X1 g1 (.A1(a), .A2(\b[0] ), .ZN(n1));
  DFF_X1 r1 (.CK(clk), .D(n1), .Q(y));
endmodule
`
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, seqSample()); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("WriteVerilog =\n%s\nwant\n%s", got, want)
	}
}

func TestVerilogEscapedIdentifiers(t *testing.T) {
	if vname("abc") != "abc" || vname("a_b1") != "a_b1" {
		t.Error("simple names must not be escaped")
	}
	if vname("x[3]") != "\\x[3] " {
		t.Errorf("bus bit escape = %q", vname("x[3]"))
	}
	if vname("1bad") != "\\1bad " {
		t.Error("leading digit must be escaped")
	}
}
