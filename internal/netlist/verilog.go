package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteVerilog serializes the netlist as structural Verilog, the
// interchange format between synthesis, timing and simulation in the
// paper's tool flow. Net names containing brackets (bus bits) are emitted
// as escaped identifiers.
func WriteVerilog(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	ports := append([]string{}, n.Inputs...)
	ports = append(ports, n.Outputs...)
	seq := false
	for _, in := range n.Insts {
		if strings.HasPrefix(in.Cell, "DFF") {
			seq = true
			break
		}
	}
	if seq {
		ports = append([]string{ClockNet}, ports...)
	}
	vports := make([]string, len(ports))
	for i, p := range ports {
		vports[i] = vname(p)
	}
	fmt.Fprintf(bw, "module %s (%s);\n", vname(n.Name), strings.Join(vports, ", "))
	if seq {
		fmt.Fprintf(bw, "  input %s;\n", vname(ClockNet))
	}
	for _, p := range n.Inputs {
		fmt.Fprintf(bw, "  input %s;\n", vname(p))
	}
	for _, p := range n.Outputs {
		fmt.Fprintf(bw, "  output %s;\n", vname(p))
	}
	// Internal wires: every net that is not a port.
	isPort := map[string]bool{ClockNet: true}
	for _, p := range ports {
		isPort[p] = true
	}
	for _, net := range n.Nets() {
		if !isPort[net] {
			fmt.Fprintf(bw, "  wire %s;\n", vname(net))
		}
	}
	for _, in := range n.Insts {
		pins := make([]string, 0, len(in.Pins))
		for p, net := range in.Pins {
			pins = append(pins, fmt.Sprintf(".%s(%s)", p, vname(net)))
		}
		sort.Strings(pins)
		fmt.Fprintf(bw, "  %s %s (%s);\n", vname(in.Cell), vname(in.Name), strings.Join(pins, ", "))
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// vname escapes identifiers that are not simple Verilog names.
func vname(s string) string {
	simple := true
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				simple = false
			}
		default:
			simple = false
		}
	}
	if simple && s != "" {
		return s
	}
	return "\\" + s + " " // escaped identifier (trailing space required)
}
