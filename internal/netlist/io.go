package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Write serializes the netlist in the reproduction's structural format
// (a minimal structural-Verilog equivalent):
//
//	design <name>
//	input <net> ...
//	output <net> ...
//	inst <name> <cell> <pin>=<net> ...
//	end
//
// A netlist without a name gets no design line, which Read would reject.
func Write(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	if n.Name != "" {
		fmt.Fprintf(bw, "design %s\n", n.Name)
	}
	if len(n.Inputs) > 0 {
		fmt.Fprintf(bw, "input %s\n", strings.Join(n.Inputs, " "))
	}
	if len(n.Outputs) > 0 {
		fmt.Fprintf(bw, "output %s\n", strings.Join(n.Outputs, " "))
	}
	for _, in := range n.Insts {
		pins := make([]string, 0, len(in.Pins))
		for p, net := range in.Pins {
			pins = append(pins, p+"="+net)
		}
		sort.Strings(pins)
		fmt.Fprintf(bw, "inst %s %s %s\n", in.Name, in.Cell, strings.Join(pins, " "))
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// Read parses a netlist produced by Write.
func Read(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := &Netlist{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "design":
			if len(f) < 2 {
				return nil, fmt.Errorf("netlist: line %d: design without a name", lineNo)
			}
			n.Name = f[1]
		case "input":
			n.Inputs = append(n.Inputs, f[1:]...)
		case "output":
			n.Outputs = append(n.Outputs, f[1:]...)
		case "inst":
			if len(f) < 4 {
				return nil, fmt.Errorf("netlist: line %d: short inst", lineNo)
			}
			pins := map[string]string{}
			for _, kv := range f[3:] {
				i := strings.IndexByte(kv, '=')
				if i < 0 {
					return nil, fmt.Errorf("netlist: line %d: bad pin %q", lineNo, kv)
				}
				pins[kv[:i]] = kv[i+1:]
			}
			n.AddInst(f[1], f[2], pins)
		case "end":
			return n, sc.Err()
		default:
			return nil, fmt.Errorf("netlist: line %d: unknown keyword %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return n, fmt.Errorf("netlist: missing end")
}
