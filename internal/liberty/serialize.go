package liberty

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ageguard/internal/aging"
)

// Write serializes the library in the reproduction's line-oriented .alib
// format (a simplified Liberty equivalent carrying the same NLDM data).
// All arcs must use the library-global slew/load axes, which is what the
// characterizer produces.
func Write(w io.Writer, l *Library) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "LIBRARY %s\n", l.Name)
	s := l.Scenario
	fmt.Fprintf(bw, "SCENARIO %g %g %g %g %g\n", s.Years, s.TempK, s.Vdd, s.LambdaP, s.LambdaN)
	fmt.Fprintf(bw, "VDD %g\n", l.Vdd)
	fmt.Fprintf(bw, "SLEWS%s\n", floats(l.Slews))
	fmt.Fprintf(bw, "LOADS%s\n", floats(l.Loads))
	for _, name := range l.CellNames() {
		ct := l.Cells[name]
		fmt.Fprintf(bw, "CELL %s %s %d %g\n", ct.Name, ct.Base, ct.Drive, ct.AreaUm2)
		fmt.Fprintf(bw, "OUTPUT %s\n", ct.Output)
		fmt.Fprintf(bw, "INPUTS %s\n", strings.Join(ct.Inputs, " "))
		for _, p := range ct.Inputs {
			fmt.Fprintf(bw, "PINCAP %s %g\n", p, ct.PinCap[p])
		}
		if ct.Seq {
			fmt.Fprintf(bw, "SEQ %s %s %g %g\n", ct.Clock, ct.Data, ct.SetupPS, ct.HoldPS)
		}
		for _, a := range ct.Arcs {
			fmt.Fprintf(bw, "ARC %s %s %d\n", a.Pin, a.Sense, a.When)
			for e := Rise; e <= Fall; e++ {
				if a.Delay[e] != nil {
					fmt.Fprintf(bw, "TABLE delay %s\n", e)
					writeTable(bw, a.Delay[e])
				}
				if a.OutSlew[e] != nil {
					fmt.Fprintf(bw, "TABLE slew %s\n", e)
					writeTable(bw, a.OutSlew[e])
				}
			}
			for _, sp := range a.Salvaged {
				fmt.Fprintf(bw, "SALV %s %d %d\n", sp.Edge, sp.I, sp.J)
			}
		}
		fmt.Fprintln(bw, "ENDCELL")
	}
	fmt.Fprintln(bw, "ENDLIB")
	return bw.Flush()
}

func floats(v []float64) string {
	var sb strings.Builder
	for _, x := range v {
		fmt.Fprintf(&sb, " %g", x)
	}
	return sb.String()
}

func writeTable(w io.Writer, t *Table) {
	for _, row := range t.Values {
		fmt.Fprintln(w, strings.TrimSpace(floats(row)))
	}
}

// Parse parses the bytes of a library previously produced by Write. The
// ENDLIB terminator is mandatory: a file that ends before it — e.g. a
// cache entry truncated by a crashed or killed writer — is rejected
// rather than silently parsed as a smaller library, so cache loaders can
// detect every prefix truncation as corruption and rebuild.
//
// Lines and fields are split in place and numbers parsed straight from
// data, so the parse allocates little beyond the library it returns.
// That library holds copies of every name and never aliases data: a
// resident library must not pin the bytes of its file.
func Parse(data []byte) (*Library, error) {
	p := &parser{data: data, f: make([][]byte, 0, 16)}
	lib, err := p.library()
	if err != nil {
		return nil, fmt.Errorf("liberty: line %d: %w", p.lineNo, err)
	}
	return lib, nil
}

// parser splits data into lines at '\n' and each line into fields at
// ASCII spaces, the only separators Write emits.
type parser struct {
	data   []byte
	pos    int // offset of the first line not yet read
	lineNo int
	f      [][]byte // fields of the current line, reused for every line
	peeked [][]byte
}

// maxLineBytes is the length at which a line is rejected. It is the
// line limit of the reference reader the tests compare Parse against
// (reference_test.go), so that both accept the same files; Write's
// longest lines are axis lines, which maxAxisPoints keeps far below it.
const maxLineBytes = 1 << 20

// next returns the fields of the next line that is neither blank nor a
// comment. They alias data and the parser's field buffer, so they are
// valid until the next call.
func (p *parser) next() ([][]byte, error) {
	if p.peeked != nil {
		f := p.peeked
		p.peeked = nil
		return f, nil
	}
	for p.pos < len(p.data) {
		line := p.data[p.pos:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		if len(line) >= maxLineBytes {
			return nil, fmt.Errorf("line longer than %d bytes", maxLineBytes)
		}
		p.pos += len(line) + 1
		p.lineNo++
		p.f = splitFields(p.f[:0], line)
		if len(p.f) == 0 || p.f[0][0] == '#' {
			continue
		}
		return p.f, nil
	}
	return nil, io.EOF
}

func (p *parser) unread(f [][]byte) { p.peeked = f }

// isSpace marks the bytes strings.Fields splits ASCII text at.
var isSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields appends the fields of line to dst.
func splitFields(dst [][]byte, line []byte) [][]byte {
	for i := 0; ; {
		for i < len(line) && isSpace[line[i]] {
			i++
		}
		if i == len(line) {
			return dst
		}
		j := i
		for j < len(line) && !isSpace[line[j]] {
			j++
		}
		dst = append(dst, line[i:j:j])
		i = j
	}
}

// need guards field accesses against lines a truncation cut mid-token:
// they must surface as parse errors, never index panics.
func need(f [][]byte, n int) error {
	if len(f) < n {
		return fmt.Errorf("short %s line", f[0])
	}
	return nil
}

// maxAxisPoints bounds a table axis read from disk. Real
// characterization grids are tens of points per axis; the cap exists
// because every TABLE block allocates len(Slews)*len(Loads) floats up
// front, so a corrupted cache entry carrying a megabyte-long axis line
// must fail parsing instead of driving a multi-gigabyte allocation.
const maxAxisPoints = 1024

func parseAxis(fields [][]byte) ([]float64, error) {
	if len(fields) > maxAxisPoints {
		return nil, fmt.Errorf("axis has %d points, limit %d", len(fields), maxAxisPoints)
	}
	out := make([]float64, len(fields))
	if err := parseInto(out, fields); err != nil {
		return nil, err
	}
	return out, nil
}

// parseFloat parses one field. The string conversion does not escape,
// so it needs no allocation.
func parseFloat(b []byte) (float64, error) { return strconv.ParseFloat(string(b), 64) }

// parseInto parses fields into dst, which must be at least as long.
func parseInto(dst []float64, fields [][]byte) error {
	for i, f := range fields {
		v, err := parseFloat(f)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// names copies fields into strings; no fields give nil.
func names(fields [][]byte) []string {
	if len(fields) == 0 {
		return nil
	}
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = string(f)
	}
	return out
}

// pinName returns pin b of ct as a string, sharing the string of the
// input pin of that name when there is one.
func pinName(ct *CellTiming, b []byte) string {
	for _, in := range ct.Inputs {
		if in == string(b) {
			return in
		}
	}
	return string(b)
}

func (p *parser) library() (*Library, error) {
	l := &Library{Cells: map[string]*CellTiming{}}
	for {
		f, err := p.next()
		if err == io.EOF {
			return nil, fmt.Errorf("truncated library: missing ENDLIB terminator")
		}
		if err != nil {
			return nil, err
		}
		switch string(f[0]) {
		case "LIBRARY":
			if err := need(f, 2); err != nil {
				return nil, err
			}
			l.Name = string(f[1])
		case "SCENARIO":
			if err := need(f, 6); err != nil {
				return nil, err
			}
			var v [5]float64
			if err := parseInto(v[:], f[1:6]); err != nil {
				return nil, err
			}
			l.Scenario = aging.Scenario{Years: v[0], TempK: v[1], Vdd: v[2], LambdaP: v[3], LambdaN: v[4]}
		case "VDD":
			if err := need(f, 2); err != nil {
				return nil, err
			}
			v, err := parseFloat(f[1])
			if err != nil {
				return nil, err
			}
			l.Vdd = v
		case "SLEWS":
			v, err := parseAxis(f[1:])
			if err != nil {
				return nil, err
			}
			l.Slews = v
		case "LOADS":
			v, err := parseAxis(f[1:])
			if err != nil {
				return nil, err
			}
			l.Loads = v
		case "CELL":
			ct, err := p.cell(l, f)
			if err != nil {
				return nil, err
			}
			l.Cells[ct.Name] = ct
		case "ENDLIB":
			// Write always emits a LIBRARY header; a file reaching ENDLIB
			// without one would re-serialize as a short LIBRARY line that
			// Parse itself rejects, so refuse the round-trip asymmetry here.
			if l.Name == "" {
				return nil, fmt.Errorf("missing LIBRARY header")
			}
			return l, nil
		default:
			return nil, fmt.Errorf("unexpected token %q", f[0])
		}
	}
}

// cell parses a CELL block. Like arc, it reads its header's fields
// before the next line overwrites them.
func (p *parser) cell(l *Library, hdr [][]byte) (*CellTiming, error) {
	if len(hdr) < 5 {
		return nil, fmt.Errorf("short CELL header")
	}
	drive, err := strconv.Atoi(string(hdr[3]))
	if err != nil {
		return nil, err
	}
	areaV, err := parseFloat(hdr[4])
	if err != nil {
		return nil, err
	}
	ct := &CellTiming{
		Name: string(hdr[1]), Base: string(hdr[2]), Drive: drive, AreaUm2: areaV,
		PinCap: map[string]float64{},
	}
	for {
		f, err := p.next()
		if err != nil {
			return nil, err
		}
		switch string(f[0]) {
		case "OUTPUT":
			if err := need(f, 2); err != nil {
				return nil, err
			}
			ct.Output = string(f[1])
		case "INPUTS":
			ct.Inputs = names(f[1:])
		case "PINCAP":
			if err := need(f, 3); err != nil {
				return nil, err
			}
			v, err := parseFloat(f[2])
			if err != nil {
				return nil, err
			}
			ct.PinCap[pinName(ct, f[1])] = v
		case "SEQ":
			if err := need(f, 5); err != nil {
				return nil, err
			}
			ct.Seq = true
			ct.Clock, ct.Data = pinName(ct, f[1]), pinName(ct, f[2])
			if ct.SetupPS, err = parseFloat(f[3]); err != nil {
				return nil, err
			}
			if ct.HoldPS, err = parseFloat(f[4]); err != nil {
				return nil, err
			}
		case "ARC":
			arc, err := p.arc(l, ct, f)
			if err != nil {
				return nil, err
			}
			if ct.Arcs == nil {
				ct.Arcs = make([]Arc, 0, len(ct.Inputs))
			}
			ct.Arcs = append(ct.Arcs, arc)
		case "ENDCELL":
			return ct, nil
		default:
			return nil, fmt.Errorf("unexpected token %q in cell", f[0])
		}
	}
}

// parseSalv decodes a "SALV <edge> <i> <j>" salvage marker.
func parseSalv(f [][]byte) (SalvagePoint, error) {
	var sp SalvagePoint
	if len(f) < 4 {
		return sp, fmt.Errorf("short SALV line")
	}
	switch string(f[1]) {
	case "rise":
		sp.Edge = Rise
	case "fall":
		sp.Edge = Fall
	default:
		return sp, fmt.Errorf("bad SALV edge %q", f[1])
	}
	i, err := strconv.Atoi(string(f[2]))
	if err != nil {
		return sp, err
	}
	j, err := strconv.Atoi(string(f[3]))
	if err != nil {
		return sp, err
	}
	sp.I, sp.J = i, j
	return sp, nil
}

func (p *parser) arc(l *Library, ct *CellTiming, hdr [][]byte) (Arc, error) {
	if len(hdr) < 4 {
		return Arc{}, fmt.Errorf("short ARC header")
	}
	a := Arc{Pin: pinName(ct, hdr[1])}
	switch string(hdr[2]) {
	case "positive_unate":
		a.Sense = PositiveUnate
	case "negative_unate":
		a.Sense = NegativeUnate
	default:
		return Arc{}, fmt.Errorf("bad sense %q", hdr[2])
	}
	when, err := strconv.ParseUint(string(hdr[3]), 10, 32)
	if err != nil {
		return Arc{}, err
	}
	a.When = uint(when)
	for {
		f, err := p.next()
		if err != nil {
			return Arc{}, err
		}
		if string(f[0]) == "SALV" {
			sp, err := parseSalv(f)
			if err != nil {
				return Arc{}, err
			}
			a.Salvaged = append(a.Salvaged, sp)
			continue
		}
		if string(f[0]) != "TABLE" {
			p.unread(f)
			return a, nil
		}
		if err := need(f, 3); err != nil {
			return Arc{}, err
		}
		var edge Edge
		switch string(f[2]) {
		case "rise":
			edge = Rise
		case "fall":
			edge = Fall
		default:
			return Arc{}, fmt.Errorf("bad edge %q", f[2])
		}
		// A bad kind is reported after the rows are read, as the
		// reference reader does; its field does not outlive the first
		// row, so the kind is resolved here.
		var dst *[2]*Table
		var badKind string
		switch string(f[1]) {
		case "delay":
			dst = &a.Delay
		case "slew":
			dst = &a.OutSlew
		default:
			badKind = string(f[1])
		}
		t := NewTable(l.Slews, l.Loads)
		for i, vals := range t.Values {
			row, err := p.next()
			if err != nil {
				return Arc{}, err
			}
			if len(row) != len(vals) {
				return Arc{}, fmt.Errorf("table row %d has %d values, want %d", i, len(row), len(vals))
			}
			if err := parseInto(vals, row); err != nil {
				return Arc{}, err
			}
		}
		if dst == nil {
			return Arc{}, fmt.Errorf("bad table kind %q", badKind)
		}
		dst[edge] = t
	}
}
