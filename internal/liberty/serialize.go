package liberty

import (
	"bufio"
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

// Read parses a library previously produced by Write. The ENDLIB
// terminator is mandatory: a file that ends before it — e.g. a cache
// entry truncated by a crashed or killed writer — is rejected rather
// than silently parsed as a smaller library, so cache loaders can detect
// every prefix truncation as corruption and rebuild.
func Read(r io.Reader) (*Library, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	p := &parser{sc: sc}
	lib, err := p.library()
	if err != nil {
		return nil, fmt.Errorf("liberty: line %d: %w", p.lineNo, err)
	}
	return lib, nil
}

type parser struct {
	sc     *bufio.Scanner
	lineNo int
	peeked []string
	done   bool
}

func (p *parser) next() ([]string, error) {
	if p.peeked != nil {
		f := p.peeked
		p.peeked = nil
		return f, nil
	}
	for p.sc.Scan() {
		p.lineNo++
		line := strings.TrimSpace(p.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return strings.Fields(line), nil
	}
	if err := p.sc.Err(); err != nil {
		return nil, err
	}
	p.done = true
	return nil, io.EOF
}

func (p *parser) unread(f []string) { p.peeked = f }

// need guards field accesses against lines a truncation cut mid-token:
// they must surface as parse errors, never index panics.
func need(f []string, n int) error {
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

func parseAxis(fields []string) ([]float64, error) {
	if len(fields) > maxAxisPoints {
		return nil, fmt.Errorf("axis has %d points, limit %d", len(fields), maxAxisPoints)
	}
	return parseFloats(fields)
}

func parseFloats(fields []string) ([]float64, error) {
	out := make([]float64, len(fields))
	if err := parseInto(out, fields); err != nil {
		return nil, err
	}
	return out, nil
}

// parseInto parses fields into dst, which must be at least as long.
func parseInto(dst []float64, fields []string) error {
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
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
		switch f[0] {
		case "LIBRARY":
			if err := need(f, 2); err != nil {
				return nil, err
			}
			l.Name = f[1]
		case "SCENARIO":
			if err := need(f, 6); err != nil {
				return nil, err
			}
			v, err := parseFloats(f[1:6])
			if err != nil {
				return nil, err
			}
			l.Scenario = aging.Scenario{Years: v[0], TempK: v[1], Vdd: v[2], LambdaP: v[3], LambdaN: v[4]}
		case "VDD":
			if err := need(f, 2); err != nil {
				return nil, err
			}
			v, err := strconv.ParseFloat(f[1], 64)
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
			// Read itself rejects, so refuse the round-trip asymmetry here.
			if l.Name == "" {
				return nil, fmt.Errorf("missing LIBRARY header")
			}
			return l, nil
		default:
			return nil, fmt.Errorf("unexpected token %q", f[0])
		}
	}
}

func (p *parser) cell(l *Library, hdr []string) (*CellTiming, error) {
	if len(hdr) < 5 {
		return nil, fmt.Errorf("short CELL header")
	}
	drive, err := strconv.Atoi(hdr[3])
	if err != nil {
		return nil, err
	}
	areaV, err := strconv.ParseFloat(hdr[4], 64)
	if err != nil {
		return nil, err
	}
	ct := &CellTiming{
		Name: hdr[1], Base: hdr[2], Drive: drive, AreaUm2: areaV,
		PinCap: map[string]float64{},
	}
	for {
		f, err := p.next()
		if err != nil {
			return nil, err
		}
		switch f[0] {
		case "OUTPUT":
			if err := need(f, 2); err != nil {
				return nil, err
			}
			ct.Output = f[1]
		case "INPUTS":
			ct.Inputs = append([]string(nil), f[1:]...)
		case "PINCAP":
			if err := need(f, 3); err != nil {
				return nil, err
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, err
			}
			ct.PinCap[f[1]] = v
		case "SEQ":
			if err := need(f, 5); err != nil {
				return nil, err
			}
			ct.Seq = true
			ct.Clock, ct.Data = f[1], f[2]
			if ct.SetupPS, err = strconv.ParseFloat(f[3], 64); err != nil {
				return nil, err
			}
			if ct.HoldPS, err = strconv.ParseFloat(f[4], 64); err != nil {
				return nil, err
			}
		case "ARC":
			arc, err := p.arc(l, f)
			if err != nil {
				return nil, err
			}
			ct.Arcs = append(ct.Arcs, *arc)
		case "ENDCELL":
			return ct, nil
		default:
			return nil, fmt.Errorf("unexpected token %q in cell", f[0])
		}
	}
}

// parseSalv decodes a "SALV <edge> <i> <j>" salvage marker.
func parseSalv(f []string) (SalvagePoint, error) {
	var sp SalvagePoint
	if len(f) < 4 {
		return sp, fmt.Errorf("short SALV line")
	}
	switch f[1] {
	case "rise":
		sp.Edge = Rise
	case "fall":
		sp.Edge = Fall
	default:
		return sp, fmt.Errorf("bad SALV edge %q", f[1])
	}
	i, err := strconv.Atoi(f[2])
	if err != nil {
		return sp, err
	}
	j, err := strconv.Atoi(f[3])
	if err != nil {
		return sp, err
	}
	sp.I, sp.J = i, j
	return sp, nil
}

func (p *parser) arc(l *Library, hdr []string) (*Arc, error) {
	if len(hdr) < 4 {
		return nil, fmt.Errorf("short ARC header")
	}
	a := &Arc{Pin: hdr[1]}
	switch hdr[2] {
	case "positive_unate":
		a.Sense = PositiveUnate
	case "negative_unate":
		a.Sense = NegativeUnate
	default:
		return nil, fmt.Errorf("bad sense %q", hdr[2])
	}
	when, err := strconv.ParseUint(hdr[3], 10, 32)
	if err != nil {
		return nil, err
	}
	a.When = uint(when)
	for {
		f, err := p.next()
		if err != nil {
			return nil, err
		}
		if f[0] == "SALV" {
			sp, err := parseSalv(f)
			if err != nil {
				return nil, err
			}
			a.Salvaged = append(a.Salvaged, sp)
			continue
		}
		if f[0] != "TABLE" {
			p.unread(f)
			return a, nil
		}
		if err := need(f, 3); err != nil {
			return nil, err
		}
		var edge Edge
		switch f[2] {
		case "rise":
			edge = Rise
		case "fall":
			edge = Fall
		default:
			return nil, fmt.Errorf("bad edge %q", f[2])
		}
		t := NewTable(l.Slews, l.Loads)
		for i, vals := range t.Values {
			row, err := p.next()
			if err != nil {
				return nil, err
			}
			if len(row) != len(vals) {
				return nil, fmt.Errorf("table row %d has %d values, want %d", i, len(row), len(vals))
			}
			if err := parseInto(vals, row); err != nil {
				return nil, err
			}
		}
		switch f[1] {
		case "delay":
			a.Delay[edge] = t
		case "slew":
			a.OutSlew[edge] = t
		default:
			return nil, fmt.Errorf("bad table kind %q", f[1])
		}
	}
}
