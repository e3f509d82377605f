package liberty

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ageguard/internal/aging"
)

// readReference is the line-scanner reader that Parse replaced: a
// bufio.Scanner splits lines, strings.Fields splits fields, and every
// token is a string. It stays as the reference the differential tests
// and BenchmarkRead compare Parse against; the format, the structural
// checks and the parsed values must agree between the two.
func readReference(r io.Reader) (*Library, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	p := &refParser{sc: sc}
	lib, err := p.library()
	if err != nil {
		return nil, fmt.Errorf("liberty: line %d: %w", p.lineNo, err)
	}
	return lib, nil
}

type refParser struct {
	sc     *bufio.Scanner
	lineNo int
	peeked []string
	done   bool
}

func (p *refParser) next() ([]string, error) {
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

func (p *refParser) unread(f []string) { p.peeked = f }

func refNeed(f []string, n int) error {
	if len(f) < n {
		return fmt.Errorf("short %s line", f[0])
	}
	return nil
}

func refParseAxis(fields []string) ([]float64, error) {
	if len(fields) > maxAxisPoints {
		return nil, fmt.Errorf("axis has %d points, limit %d", len(fields), maxAxisPoints)
	}
	return refParseFloats(fields)
}

func refParseFloats(fields []string) ([]float64, error) {
	out := make([]float64, len(fields))
	if err := refParseInto(out, fields); err != nil {
		return nil, err
	}
	return out, nil
}

func refParseInto(dst []float64, fields []string) error {
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

func (p *refParser) library() (*Library, error) {
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
			if err := refNeed(f, 2); err != nil {
				return nil, err
			}
			l.Name = f[1]
		case "SCENARIO":
			if err := refNeed(f, 6); err != nil {
				return nil, err
			}
			v, err := refParseFloats(f[1:6])
			if err != nil {
				return nil, err
			}
			l.Scenario = aging.Scenario{Years: v[0], TempK: v[1], Vdd: v[2], LambdaP: v[3], LambdaN: v[4]}
		case "VDD":
			if err := refNeed(f, 2); err != nil {
				return nil, err
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			l.Vdd = v
		case "SLEWS":
			v, err := refParseAxis(f[1:])
			if err != nil {
				return nil, err
			}
			l.Slews = v
		case "LOADS":
			v, err := refParseAxis(f[1:])
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
			if l.Name == "" {
				return nil, fmt.Errorf("missing LIBRARY header")
			}
			return l, nil
		default:
			return nil, fmt.Errorf("unexpected token %q", f[0])
		}
	}
}

func (p *refParser) cell(l *Library, hdr []string) (*CellTiming, error) {
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
			if err := refNeed(f, 2); err != nil {
				return nil, err
			}
			ct.Output = f[1]
		case "INPUTS":
			ct.Inputs = append([]string(nil), f[1:]...)
		case "PINCAP":
			if err := refNeed(f, 3); err != nil {
				return nil, err
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, err
			}
			ct.PinCap[f[1]] = v
		case "SEQ":
			if err := refNeed(f, 5); err != nil {
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
			if ct.Output == "" {
				return nil, fmt.Errorf("cell %s has no OUTPUT line", ct.Name)
			}
			return ct, nil
		default:
			return nil, fmt.Errorf("unexpected token %q in cell", f[0])
		}
	}
}

func refParseSalv(f []string) (SalvagePoint, error) {
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

func (p *refParser) arc(l *Library, hdr []string) (*Arc, error) {
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
			sp, err := refParseSalv(f)
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
		if err := refNeed(f, 3); err != nil {
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
			if err := refParseInto(vals, row); err != nil {
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
