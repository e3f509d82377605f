package liberty

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file defines the shift file: the ShiftTables of one library's
// sensitivities (package char's, one ArcShift per arc) as the exact bits
// of their interleaved values, so a load reads back the tables the
// interleaving built without parsing a number. Integers are
// little-endian:
//
//	magic     8 bytes   shiftMagic, then the format version byte
//	count     8 bytes   n, the number of values that follow
//	values    8n bytes  each value's IEEE-754 bits, walked in the base
//	                    library's sorted cell → arc → edge order, an
//	                    edge's delay table before its output-slew table;
//	                    an edge without tables contributes none
//
// The format has no checksum of its own: on disk a shift file is sealed
// like every cache file (atomicfile), whose reader hands over only bytes
// that did not change since the write. The file holds no structure of
// its own either: its values are sliced along the base library's tables,
// and every entry's base value must equal the base table's bits, so a
// file taken around another base (another scenario, grid or cell set) is
// rejected instead of misread.

const (
	shiftMagic   = "AGSHIFT"
	shiftVersion = 2
	shiftHeader  = len(shiftMagic) + 1 + 8 // magic, version, count
)

// EncodeShifts returns the shift file of shifts, the tables interleaved
// around base: one ArcShift per arc of every base cell, holding a table
// exactly where the base arc has one.
func EncodeShifts(base *Library, shifts map[string][]ArcShift) ([]byte, error) {
	buf := make([]byte, shiftHeader, shiftHeader+8*shiftValues(base))
	copy(buf, shiftMagic)
	buf[len(shiftMagic)] = shiftVersion
	err := walkShifts(base, shifts, func(t *Table, st *ShiftTable) error {
		if len(st.v) != len(t.Slews)*len(t.Loads)*entryLen {
			return fmt.Errorf("a shift table holds %d values for a %dx%d table", len(st.v), len(t.Slews), len(t.Loads))
		}
		for _, v := range st.v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("liberty: shift file of %s: %w", base.Name, err)
	}
	binary.LittleEndian.PutUint64(buf[len(shiftMagic)+1:], uint64((len(buf)-shiftHeader)/8))
	return buf, nil
}

// shiftValues counts the values of base's shift file.
func shiftValues(base *Library) int {
	n := 0
	for _, ct := range base.Cells {
		for _, a := range ct.Arcs {
			for _, t := range [...]*Table{a.Delay[Rise], a.OutSlew[Rise], a.Delay[Fall], a.OutSlew[Fall]} {
				if t != nil {
					n += len(t.Slews) * len(t.Loads) * entryLen
				}
			}
		}
	}
	return n
}

// ShiftFile is a shift file that passed VerifyShifts: its magic, version
// and value count are right. Tables decodes it against a base.
type ShiftFile struct {
	values []byte
}

// VerifyShifts checks a shift file without a base library: its magic and
// format version, and that its value count matches its length, so every
// truncation fails it.
func VerifyShifts(data []byte) (ShiftFile, error) {
	if len(data) < shiftHeader {
		return ShiftFile{}, fmt.Errorf("liberty: shift file of %d bytes is shorter than its header", len(data))
	}
	if string(data[:len(shiftMagic)]) != shiftMagic {
		return ShiftFile{}, errors.New("liberty: not a shift file")
	}
	if v := data[len(shiftMagic)]; v != shiftVersion {
		return ShiftFile{}, fmt.Errorf("liberty: shift file format version %d, want %d", v, shiftVersion)
	}
	body := len(data) - shiftHeader
	if n := binary.LittleEndian.Uint64(data[len(shiftMagic)+1:]); body%8 != 0 || n != uint64(body/8) {
		return ShiftFile{}, fmt.Errorf("liberty: shift file says %d values but holds %d bytes of them", n, body)
	}
	return ShiftFile{values: data[shiftHeader:]}, nil
}

// Tables decodes the file against base, the library its tables were
// interleaved around: every value goes into one []float64, which each
// table slices, on its base table's axes. It fails unless the file holds
// exactly base's tables and every entry's base value has the bits of
// base's.
func (f ShiftFile) Tables(base *Library) (map[string][]ArcShift, error) {
	vals := make([]float64, len(f.values)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(f.values[8*i:]))
	}
	shifts := make(map[string][]ArcShift, len(base.Cells))
	for name, ct := range base.Cells {
		shifts[name] = make([]ArcShift, len(ct.Arcs))
	}
	off := 0
	err := walkShifts(base, shifts, func(t *Table, st *ShiftTable) error {
		n := len(t.Slews) * len(t.Loads) * entryLen
		if off+n > len(vals) {
			return fmt.Errorf("holds %d values, fewer than the base's tables", len(vals))
		}
		v := vals[off : off+n : off+n]
		for i, row := range t.Values {
			for j, b := range row {
				if k := (i*len(t.Loads) + j) * entryLen; math.Float64bits(v[k]) != math.Float64bits(b) {
					return fmt.Errorf("base value %v at [%d][%d] of a table, not the base library's %v", v[k], i, j, b)
				}
			}
		}
		*st = ShiftTable{slews: t.Slews, loads: t.Loads, v: v}
		off += n
		return nil
	})
	if err == nil && off != len(vals) {
		err = fmt.Errorf("holds %d values, more than the base's %d", len(vals), off)
	}
	if err != nil {
		return nil, fmt.Errorf("liberty: shift file around %s: %w", base.Name, err)
	}
	return shifts, nil
}

// walkShifts calls fn on every table of base and its shift table in
// shifts, in the shift file's order.
func walkShifts(base *Library, shifts map[string][]ArcShift, fn func(t *Table, st *ShiftTable) error) error {
	for _, name := range base.CellNames() {
		ct, sh := base.Cells[name], shifts[name]
		if len(sh) != len(ct.Arcs) {
			return fmt.Errorf("cell %s: %d shifted arcs for %d arcs", name, len(sh), len(ct.Arcs))
		}
		for ai := range ct.Arcs {
			a, s := &ct.Arcs[ai], &sh[ai]
			for e := Rise; e <= Fall; e++ {
				for _, p := range [...]struct {
					t  *Table
					st *ShiftTable
				}{{a.Delay[e], &s.Delay[e]}, {a.OutSlew[e], &s.OutSlew[e]}} {
					if p.t == nil {
						continue
					}
					if err := fn(p.t, p.st); err != nil {
						return fmt.Errorf("cell %s arc %d %s: %w", name, ai, e, err)
					}
				}
			}
		}
	}
	return nil
}
