package liberty

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// shiftFixture returns a small base library and its shift tables:
// testLibrary with one arc edge that has no output-slew table and one
// base value of −0, interleaved with four randomly scaled copies of
// every table.
func shiftFixture() (*Library, map[string][]ArcShift) {
	base := testLibrary()
	base.Cells["DFF_X1"].Arcs[0].OutSlew[Fall] = nil
	base.Cells["NAND2_X1"].Arcs[1].Delay[Rise].Values[0][1] = math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(1))
	step := [NumDeltaParams]float64{0.01, 0.01, -0.05, -0.05}
	interleave := func(t *Table) ShiftTable {
		var pert [NumDeltaParams]*Table
		for p := range pert {
			if t != nil {
				pert[p] = t.Scale(1 + 0.1*rng.NormFloat64())
			}
		}
		return t.Interleave(pert, step)
	}
	shifts := map[string][]ArcShift{}
	for _, name := range base.CellNames() {
		ct := base.Cells[name]
		sh := make([]ArcShift, len(ct.Arcs))
		for ai, a := range ct.Arcs {
			for e := Rise; e <= Fall; e++ {
				sh[ai].Delay[e] = interleave(a.Delay[e])
				sh[ai].OutSlew[e] = interleave(a.OutSlew[e])
			}
		}
		shifts[name] = sh
	}
	return base, shifts
}

// decodeShifts is a load: VerifyShifts, then Tables around base.
func decodeShifts(data []byte, base *Library) (map[string][]ArcShift, error) {
	f, err := VerifyShifts(data)
	if err != nil {
		return nil, err
	}
	return f.Tables(base)
}

// TestShiftFileRoundTrip: a shift file decodes to the tables it was
// encoded from, bit for bit (a −0 base value included), each on its
// base table's axes (the same slices, so located positions stay valid)
// and capped at its own length, and encodes again to the same bytes.
func TestShiftFileRoundTrip(t *testing.T) {
	base, shifts := shiftFixture()
	data, err := EncodeShifts(base, shifts)
	if err != nil {
		t.Fatal(err)
	}
	if want := shiftHeader + 8*shiftValues(base); len(data) != want {
		t.Fatalf("file of %d bytes, want %d", len(data), want)
	}
	got, err := decodeShifts(data, base)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffBits(reflect.ValueOf(got), reflect.ValueOf(shifts), "shifts"); d != "" {
		t.Fatalf("decoded tables differ at %s", d)
	}
	err = walkShifts(base, got, func(tb *Table, st *ShiftTable) error {
		if &st.slews[0] != &tb.Slews[0] || &st.loads[0] != &tb.Loads[0] {
			t.Error("a decoded table is not on its base table's axes")
		}
		if cap(st.v) != len(st.v) {
			t.Errorf("a decoded table of %d values has capacity %d", len(st.v), cap(st.v))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeShifts(base, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("decoded tables encode to other bytes")
	}
}

// TestShiftFileCorruptRejected: every truncation of a shift file fails
// VerifyShifts, and so does every flipped byte of its header, another
// format version among them. (A flipped value byte is the seal's to
// catch, atomicfile.) Tables rejects a file of another base: one with a
// base value of other bits, one with a table more and one with a table
// fewer.
func TestShiftFileCorruptRejected(t *testing.T) {
	base, shifts := shiftFixture()
	data, err := EncodeShifts(base, shifts)
	if err != nil {
		t.Fatal(err)
	}
	for n := range len(data) {
		if _, err := VerifyShifts(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes verified", n, len(data))
		}
	}
	for i := range shiftHeader {
		b := bytes.Clone(data)
		b[i] ^= 0x10
		if _, err := VerifyShifts(b); err == nil {
			t.Fatalf("header byte %d flipped verified", i)
		}
	}
	version := bytes.Clone(data)
	version[len(shiftMagic)]++
	if _, err := VerifyShifts(version); err == nil {
		t.Error("a file of another format version verified")
	}

	other := testLibrary()
	other.Cells["DFF_X1"].Arcs[0].OutSlew[Fall] = nil
	if _, err := decodeShifts(data, other); err == nil {
		t.Error("a file around a base value of other bits decoded")
	}
	fewer, _ := shiftFixture()
	fewer.Cells["NAND2_X1"].Arcs[0].OutSlew[Rise] = nil
	if _, err := decodeShifts(data, fewer); err == nil {
		t.Error("a file with a table more than its base decoded")
	}
	small, err := EncodeShifts(fewer, shifts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeShifts(small, base); err == nil {
		t.Error("a file with a table fewer than its base decoded")
	}
	if _, err := EncodeShifts(base, map[string][]ArcShift{"DFF_X1": shifts["DFF_X1"]}); err == nil {
		t.Error("shift tables without a cell of the base encoded")
	}
}

// FuzzSensitivityFile asserts the shift file loader's contract on
// arbitrary bytes decoded around a small base (shiftFixture): fail or
// decode, never panic, and any input that decodes encodes again to the
// same bytes.
func FuzzSensitivityFile(f *testing.F) {
	base, shifts := shiftFixture()
	data, err := EncodeShifts(base, shifts)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte{})
	f.Add(data[:shiftHeader])
	f.Add(data[:len(data)/2])
	f.Add(data[:len(data)-8])
	version := bytes.Clone(data)
	version[len(shiftMagic)]++
	f.Add(version)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeShifts(data, base)
		if err != nil {
			return
		}
		again, err := EncodeShifts(base, got)
		if err != nil {
			t.Fatalf("decoded tables failed to encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("decoded tables encode to other bytes")
		}
	})
}
