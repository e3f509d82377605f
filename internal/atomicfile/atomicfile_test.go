package atomicfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteCreatesFileAndDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "out.txt")
	if err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp*"))
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestWriteFailureLeavesNothing: a write that fails part-way leaves
// neither the file nor a temp file, and an existing file keeps its old
// contents.
func TestWriteFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	fail := func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	}
	fresh := filepath.Join(dir, "fresh.alib")
	if err := Write(fresh, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed write left %s behind (stat err %v)", fresh, err)
	}

	old := filepath.Join(dir, "old.alib")
	if err := os.WriteFile(old, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(old, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got, _ := os.ReadFile(old); string(got) != "old" {
		t.Errorf("failed write changed the existing file to %q", got)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "old.alib" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only old.alib", names)
	}
}

// alibBody is a small library in the .alib text format, a body like the
// library entries and checkpoint shards the characterization cache seals.
const alibBody = `LIBRARY test
SCENARIO 10 398.15 1.1 1 1
VDD 1.1
SLEWS 5e-12 5e-11
LOADS 5e-16 2e-15
CELL INV_X1 INV 1 0.5
OUTPUT ZN
INPUTS A
PINCAP A 1e-15
ARC A negative_unate 0
TABLE delay rise
1e-11 1.2e-11
1.1e-11 1.3e-11
TABLE slew rise
8e-12 1e-11
9e-12 1.1e-11
TABLE delay fall
1.2e-11 1.4e-11
1.3e-11 1.5e-11
TABLE slew fall
9e-12 1.1e-11
1e-11 1.2e-11
ENDCELL
ENDLIB
`

// shiftBody is a small shift file, a binary body like the sensitivity
// files the Monte Carlo fill seals: magic and format version, a value
// count and the values' IEEE-754 bits, little-endian.
func shiftBody() []byte {
	vals := []float64{1e-11, 0.5, -0.25, math.Copysign(0, -1), 3e-12, math.Inf(1), 1e-300, -7}
	b := append([]byte("AGSHIFT"), 2)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(vals)))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// sealBodies are the bodies the seal tests cover.
func sealBodies() map[string][]byte {
	return map[string][]byte{"alib": []byte(alibBody), "shift file": shiftBody(), "empty": nil}
}

// sealed returns body followed by its seal.
func sealed(t *testing.T, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Seal(&buf, func(w io.Writer) error { _, err := w.Write(body); return err }); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSealRoundTrip: a sealed file is its body and one seal line, the
// line every library cache entry has always ended in, and ReadSealed
// returns the body. A missing file is not corrupt.
func TestSealRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, body := range sealBodies() {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
		if err := WriteSealed(path, func(w io.Writer) error { _, err := w.Write(body); return err }); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(body)
		if want := fmt.Sprintf("%s#SUM fnv64a %016x\n", body, h.Sum64()); string(data) != want {
			t.Errorf("%s: sealed file %q, want %q", name, data, want)
		}
		got, err := ReadSealed(path)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("%s: ReadSealed = %q, %v; want the body", name, got, err)
		}
	}
	// The fnv64a of no bytes is its offset basis.
	if got := string(sealed(t, nil)); got != "#SUM fnv64a cbf29ce484222325\n" {
		t.Errorf("seal of an empty body = %q", got)
	}
	_, err := ReadSealed(filepath.Join(dir, "missing"))
	if !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCorrupt) {
		t.Errorf("missing file: %v, want fs.ErrNotExist and not ErrCorrupt", err)
	}
}

// TestSealCorruptEveryByteFlip: flipping any bit pattern of any single
// byte of a sealed file, in the body or in the seal, breaks the seal,
// for a text and a binary body. In the body it must: fnv64a maps bytes
// that differ in one position to different sums. ReadSealed reports it.
func TestSealCorruptEveryByteFlip(t *testing.T) {
	for name, body := range sealBodies() {
		data := sealed(t, body)
		for i := range data {
			for _, mask := range []byte{0x01, 0x04, 0x20, 0x80, 0xff} {
				mut := bytes.Clone(data)
				mut[i] ^= mask
				if _, err := unseal(mut); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: byte %d of %d flipped by %#x: %v, want ErrCorrupt", name, i, len(data), mask, err)
				}
			}
		}
		path := filepath.Join(t.TempDir(), "flipped")
		mut := bytes.Clone(data)
		mut[len(mut)/2] ^= 0x01
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSealed(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadSealed of a flipped file: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestSealCorruptEveryTruncation: every proper prefix of a sealed file
// breaks the seal, the one without only the final newline included, for
// a text and a binary body; so does a byte appended after the seal.
func TestSealCorruptEveryTruncation(t *testing.T) {
	for name, body := range sealBodies() {
		data := sealed(t, body)
		for n := range len(data) {
			if _, err := unseal(data[:n]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: prefix of %d of %d bytes: %v, want ErrCorrupt", name, n, len(data), err)
			}
		}
		if _, err := unseal(append(bytes.Clone(data), '\n')); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: a byte after the seal: %v, want ErrCorrupt", name, err)
		}
	}
}
