package char

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
)

// numericsFingerprint is the fnv64a of every table value
// TestNumericsFingerprint characterizes, recorded on amd64 at
// numericsVersion 1.
const numericsFingerprint = 0x0fdebbd626c85869

// TestNumericsFingerprint pins the characterization numerics bit for bit:
// INV_X1, NAND2_X1 and DFF_X1 characterized on TestConfig without a
// cache, fresh and worst case, hash to the recorded value. Cache file
// names carry numericsVersion (through Config.Hash) but not the numerics
// themselves, so a change that moves any table value must bump the
// version, or caches written before it are read back as its results.
// The recorded value holds on amd64 only: the Go spec lets the compiler
// fuse multiply-adds, and gc does so on arm64.
func TestNumericsFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprint recorded on amd64; gc fuses multiply-adds on %s, which changes the last bits", runtime.GOARCH)
	}
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1", "NAND2_X1", "DFF_X1"}
	h := fnv.New64a()
	var buf [8]byte
	values := 0
	for _, s := range []aging.Scenario{aging.Fresh(), aging.WorstCase(10)} {
		lib, err := cfg.Characterize(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range slices.Sorted(maps.Keys(lib.Cells)) {
			for _, arc := range lib.Cells[name].Arcs {
				for e := liberty.Rise; e <= liberty.Fall; e++ {
					for _, tb := range []*liberty.Table{arc.Delay[e], arc.OutSlew[e]} {
						if tb == nil {
							continue
						}
						for _, row := range tb.Values {
							for _, v := range row {
								binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
								h.Write(buf[:])
								values++
							}
						}
					}
				}
			}
		}
	}
	// Two scenarios × (INV_X1's 1 arc + NAND2_X1's 2 + DFF_X1's clock
	// arc) × 2 edges × delay and slew tables × 3×3 points.
	if values != 2*4*2*2*9 {
		t.Fatalf("hashed %d table values, want %d", values, 2*4*2*2*9)
	}
	if got := h.Sum64(); got != numericsFingerprint {
		t.Fatalf("characterization numerics changed: bump char's numerics version (fingerprint %#016x, recorded %#016x)", got, numericsFingerprint)
	}
}
