package sta

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ageguard/internal/cells"
	"ageguard/internal/char"
	"ageguard/internal/liberty"
	"ageguard/internal/units"
)

// timingFingerprint is the fnv64a of every number TestTimingFingerprint
// times, recorded on amd64 with every fixture table carrying all four
// sensitivities, before the plain and shifted lookups shared one
// evaluator, which left it unchanged.
const timingFingerprint = 0x978db0deb8c8012b

// synthLibrary returns a library of every catalog cell with its real pins
// and arcs over a 7×7 grid, but with drawn table values and pin
// capacitances, so the timing numerics can be pinned without depending on
// char's. Entries grow with slew and load and shrink with drive, like
// characterized ones; scale stands in for aging.
func synthLibrary(rng *rand.Rand, name string, scale float64) *liberty.Library {
	slews := char.LogAxis(5*units.Ps, 947*units.Ps, 7)
	loads := char.LogAxis(0.5*units.FF, 20*units.FF, 7)
	table := func(base float64, drive int) *liberty.Table {
		t := liberty.NewTable(slews, loads)
		for i, row := range t.Values {
			for j := range row {
				row[j] = scale * base * (1 + 0.4*float64(i) + 0.9*float64(j)/float64(drive)) * (0.9 + 0.2*rng.Float64())
			}
		}
		return t
	}
	lib := &liberty.Library{Name: name, Vdd: 1.1, Slews: slews, Loads: loads, Cells: map[string]*liberty.CellTiming{}}
	for _, c := range cells.All() {
		ct := &liberty.CellTiming{
			Name: c.Name, Base: c.Base, Drive: c.Drive, Inputs: c.Inputs, Output: c.Output,
			PinCap: map[string]float64{},
		}
		for _, p := range c.Inputs {
			ct.PinCap[p] = float64(c.Drive) * (0.8 + 0.6*rng.Float64()) * units.FF
		}
		arc := func(pin string, sense liberty.Sense, when uint) liberty.Arc {
			return liberty.Arc{Pin: pin, Sense: sense, When: when,
				Delay:   [2]*liberty.Table{table(12*units.Ps, c.Drive), table(10*units.Ps, c.Drive)},
				OutSlew: [2]*liberty.Table{table(9*units.Ps, c.Drive), table(8*units.Ps, c.Drive)}}
		}
		if c.Seq {
			ct.Seq, ct.Clock, ct.Data, ct.SetupPS = true, c.Clock, c.Data, 30*units.Ps
			ct.Arcs = []liberty.Arc{arc(c.Clock, liberty.PositiveUnate, 0)}
		} else {
			for _, spec := range char.DiscoverArcs(c) {
				ct.Arcs = append(ct.Arcs, arc(spec.Pin, spec.Sense, spec.When))
			}
		}
		lib.Cells[c.Name] = ct
	}
	return lib
}

// TestTimingFingerprint pins the timing numerics bit for bit: on three
// random 400-gate netlists under two drawn libraries (each prepared by
// newDeltaFixture), the critical path (BatchTimer.CP), every
// endpoint-edge's traced path (TopPaths, each step's delay and arrival)
// and eight Monte Carlo samples (DeltaBinding.CP, including draws that
// hit the zero floor) hash to the recorded value. A change in how a
// lookup interpolates, shifts or sums moves it. The recorded value holds
// on amd64 only: the Go spec lets the compiler fuse multiply-adds, and
// gc does so on arm64.
func TestTimingFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprint recorded on amd64; gc fuses multiply-adds on %s, which changes the last bits", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(24))
	var fxs []deltaFixture
	for i, scale := range []float64{1, 1.15} {
		fxs = append(fxs, newDeltaFixture(rng, synthLibrary(rng, fmt.Sprintf("synth%d", i), scale)))
	}
	ctx := context.Background()
	h := fnv.New64a()
	values := 0
	for range 3 {
		nl := randNetlist(rng, 400)
		bt, err := NewBatchTimer(ctx, nl, fxs[0].lib, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ws := make([][]liberty.DeltaWeights, 8)
		for i := range ws {
			ws[i] = sampleWeights(rng, len(nl.Insts))
		}
		for _, fx := range fxs {
			cp, err := bt.CP(ctx, fx.lib)
			if err != nil {
				t.Fatal(err)
			}
			hashFloat(h, cp)
			values++
			paths, err := bt.TopPaths(ctx, fx.lib, math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				hashFloat(h, p.Delay)
				values++
				for _, s := range p.Steps {
					hashFloat(h, s.Delay)
					hashFloat(h, s.Arrival)
					values += 2
				}
			}
			db, err := bt.BindDeltas(fx.lib, fx.shifts)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range ws {
				cp, err := db.CP(ctx, w)
				if err != nil {
					t.Fatal(err)
				}
				hashFloat(h, cp)
				values++
			}
		}
	}
	if got := h.Sum64(); got != timingFingerprint {
		t.Fatalf("timing numerics changed: %d values hash to %#016x, recorded %#016x", values, got, uint64(timingFingerprint))
	}
}

// hashFloat writes the bits of v to h.
func hashFloat(h hash.Hash64, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}
