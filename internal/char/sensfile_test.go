package char

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"os"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/atomicfile"
	"ageguard/internal/device"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
)

// encodeSens returns the shift file bytes of sn: the exact bits of every
// interleaved value, in the file's order.
func encodeSens(t *testing.T, sn *Sensitivity) []byte {
	t.Helper()
	data, err := liberty.EncodeShifts(sn.Base, sn.arcs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSensitivityFileExactBits: the tables a sensitivity file holds equal
// the ones the perturbed libraries build, in every value's bits, for the
// fresh and the worst-case scenario of the full cell set on TestConfig's
// grid. The libraries come from the repository cache; the file goes to
// a temporary directory.
func TestSensitivityFileExactBits(t *testing.T) {
	cfg := TestConfig()
	cfg.CacheDir = RepoCacheDir()
	ctx := context.Background()
	for _, s := range []aging.Scenario{aging.Fresh(), aging.WorstCase(10)} {
		base, err := cfg.Characterize(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		built, _, err := cfg.perturbed(ctx, s, base)
		if err != nil {
			t.Fatal(err)
		}
		file := cfg
		file.CacheDir = t.TempDir()
		if err := file.storeSens(s, built); err != nil {
			t.Fatal(err)
		}
		arcs, err := file.loadSens(s, base)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeSens(t, built)
		if got := encodeSens(t, &Sensitivity{Base: base, arcs: arcs}); !bytes.Equal(got, want) {
			t.Errorf("%s: the loaded tables differ from the built ones", s)
		}
		if n := len(want) / 8; n < len(base.Cells)*len(cfg.Slews)*len(cfg.Loads)*(1+numSensParams) {
			t.Errorf("%s: %d values for %d cells", s, n, len(base.Cells))
		}
	}
}

// TestSensitivityFileCorruptRebuilt: a sensitivity file that is
// truncated, has a flipped byte, has another format version (under a
// right seal), is in format version 1 (its own binary checksum, no seal)
// or was taken around another base (the fresh scenario's file under the
// worst case's name) is rejected. The fill counts char.sens.corrupt and
// a miss, builds the tables from the perturbed libraries and replaces
// the file with the bytes it had.
func TestSensitivityFileCorruptRebuilt(t *testing.T) {
	cfg := sensConfig(t)
	ctx := context.Background()
	s := aging.WorstCase(10)
	base, err := cfg.Characterize(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.SensitivitiesAround(ctx, s, base); err != nil {
		t.Fatal(err)
	}
	path := cfg.sensPath(s)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Sensitivities(ctx, aging.Fresh()); err != nil {
		t.Fatal(err)
	}
	otherBase, err := os.ReadFile(cfg.sensPath(aging.Fresh()))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x01
	body, err := atomicfile.ReadSealed(path)
	if err != nil {
		t.Fatal(err)
	}
	version := bytes.Clone(body)
	version[len("AGSHIFT")]++ // the format version byte after the magic
	sealed := func(b []byte) []byte {
		var buf bytes.Buffer
		if err := atomicfile.Seal(&buf, func(w io.Writer) error { _, err := w.Write(b); return err }); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v1 := bytes.Clone(body)
	v1[len("AGSHIFT")] = 1
	h := fnv.New64a()
	h.Write(v1)
	v1 = binary.LittleEndian.AppendUint64(v1, h.Sum64())

	for _, c := range []struct {
		name string
		data []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"bit-flipped", flipped},
		{"wrong version", sealed(version)},
		{"format version 1", v1},
		{"other base", otherBase},
	} {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := cfg.loadSens(s, base); !errors.Is(err, ErrCacheCorrupt) {
			t.Errorf("%s: load = %v, want ErrCacheCorrupt", c.name, err)
		}
		reg := obs.NewRegistry()
		if _, err := cfg.SensitivitiesAround(obs.With(ctx, reg), s, base); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for name, want := range map[string]int64{"char.sens.corrupt": 1, "char.sens.misses": 1, "char.sens.hits": 0} {
			if n := reg.Counter(name).Value(); n != want {
				t.Errorf("%s: %s = %d, want %d", c.name, name, n, want)
			}
		}
		if rebuilt, err := os.ReadFile(path); err != nil || !bytes.Equal(rebuilt, good) {
			t.Errorf("%s: the file was not replaced by the bytes it had (%v)", c.name, err)
		}
	}
}

// TestSensitivityFileSkippedWhenSalvaged: no sensitivity file is written
// while a perturbed library has salvaged points, so a Strict run can
// trust every file. A Strict fill refuses the salvaged perturbed
// entries, characterizes them again without salvage and writes it.
func TestSensitivityFileSkippedWhenSalvaged(t *testing.T) {
	cfg := faultConfig()
	cfg.CacheDir = t.TempDir()
	ctx := context.Background()
	s := aging.WorstCase(10)
	base, err := cfg.Characterize(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	faulty := cfg
	faulty.FaultInject = failAt(Point{Edge: liberty.Rise, I: 0, J: 0})
	reg := obs.NewRegistry()
	if _, err := faulty.SensitivitiesAround(obs.With(ctx, reg), s, base); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("char.salvaged").Value(); n != numSensParams {
		t.Fatalf("char.salvaged = %d, want one point per perturbed library", n)
	}
	path := cfg.sensPath(s)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a sensitivity file was written around salvaged libraries (%v)", err)
	}
	if _, err := cfg.SensitivitiesAround(ctx, s, base); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a sensitivity file was written around salvaged cache entries (%v)", err)
	}
	strict := cfg
	strict.Strict = true
	if _, err := strict.SensitivitiesAround(ctx, s, base); err != nil {
		t.Fatal(err)
	}
	if _, err := strict.loadSens(s, base); err != nil {
		t.Fatalf("no sensitivity file after a Strict fill: %v", err)
	}
}

// TestSensStoreFaultNonFatal: a failed sensitivity-file write costs only
// the next fill's time; the fill still answers, and the failure is
// counted under char.sens.store.errors.
func TestSensStoreFaultNonFatal(t *testing.T) {
	cfg := sensConfig(t)
	cfg.CacheFault = func(op, path string) error {
		if op == "sens.store" {
			return errors.New("injected: sensitivity file write failed")
		}
		return nil
	}
	reg := obs.NewRegistry()
	s := aging.WorstCase(10)
	if _, err := cfg.Sensitivities(obs.With(context.Background(), reg), s); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("char.sens.store.errors").Value(); n != 1 {
		t.Errorf("char.sens.store.errors = %d, want 1", n)
	}
	if _, err := os.Stat(cfg.sensPath(s)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a sensitivity file exists after its write failed (%v)", err)
	}
}

// TestSensVersionPinsSteps: sensitivity file names carry sensVersion
// because the files hold sensitivities taken with these steps. A change
// of the steps fails here until sensVersion is bumped and this test
// re-recorded with it, so no file of the old steps is read.
func TestSensVersionPinsSteps(t *testing.T) {
	const version = 1
	steps := [numSensParams]device.Perturb{{DVthP: 0.01}, {DVthN: 0.01}, {DMuP: -0.05}, {DMuN: -0.05}}
	size := [numSensParams]float64{0.01, 0.01, -0.05, -0.05}
	if sensVersion != version || sensSteps != steps || sensStepSize != size {
		t.Fatalf("sensitivity steps changed (version %d, steps %v, sizes %v): bump char's sensVersion and re-record this test",
			sensVersion, sensSteps, sensStepSize)
	}
}
