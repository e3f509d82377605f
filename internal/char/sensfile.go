package char

import (
	"fmt"
	"io"
	"io/fs"
	"os"

	"ageguard/internal/aging"
	"ageguard/internal/atomicfile"
	"ageguard/internal/liberty"
)

// Sensitivity files keep a scenario's interleaved tables on disk in
// their in-memory layout (liberty.EncodeShifts: the exact bits of every
// value), so a Monte Carlo fill reads one file per scenario instead of
// loading four perturbed libraries and interleaving them again. A file
// is derived data: the perturbed-library path rebuilds it whenever it is
// missing or rejected, so no answer depends on it.

// sensVersion names the sensitivities a file holds: the
// finite-difference steps (sensSteps, sensStepSize) and the parameter
// order. Sensitivity file names carry it, so a file taken with other
// steps is never read. Bump it with every change to them;
// TestSensVersionPinsSteps fails on such a change until it is re-recorded
// with the bump.
const sensVersion = 1

// sensExt is the extension of sensitivity files.
const sensExt = ".asens"

// sensPath names the sensitivity file of scenario s: its cacheStem,
// sensVersion and sensExt. No library listing (CacheEntries, and so the
// warm start) matches it.
func (cfg Config) sensPath(s aging.Scenario) string {
	return fmt.Sprintf("%s_sens%d%s", cfg.cacheStem(s), sensVersion, sensExt)
}

// VerifySensitivityFile checks one sensitivity file without a base
// library: its magic and format version, its value count and its
// trailing fnv64a checksum (liberty.VerifyShifts). Every integrity
// failure wraps ErrCacheCorrupt; a missing file wraps fs.ErrNotExist. It
// is the integrity gate of the sensitivity loader, of ageguardd's
// scrubber and of the chaos suite's cache audit.
func VerifySensitivityFile(path string) error {
	_, err := readSensitivityFile(path)
	return err
}

// readSensitivityFile reads and verifies one sensitivity file.
func readSensitivityFile(path string) (liberty.ShiftFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return liberty.ShiftFile{}, err
	}
	f, err := liberty.VerifyShifts(data)
	if err != nil {
		return liberty.ShiftFile{}, fmt.Errorf("%w: %s: %v", ErrCacheCorrupt, path, err)
	}
	return f, nil
}

// loadSens reads the interleaved tables of s around base from its
// sensitivity file. A nil error means a usable hit. Misses wrap
// fs.ErrNotExist; a file that fails VerifySensitivityFile, or whose
// tables are not base's (another count, or a base value with other
// bits), wraps ErrCacheCorrupt.
func (cfg Config) loadSens(s aging.Scenario, base *liberty.Library) (map[string][]liberty.ArcShift, error) {
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("char: cache disabled: %w", fs.ErrNotExist)
	}
	path := cfg.sensPath(s)
	f, err := readSensitivityFile(path)
	if err != nil {
		return nil, err
	}
	arcs, err := f.Tables(base)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCacheCorrupt, path, err)
	}
	return arcs, nil
}

// storeSens writes the sensitivity file of sn, the sensitivities of s,
// atomically (atomicfile.Write).
func (cfg Config) storeSens(s aging.Scenario, sn *Sensitivity) error {
	if cfg.CacheDir == "" {
		return nil
	}
	path := cfg.sensPath(s)
	if cfg.CacheFault != nil {
		if err := cfg.CacheFault("sens.store", path); err != nil {
			return err
		}
	}
	data, err := liberty.EncodeShifts(sn.Base, sn.arcs)
	if err != nil {
		return err
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
