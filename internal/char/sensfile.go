package char

import (
	"fmt"
	"io"
	"io/fs"

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

// loadSens reads the interleaved tables of s around base from its
// sensitivity file. A nil error means a usable hit. Misses wrap
// fs.ErrNotExist; a file whose seal is broken, whose header fails
// liberty.VerifyShifts (magic, format version, value count) or whose
// tables are not base's (another count, or a base value with other bits)
// wraps ErrCacheCorrupt.
func (cfg Config) loadSens(s aging.Scenario, base *liberty.Library) (map[string][]liberty.ArcShift, error) {
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("char: cache disabled: %w", fs.ErrNotExist)
	}
	path := cfg.sensPath(s)
	body, err := readSealed(path)
	if err != nil {
		return nil, err
	}
	f, err := liberty.VerifyShifts(body)
	var arcs map[string][]liberty.ArcShift
	if err == nil {
		arcs, err = f.Tables(base)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCacheCorrupt, path, err)
	}
	return arcs, nil
}

// storeSens writes the sensitivity file of sn, the sensitivities of s,
// atomically and sealed (atomicfile.WriteSealed).
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
	return atomicfile.WriteSealed(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
