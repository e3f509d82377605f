package char

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"ageguard/internal/atomicfile"
	"ageguard/internal/liberty"
)

// RepoCacheDir returns the repository-local library cache directory
// (<repo>/.libcache), resolved relative to this source file. Experiments,
// benchmarks and tests share it so each aging scenario is characterized at
// most once per checkout; it is safe to delete at any time.
func RepoCacheDir() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return ".libcache"
	}
	return filepath.Join(filepath.Dir(file), "..", "..", ".libcache")
}

// CachedConfig is DefaultConfig with the repository cache enabled — the
// configuration the experiment drivers use.
func CachedConfig() Config {
	cfg := DefaultConfig()
	cfg.CacheDir = RepoCacheDir()
	return cfg
}

// VerifyCacheFile loads one on-disk library entry or checkpoint shard
// end to end: it reads the whole file under its seal (readSealed) and
// parses the library. Every integrity failure — a broken seal (any
// flipped byte, any truncation) or an unparseable body — wraps
// ErrCacheCorrupt; a missing file wraps fs.ErrNotExist. It is the
// integrity gate of the characterization cache loader and of ageguardd's
// warm-start scan.
func VerifyCacheFile(path string) (*liberty.Library, error) {
	body, err := readSealed(path)
	if err != nil {
		return nil, err
	}
	lib, err := liberty.Parse(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCacheCorrupt, path, err)
	}
	return lib, nil
}

// readSealed reads a cache file and returns its bytes before the seal
// (atomicfile.ReadSealed). A broken seal wraps ErrCacheCorrupt.
func readSealed(path string) ([]byte, error) {
	body, err := atomicfile.ReadSealed(path)
	if errors.Is(err, atomicfile.ErrCorrupt) {
		err = fmt.Errorf("%w: %w", ErrCacheCorrupt, err)
	}
	return body, err
}

// CacheEntries lists the .alib files of cfg.CacheDir that were written
// under this configuration — one per characterized aging scenario, any
// lifetime — sorted by name. The name decides, before any file is read:
// it must end in this configuration's cacheTail, after the "_s<exact
// key>" segment of a current cache stem. Files written under other
// configurations, entries named before the exact key (which no load
// reads by name any more) and non-library files (netlists, checkpoints,
// sensitivity files, quarantined entries) are excluded. An empty
// CacheDir lists nothing.
func (cfg Config) CacheEntries() ([]string, error) {
	if cfg.CacheDir == "" {
		return nil, nil
	}
	tail := cfg.cacheTail() + ".alib"
	ents, err := os.ReadDir(cfg.CacheDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		stem, ok := strings.CutSuffix(e.Name(), tail)
		if !e.Type().IsRegular() || !ok || !endsInExactKey(stem) {
			continue
		}
		out = append(out, filepath.Join(cfg.CacheDir, e.Name()))
	}
	return out, nil
}

// endsInExactKey reports whether a cache file name, cut before its
// cacheTail, ends in "_s" and an aging.Scenario.ExactKey: one lowercase
// hex field of at most 16 digits per scenario field, joined by '_'.
func endsInExactKey(stem string) bool {
	i := strings.LastIndex(stem, "_s")
	if i < 0 {
		return false
	}
	fields := strings.Split(stem[i+2:], "_")
	if len(fields) != 5 {
		return false
	}
	for _, f := range fields {
		if f == "" || len(f) > 16 || strings.Trim(f, "0123456789abcdef") != "" {
			return false
		}
	}
	return true
}

// CacheFiles lists every library entry (.alib), sensitivity file and
// netlist (.netl) of dir regardless of the configuration that wrote it,
// sorted by name: the scrubber's view. Every file it lists is sealed
// (atomicfile.WriteSealed), so a file whose bytes changed after they
// were written fails atomicfile.ReadSealed, whichever config or kind.
func CacheFiles(dir string) ([]string, error) {
	if dir == "" {
		return nil, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		n := e.Name()
		if ext := filepath.Ext(n); e.Type().IsRegular() && (ext == ".alib" || ext == sensExt || ext == ".netl") {
			out = append(out, filepath.Join(dir, n))
		}
	}
	return out, nil
}
