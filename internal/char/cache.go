package char

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

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

// VerifyCacheFile loads one on-disk .alib entry end to end: it reads
// the whole file, verifies its trailing fnv64a checksum and parses the
// library. The checksum is mandatory: every entry under a current
// config hash was written by liberty.WriteSummed, so a file whose #SUM
// line is missing or whose marker is damaged is corrupt, not legacy.
// Every integrity failure — a missing or bad checksum, a truncation, an
// unparseable body — wraps ErrCacheCorrupt; a missing file wraps
// fs.ErrNotExist. It is the shared integrity gate of the
// characterization cache loader and of ageguardd's warm-start scan and
// background scrubber.
func VerifyCacheFile(path string) (*liberty.Library, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	summed, err := liberty.VerifySummed(data)
	if err == nil && !summed {
		err = errors.New("no checksum line")
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCacheCorrupt, path, err)
	}
	lib, err := liberty.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCacheCorrupt, path, err)
	}
	return lib, nil
}

// CacheEntries lists the .alib files of cfg.CacheDir that were written
// under this configuration's hash — one per characterized aging
// scenario, any lifetime — sorted by name. Files written under other
// configurations (and non-library files: netlists, checkpoints,
// quarantined entries) are excluded. An empty CacheDir lists nothing.
func (cfg Config) CacheEntries() ([]string, error) {
	if cfg.CacheDir == "" {
		return nil, nil
	}
	suffix := fmt.Sprintf("_h%016x.alib", cfg.Hash())
	ents, err := os.ReadDir(cfg.CacheDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		out = append(out, filepath.Join(cfg.CacheDir, e.Name()))
	}
	return out, nil
}

// CacheLibraries lists every .alib file of dir regardless of the
// configuration that wrote it — the scrubber's view, which re-verifies
// whatever is on disk, not only entries the current config would load.
func CacheLibraries(dir string) ([]string, error) {
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
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), ".alib") {
			continue
		}
		out = append(out, filepath.Join(dir, e.Name()))
	}
	return out, nil
}
