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

// CacheFiles lists every library entry (.alib) and sensitivity file of
// dir regardless of the configuration that wrote it, sorted by name —
// the scrubber's view, which re-verifies whatever is on disk
// (VerifyFile), not only files the current config would load.
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
		if !e.Type().IsRegular() || !strings.HasSuffix(n, ".alib") && !strings.HasSuffix(n, sensExt) {
			continue
		}
		out = append(out, filepath.Join(dir, n))
	}
	return out, nil
}

// VerifyFile checks one file CacheFiles lists through the integrity gate
// of its kind: VerifySensitivityFile for a sensitivity file,
// VerifyCacheFile for a library entry. Every integrity failure wraps
// ErrCacheCorrupt.
func VerifyFile(path string) error {
	if strings.HasSuffix(path, sensExt) {
		return VerifySensitivityFile(path)
	}
	_, err := VerifyCacheFile(path)
	return err
}
