package char

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/obs"
)

// TestTruncatedCacheDetected truncates a valid .alib cache entry at every
// byte boundary and asserts no truncation that loses library data loads
// successfully. Prefixes cut before the ENDLIB terminator lost data and
// must report ErrCacheCorrupt (the serializer's mandatory terminator
// makes this exhaustive). Prefixes cut inside the trailing checksum line
// hold the complete library: they must either load (marker gone, data
// whole) or report corrupt (marker present, digest unverifiable) — never
// anything else. A final round-trip verifies a truncated entry is
// rebuilt atomically.
func TestTruncatedCacheDetected(t *testing.T) {
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = dir
	s := aging.WorstCase(10)
	if _, err := cfg.Characterize(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	path := cfg.cachePath(s)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	endlibEnd := strings.Index(string(full), "ENDLIB\n")
	if endlibEnd < 0 {
		t.Fatalf("unexpected cache serialization (%d bytes): no ENDLIB", len(full))
	}
	endlibEnd += len("ENDLIB\n")
	lastLine := string(full[endlibEnd:])
	if !strings.HasPrefix(lastLine, "#SUM fnv64a ") {
		t.Fatalf("cache entry does not end with a checksum line (got %q)", lastLine)
	}

	for n := 0; n < len(full)-1; n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, lerr := cfg.loadCache(s)
		// n == endlibEnd-1 keeps "ENDLIB" and drops only its newline: the
		// scanner still yields the final line, so the data is complete.
		if n < endlibEnd-1 {
			// Library data is missing: must be corrupt.
			if !errors.Is(lerr, ErrCacheCorrupt) {
				t.Fatalf("truncation at byte %d/%d: got %v, want ErrCacheCorrupt", n, len(full), lerr)
			}
		} else if lerr != nil && !errors.Is(lerr, ErrCacheCorrupt) {
			// Cut inside the checksum line: the library is complete, so a
			// load is acceptable, as is corrupt — but nothing else.
			t.Fatalf("checksum-line truncation at byte %d/%d: got %v", n, len(full), lerr)
		}
	}

	// Rebuild cycle: a truncated entry is replaced atomically; afterwards
	// the cache loads cleanly and no temp files remain.
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), reg)
	if _, err := cfg.Characterize(ctx, s); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("char.cache.corrupt").Value(); n != 1 {
		t.Errorf("char.cache.corrupt = %d, want 1", n)
	}
	rebuilt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(rebuilt) != string(full) {
		t.Error("rebuilt cache entry differs from the original serialization")
	}
	if _, err := cfg.loadCache(s); err != nil {
		t.Errorf("cache entry unreadable after rebuild: %v", err)
	}
	for _, e := range mustReadDir(t, dir) {
		if strings.Contains(e, ".tmp") {
			t.Errorf("stray temp file %s after rebuild", e)
		}
	}
}

// TestCacheChecksumRequired: a cache entry whose #SUM marker is damaged
// or missing is corrupt, not a legacy file, even though its library
// data is intact: one flipped marker byte would otherwise switch off
// checksum protection for the life of the file. Characterize counts it
// under char.cache.corrupt and rebuilds a byte-identical entry.
func TestCacheChecksumRequired(t *testing.T) {
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = dir
	s := aging.WorstCase(10)
	if _, err := cfg.Characterize(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	path := cfg.cachePath(s)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	marker := strings.LastIndex(string(full), "\n#SUM fnv64a ") + 1
	if marker == 0 {
		t.Fatal("cache entry has no checksum line")
	}
	damaged := map[string][]byte{"no checksum line": full[:marker]}
	for i := marker; i < marker+len("#SUM fnv64a "); i++ {
		b := append([]byte(nil), full...)
		b[i] ^= 0x04
		damaged[fmt.Sprintf("marker byte %d flipped", i-marker)] = b
	}
	for name, b := range damaged {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := cfg.loadCache(s); !errors.Is(err, ErrCacheCorrupt) {
			t.Errorf("%s: loadCache = %v, want ErrCacheCorrupt", name, err)
		}
	}

	if err := os.WriteFile(path, damaged["marker byte 1 flipped"], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := cfg.Characterize(obs.With(context.Background(), reg), s); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("char.cache.corrupt").Value(); n != 1 {
		t.Errorf("char.cache.corrupt = %d, want 1", n)
	}
	rebuilt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(rebuilt) != string(full) {
		t.Error("rebuilt cache entry differs from the original serialization")
	}
}
