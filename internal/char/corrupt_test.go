package char

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
)

// TestTruncatedCacheDetected truncates a valid .alib cache entry at every
// byte boundary and asserts that every proper prefix, the one missing
// only the final newline included, reports ErrCacheCorrupt: the seal
// must be the file's last line, whole. A final round-trip verifies a
// truncated entry is rebuilt atomically.
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
	if lastLine := string(full[endlibEnd+len("ENDLIB\n"):]); !strings.HasPrefix(lastLine, "#SUM fnv64a ") {
		t.Fatalf("cache entry does not end with its seal (got %q)", lastLine)
	}

	for n := range len(full) {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := cfg.loadCache(s); !errors.Is(err, ErrCacheCorrupt) {
			t.Fatalf("truncation at byte %d/%d: got %v, want ErrCacheCorrupt", n, len(full), err)
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

// TestCacheChecksumRequired: a cache entry whose seal is missing or has
// a damaged #SUM marker is corrupt, not a legacy file, even though its
// library data is intact: one flipped marker byte would otherwise switch
// off the seal for the life of the file. Characterize counts it under
// char.cache.corrupt and rebuilds a byte-identical entry.
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

// summedFormat is the format every library cache entry and checkpoint
// shard has been written in, spelled out independently of the writer:
// liberty.Write's bytes, then "#SUM fnv64a", their fnv64a as 16 lowercase
// hex digits and a newline.
func summedFormat(t *testing.T, lib *liberty.Library) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := liberty.Write(&buf, lib); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	fmt.Fprintf(&buf, "#SUM fnv64a %016x\n", h.Sum64())
	return buf.Bytes()
}

// TestSealedCacheFilesKeepTheirFormat: a library entry and a checkpoint
// shard are written byte for byte in the format cache files have always
// had (summedFormat), so a cache directory written before the seal moved
// into atomicfile loads without re-characterization, and one written now
// loads in older builds.
func TestSealedCacheFilesKeepTheirFormat(t *testing.T) {
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = t.TempDir()
	s := aging.WorstCase(10)
	lib, err := cfg.Characterize(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.storeCellCkpt(s, lib.MustCell("INV_X1")); err != nil {
		t.Fatal(err)
	}
	shard, err := VerifyCacheFile(cfg.ckptPath(s, "INV_X1"))
	if err != nil {
		t.Fatal(err)
	}
	for path, lib := range map[string]*liberty.Library{cfg.cachePath(s): lib, cfg.ckptPath(s, "INV_X1"): shard} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := summedFormat(t, lib); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes ending in %q, want %d bytes ending in %q",
				filepath.Base(path), len(got), got[max(0, len(got)-29):], len(want), want[len(want)-29:])
		}
	}
}
