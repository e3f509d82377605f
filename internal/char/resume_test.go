package char

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
)

// TestResumeAfterInterrupt is the kill-and-restart guarantee: interrupt a
// characterization after the first of three cells completes, then rerun
// against the same cache directory and verify (1) completed cells are
// adopted from their checkpoint shards instead of re-simulated — the
// resumed run performs strictly fewer transient simulations than a
// from-scratch run — (2) the resumed library is bit-identical to a
// from-scratch one, and (3) the shards are cleaned up once the full
// .alib lands.
func TestResumeAfterInterrupt(t *testing.T) {
	cells := []string{"INV_X1", "NAND2_X1", "NOR2_X1"}
	s := aging.WorstCase(10)

	// Baseline: a from-scratch run in a separate cache dir, recording the
	// total transient count and the reference serialization.
	base := TestConfig()
	base.Cells = cells
	base.Parallelism = 1
	base.CacheDir = t.TempDir()
	baseReg := obs.NewRegistry()
	refLib, err := base.Characterize(obs.With(context.Background(), baseReg), s)
	if err != nil {
		t.Fatal(err)
	}
	scratchSims := baseReg.Counter("spice.transients").Value()
	if scratchSims == 0 {
		t.Fatal("baseline run recorded no transients")
	}
	var ref bytes.Buffer
	if err := liberty.Write(&ref, refLib); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel as soon as the first cell finishes. With
	// Parallelism=1 exactly that cell has a checkpoint shard.
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Cells = cells
	cfg.Parallelism = 1
	cfg.CacheDir = dir
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Progress = func(done, total int) {
		if done == 1 {
			cancel()
		}
	}
	if _, err := cfg.Characterize(ctx, s); !errors.Is(err, ErrCanceled) {
		t.Fatalf("interrupted run: got %v, want ErrCanceled", err)
	}
	shards, other := 0, 0
	for _, e := range mustReadDir(t, dir) {
		switch {
		case strings.HasSuffix(e, ".ckpt"):
			shards++
		default:
			other++
			t.Errorf("interrupted run left non-shard file %s", e)
		}
	}
	if shards == 0 {
		t.Fatal("interrupted run left no checkpoint shards")
	}

	// Resume: a fresh config (no cancel hook) over the same cache dir.
	resume := TestConfig()
	resume.Cells = cells
	resume.Parallelism = 1
	resume.CacheDir = dir
	reg := obs.NewRegistry()
	lib, err := resume.Characterize(obs.With(context.Background(), reg), s)
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter("char.ckpt.hits").Value(); hits != int64(shards) {
		t.Errorf("char.ckpt.hits = %d, want %d (one per shard)", hits, shards)
	}
	resumedSims := reg.Counter("spice.transients").Value()
	if resumedSims >= scratchSims {
		t.Errorf("resumed run simulated %d transients, want strictly fewer than scratch (%d)",
			resumedSims, scratchSims)
	}
	// The resumed library is bit-identical to the from-scratch reference.
	var got bytes.Buffer
	if err := liberty.Write(&got, lib); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Error("resumed library differs from a from-scratch characterization")
	}
	// Shards are redundant once the .alib landed.
	for _, e := range mustReadDir(t, dir) {
		if strings.HasSuffix(e, ".ckpt") {
			t.Errorf("shard %s not cleaned up after the library landed", e)
		}
		if strings.Contains(e, ".tmp") {
			t.Errorf("stray temp file %s", e)
		}
	}
}

// TestResumeCorruptShard: a truncated shard is detected, counted and
// re-simulated rather than adopted.
func TestResumeCorruptShard(t *testing.T) {
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = dir
	s := aging.WorstCase(10)
	// Fabricate a corrupt shard where the resume would look for one.
	if err := os.WriteFile(cfg.ckptPath(s, "INV_X1"), []byte("LIBRARY half\nSLEWS 1"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	lib, err := cfg.Characterize(obs.With(context.Background(), reg), s)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("char.ckpt.corrupt").Value(); n != 1 {
		t.Errorf("char.ckpt.corrupt = %d, want 1", n)
	}
	if n := reg.Counter("char.ckpt.hits").Value(); n != 0 {
		t.Errorf("char.ckpt.hits = %d, want 0", n)
	}
	if _, ok := lib.Cell("INV_X1"); !ok {
		t.Error("rebuilt library lacks INV_X1")
	}
}

// TestCkptDigitFlipResimulated: a shard whose bytes changed after it was
// written — one table digit flipped, which still parses — fails its
// checksum, counts as corrupt and is simulated again, so the resumed
// library is byte-identical to an uninterrupted run instead of carrying
// the flipped value under the final entry's checksum.
func TestCkptDigitFlipResimulated(t *testing.T) {
	cells := []string{"INV_X1", "NAND2_X1"}
	s := aging.WorstCase(10)
	ref := TestConfig()
	ref.Cells = cells
	refLib, err := ref.Characterize(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel as soon as the first cell, INV_X1, finishes
	// and leaves its shard.
	cfg := ref
	cfg.Parallelism = 1
	cfg.CacheDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Progress = func(done, total int) {
		if done == 1 {
			cancel()
		}
	}
	if _, err := cfg.Characterize(ctx, s); !errors.Is(err, ErrCanceled) {
		t.Fatalf("interrupted run: got %v, want ErrCanceled", err)
	}
	cfg.Progress = nil

	// Flip the leading digit of the shard's first delay value.
	path := cfg.ckptPath(s, "INV_X1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := []byte("TABLE delay rise\n")
	i := bytes.Index(data, hdr) + len(hdr)
	if i < len(hdr) || data[i] < '1' || data[i] > '9' {
		t.Fatalf("no leading delay digit in shard %s", path)
	}
	if data[i] == '9' {
		data[i] = '8'
	} else {
		data[i] = '9'
	}
	if _, err := liberty.Parse(data); err != nil {
		t.Fatalf("flipped shard no longer parses: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	lib, err := cfg.Characterize(obs.With(context.Background(), reg), s)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("char.ckpt.corrupt").Value(); n != 1 {
		t.Errorf("char.ckpt.corrupt = %d, want 1", n)
	}
	if n := reg.Counter("char.ckpt.hits").Value(); n != 0 {
		t.Errorf("char.ckpt.hits = %d, want 0", n)
	}
	if !bytes.Equal(libBytes(t, lib), libBytes(t, refLib)) {
		t.Error("resumed library differs from an uninterrupted characterization")
	}
}

// TestCkptDisabledWithoutCache: with no cache directory the checkpoint
// layer is inert — characterization works and writes nothing.
func TestCkptDisabledWithoutCache(t *testing.T) {
	cfg := TestConfig()
	cfg.Cells = []string{"INV_X1"}
	cfg.CacheDir = ""
	reg := obs.NewRegistry()
	if _, err := cfg.Characterize(obs.With(context.Background(), reg), aging.WorstCase(10)); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("char.ckpt.hits").Value(); n != 0 {
		t.Errorf("char.ckpt.hits = %d without a cache dir", n)
	}
	if n := reg.Counter("char.ckpt.store.errors").Value(); n != 0 {
		t.Errorf("char.ckpt.store.errors = %d without a cache dir", n)
	}
}
