package char

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"ageguard/internal/aging"
	"ageguard/internal/atomicfile"
	"ageguard/internal/cells"
	"ageguard/internal/conc"
	"ageguard/internal/liberty"
	"ageguard/internal/obs"
)

// Checkpoint shards make characterization resumable: every completed cell
// is persisted as a tiny single-cell library next to the final .alib, so a
// crashed, killed or interrupted run re-simulates only the cells it had
// not finished. Shards share the .alib entry's config-hash-bearing stem —
// a shard characterized under one grid/model/cell-set can never be resumed
// into a library built under another — and are written with the same
// atomic temp+rename discipline, so a shard either exists completely or
// not at all. They are sealed like the .alib entries and load through
// the same gate. Once the full .alib lands, the shards are deleted.

// ckptPath names the checkpoint shard for one cell of a scenario.
func (cfg Config) ckptPath(s aging.Scenario, cell string) string {
	return cfg.cacheStem(s) + ".cell_" + cell + ".ckpt"
}

// loadCellCkpt loads a cell's checkpoint shard through the cache's
// integrity gate (VerifyCacheFile), so a shard whose bytes changed after
// it was written is never resumed into a library that the final .alib's
// seal would then cover. A nil error means a usable hit. Misses wrap
// fs.ErrNotExist; shards that exist but fail the seal, cannot be parsed
// or lack the cell wrap ErrCacheCorrupt.
func (cfg Config) loadCellCkpt(s aging.Scenario, cell string) (*liberty.CellTiming, error) {
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("char: cache disabled: %w", fs.ErrNotExist)
	}
	path := cfg.ckptPath(s, cell)
	if cfg.CacheFault != nil {
		if err := cfg.CacheFault("ckpt.load", path); err != nil {
			return nil, err
		}
	}
	lib, err := VerifyCacheFile(path)
	if err != nil {
		return nil, err
	}
	ct, ok := lib.Cell(cell)
	if !ok {
		return nil, fmt.Errorf("%w: %s lacks cell %s", ErrCacheCorrupt, path, cell)
	}
	// Strict runs never resume from interpolated results: treat the shard
	// as a miss so the cell is recharacterized without salvage.
	if cfg.Strict {
		for i := range ct.Arcs {
			if len(ct.Arcs[i].Salvaged) > 0 {
				return nil, fmt.Errorf("char: %s has salvaged points (strict): %w",
					path, fs.ErrNotExist)
			}
		}
	}
	return ct, nil
}

// storeCellCkpt persists one completed cell as a single-cell library,
// sealed and atomically (atomicfile.WriteSealed: unique temp file +
// rename, removed on every error path).
func (cfg Config) storeCellCkpt(s aging.Scenario, ct *liberty.CellTiming) error {
	if cfg.CacheDir == "" {
		return nil
	}
	path := cfg.ckptPath(s, ct.Name)
	if cfg.CacheFault != nil {
		if err := cfg.CacheFault("ckpt.store", path); err != nil {
			return err
		}
	}
	lib := &liberty.Library{
		Name:     cfg.libName(s) + "_ckpt",
		Scenario: s,
		Vdd:      cfg.Tech.Vdd,
		Slews:    append([]float64(nil), cfg.Slews...),
		Loads:    append([]float64(nil), cfg.Loads...),
		Cells:    map[string]*liberty.CellTiming{ct.Name: ct},
	}
	return atomicfile.WriteSealed(path, func(w io.Writer) error { return liberty.Write(w, lib) })
}

// clearCkpts removes a scenario's checkpoint shards (best effort): once
// the complete .alib is on disk they carry no extra information.
func (cfg Config) clearCkpts(s aging.Scenario) {
	if cfg.CacheDir == "" {
		return
	}
	matches, err := filepath.Glob(cfg.cacheStem(s) + ".cell_*.ckpt")
	if err != nil {
		return
	}
	for _, m := range matches {
		os.Remove(m)
	}
}

// cellWithCheckpoint characterizes one cell, resuming from its checkpoint
// shard when one exists and persisting a new shard afterwards. Shard-store
// failures are deliberately non-fatal — the run loses resumability for
// that cell, nothing else — and are counted under char.ckpt.store.errors.
func (cfg Config) cellWithCheckpoint(ctx context.Context, lim conc.Limiter, c *cells.Cell, s aging.Scenario) (*liberty.CellTiming, error) {
	reg := obs.From(ctx)
	ct, err := cfg.loadCellCkpt(s, c.Name)
	switch {
	case err == nil:
		reg.Counter("char.ckpt.hits").Inc()
		return ct, nil
	case errors.Is(err, ErrCacheCorrupt):
		reg.Counter("char.ckpt.corrupt").Inc()
	}
	ct, err = cfg.characterizeCell(ctx, lim, c, s)
	if err != nil {
		return nil, err
	}
	if err := cfg.storeCellCkpt(s, ct); err != nil {
		reg.Counter("char.ckpt.store.errors").Inc()
	}
	return ct, nil
}
