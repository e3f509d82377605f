package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"testing"

	"ageguard/internal/aging"
	"ageguard/internal/char"
	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/obs"
	"ageguard/internal/sta"
)

// TestNetlistCacheCorruptResynthesized: a cached netlist whose bytes
// changed after the write — the low bit of one digit flipped, so that
// the file still parses and times to another guardband — fails its seal.
// The load counts core.netlist.cache.corrupt and a miss, synthesizes the
// circuit again and rewrites the file to its intact bytes, and the
// guardband equals the intact one bit for bit. Quick grid, in a
// temporary cache directory.
func TestNetlistCacheCorruptResynthesized(t *testing.T) {
	cfg := char.TestConfig()
	cfg.CacheDir = t.TempDir()
	f := New(WithCharConfig(cfg), WithLifetime(10))
	ctx := context.Background()
	const circuit = "RISC-5P"
	worst := aging.WorstCase(f.Lifetime)
	fresh, err := f.FreshLibrary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := f.Synthesized(ctx, circuit, fresh)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.StaticGuardband(ctx, circuit, nl, worst)
	if err != nil {
		t.Fatal(err)
	}
	path := f.netlistCachePath(circuit, fresh)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, movingDigitFlip(t, f, circuit, nl, fresh, worst, intact, want), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	got, err := f.Synthesized(obs.With(ctx, reg), circuit, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int64{"core.netlist.cache.corrupt": 1, "core.netlist.cache.misses": 1, "core.netlist.cache.hits": 0} {
		if v := reg.Counter(name).Value(); v != n {
			t.Errorf("%s = %d, want %d", name, v, n)
		}
	}
	gb, err := f.StaticGuardband(ctx, circuit, got, worst)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]float64{{gb.FreshCP, want.FreshCP}, {gb.AgedCP, want.AgedCP}, {gb.Guardband, want.Guardband}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("guardband after the corrupt load %+v, intact %+v", gb, want)
		}
	}
	if rewritten, err := os.ReadFile(path); err != nil || !bytes.Equal(rewritten, intact) {
		t.Errorf("the netlist file was not rewritten to its intact bytes (%v)", err)
	}
}

// movingDigitFlip returns data, the cached file of nl, with the low bit
// of one digit flipped so that the file still parses as a netlist whose
// guardband under s differs from want: the first such digit on the lines
// of the instances on nl's critical path under lib.
func movingDigitFlip(t *testing.T, f Flow, circuit string, nl *netlist.Netlist, lib *liberty.Library, s aging.Scenario, data []byte, want Guardband) []byte {
	t.Helper()
	ctx := context.Background()
	bt, err := sta.NewBatchTimer(ctx, nl, lib, f.STA)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := bt.TopPaths(ctx, lib, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range paths[0].Steps {
		start := bytes.Index(data, []byte("\ninst "+st.Inst+" ")) + 1
		if start == 0 {
			continue
		}
		end := start + bytes.IndexByte(data[start:], '\n')
		for i := start; i < end; i++ {
			if data[i] < '0' || data[i] > '9' {
				continue
			}
			mut := bytes.Clone(data)
			mut[i] ^= 1
			m, err := netlist.Read(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			if gb, err := f.StaticGuardband(ctx, circuit, m, s); err == nil && gb != want {
				return mut
			}
		}
	}
	t.Fatal("no digit flip on the critical path's lines parses and moves the guardband")
	return nil
}
