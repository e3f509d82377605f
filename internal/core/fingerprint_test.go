package core

import (
	"context"
	"hash/fnv"
	"runtime"
	"testing"

	"ageguard/internal/liberty"
	"ageguard/internal/netlist"
	"ageguard/internal/synth"
)

// synthesisFingerprint is the fnv64a of the netlist bytes
// TestSynthesisFingerprint synthesizes, recorded on amd64 at
// synthVersion 1.
const synthesisFingerprint = 0x667ee43a15a9ba8d

// TestSynthesisFingerprint pins synthesis bit for bit: RISC-5P
// synthesized with Default()'s fresh and worst-case libraries serializes
// (netlist.Write) to the recorded bytes. Netlist cache file names carry
// synthVersion but not the algorithms themselves, so a change that
// alters a synthesized netlist must bump the version, or netlists cached
// before it are read back as its results. The test calls
// synth.Synthesize directly, since Flow.Synthesized would read a cached
// netlist back. The libraries' numerics are TestNumericsFingerprint's
// to pin: a change that moves them fails both. The recorded value holds
// on amd64 only, as that test's does.
func TestSynthesisFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprint recorded on amd64; gc fuses multiply-adds on %s, which changes the last bits", runtime.GOARCH)
	}
	f := Default()
	ctx := context.Background()
	h := fnv.New64a()
	for _, lib := range []func(context.Context) (*liberty.Library, error){f.FreshLibrary, f.WorstLibrary} {
		lib, err := lib(ctx)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Benchmark("RISC-5P")
		if err != nil {
			t.Fatal(err)
		}
		nl, err := synth.Synthesize(ctx, a, lib, "RISC-5P", f.synthConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := netlist.Write(h, nl); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Sum64(); got != synthesisFingerprint {
		t.Fatalf("synthesized netlists changed: bump core's synthVersion (fingerprint %#016x, recorded %#016x)", got, synthesisFingerprint)
	}
}
