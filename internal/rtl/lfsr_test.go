package rtl

import "testing"

func TestLFSR(t *testing.T) {
	g := LFSR(16, 1)
	seen := map[uint64]bool{}
	period := 0
	first := g()
	for {
		v := g()
		period++
		if v == first {
			break
		}
		if seen[v] {
			t.Fatal("LFSR revisited a state before closing its cycle")
		}
		seen[v] = true
		if period > 1<<16 {
			t.Fatal("LFSR period exceeds state space")
		}
	}
	// Maximal-length for width 16: 2^16 - 1 states.
	if period != 1<<16-1 {
		t.Errorf("LFSR period = %d, want %d", period, 1<<16-1)
	}
}

func TestLFSRDeterministicAndSeeded(t *testing.T) {
	a1, a2 := LFSR(32, 7), LFSR(32, 7)
	b1 := LFSR(32, 8)
	same, diff := true, false
	for i := 0; i < 100; i++ {
		x, y, z := a1(), a2(), b1()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Error("same seed must give the same stream")
	}
	if !diff {
		t.Error("different seeds should diverge")
	}
}

func TestWorkloadStimulus(t *testing.T) {
	stim := WorkloadStimulus([]string{"a", "b"}, 42)
	v0 := stim(0)
	if len(v0) != 2 {
		t.Fatalf("stimulus keys = %v", v0)
	}
	// Streams must be dense-ish (not stuck at zero) and per-input distinct.
	var onesA, onesB int
	for k := 0; k < 50; k++ {
		v := stim(k)
		onesA += popcount64(v["a"])
		onesB += popcount64(v["b"])
		if v["a"] == v["b"] {
			t.Fatal("inputs share a stream")
		}
	}
	if onesA < 50*16 || onesB < 50*16 {
		t.Errorf("streams too sparse: %d %d", onesA, onesB)
	}
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
