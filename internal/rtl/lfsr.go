package rtl

// LFSR builds a Galois linear-feedback shift register as a *sequential
// netlist stimulus generator in software*: it returns a step function
// producing the register's successive states. Used to generate
// deterministic pseudo-random workloads for the dynamic aging-stress
// analysis without importing math/rand into circuit code.
func LFSR(width int, seed uint64) func() uint64 {
	if width < 2 || width > 64 {
		panic("rtl: LFSR width out of range")
	}
	// Taps for maximal-length sequences (Xilinx app note table), indexed
	// by a few common widths; other widths fall back to a decent pair.
	taps := map[int]uint64{
		8:  0xB8,
		16: 0xB400,
		24: 0xE10000,
		32: 0xA3000000,
		48: 0xC00000400000,
		64: 0xD800000000000000,
	}
	mask := ^uint64(0) >> uint(64-width)
	tap, ok := taps[width]
	if !ok {
		tap = (1 << uint(width-1)) | (1 << uint(width-3)) | 1<<1 | 1
	}
	state := seed & mask
	if state == 0 {
		state = 1
	}
	return func() uint64 {
		out := state
		lsb := state & 1
		state >>= 1
		if lsb == 1 {
			state ^= tap & mask
		}
		return out
	}
}

// WorkloadStimulus adapts an LFSR into the map-based stimulus the
// gate-level simulator consumes: each primary input gets an independent
// stream derived from one generator.
func WorkloadStimulus(inputs []string, seed uint64) func(step int) map[string]uint64 {
	gens := make(map[string]func() uint64, len(inputs))
	for i, in := range inputs {
		gens[in] = LFSR(48, seed+uint64(i)*0x9E3779B97F4A7C15+1)
	}
	return func(int) map[string]uint64 {
		out := make(map[string]uint64, len(inputs))
		for in, g := range gens {
			// Two 48-bit draws concatenated give 64 dense bits.
			out[in] = g() ^ g()<<16
		}
		return out
	}
}
