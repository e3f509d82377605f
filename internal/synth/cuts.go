package synth

import (
	"sort"

	"ageguard/internal/logic"
)

// cut is a k-feasible cut of an AIG node: its leaf set (sorted node ids)
// and the cut function as a truth table over the leaves (bit a of tt is
// the function value when leaf i carries bit i of a).
type cut struct {
	leaves []uint32
	tt     uint16
}

const (
	maxCutSize  = 4
	cutsPerNode = 8
)

// ttMask returns the valid-bit mask for an n-leaf truth table.
func ttMask(n int) uint16 { return uint16(1)<<(1<<uint(n)) - 1 }

// expand remaps a truth table over oldLeaves onto the superset newLeaves.
func expand(tt uint16, oldLeaves, newLeaves []uint32) uint16 {
	pos := make([]int, len(oldLeaves))
	for i, l := range oldLeaves {
		for j, nl := range newLeaves {
			if nl == l {
				pos[i] = j
				break
			}
		}
	}
	var out uint16
	n := len(newLeaves)
	for a := 0; a < 1<<uint(n); a++ {
		var oa int
		for i := range oldLeaves {
			if a>>uint(pos[i])&1 == 1 {
				oa |= 1 << uint(i)
			}
		}
		if tt>>uint(oa)&1 == 1 {
			out |= 1 << uint(a)
		}
	}
	return out
}

// reduceSupport removes leaves the function does not actually depend on
// (structural redundancy the AIG hashing cannot see, e.g. absorption),
// compressing the truth table accordingly. A constant function returns an
// empty leaf set.
func reduceSupport(leaves []uint32, tt uint16) ([]uint32, uint16) {
	n := len(leaves)
	outLeaves := make([]uint32, 0, n)
	kept := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if dependsOn(tt, i, n) {
			outLeaves = append(outLeaves, leaves[i])
			kept = append(kept, i)
		}
	}
	if len(kept) == n {
		return leaves, tt
	}
	var out uint16
	for a := 0; a < 1<<uint(len(kept)); a++ {
		var full int
		for j, i := range kept {
			if a>>uint(j)&1 == 1 {
				full |= 1 << uint(i)
			}
		}
		if tt>>uint(full)&1 == 1 {
			out |= 1 << uint(a)
		}
	}
	return outLeaves, out
}

// dependsOn reports whether tt (over n leaves) depends on leaf i.
func dependsOn(tt uint16, i, n int) bool {
	for a := 0; a < 1<<uint(n); a++ {
		if a>>uint(i)&1 == 1 {
			continue
		}
		if tt>>uint(a)&1 != tt>>uint(a|1<<uint(i))&1 {
			return true
		}
	}
	return false
}

// mergeLeaves returns the sorted union of two leaf sets, or nil if it
// exceeds maxCutSize.
func mergeLeaves(a, b []uint32) []uint32 {
	out := make([]uint32, 0, maxCutSize)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
		if len(out) > maxCutSize {
			return nil
		}
	}
	return out
}

func sameLeaves(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// enumerateCuts computes priority cuts for every node of the AIG.
// Node indexes are a topological order, so one forward pass suffices.
func enumerateCuts(a *logic.AIG) [][]cut {
	n := a.NumNodes()
	cuts := make([][]cut, n)
	triv := func(node uint32) cut {
		return cut{leaves: []uint32{node}, tt: 0xAAAA & ttMask(1)}
	}
	for node := uint32(0); node < uint32(n); node++ {
		l := logic.Lit(node << 1)
		if a.IsConst(l) || a.IsInput(l) {
			cuts[node] = []cut{triv(node)}
			continue
		}
		f0, f1 := a.Fanins(node)
		var cand []cut
		for _, c0 := range cuts[f0.Node()] {
			for _, c1 := range cuts[f1.Node()] {
				leaves := mergeLeaves(c0.leaves, c1.leaves)
				if leaves == nil {
					continue
				}
				t0 := expand(c0.tt, c0.leaves, leaves)
				t1 := expand(c1.tt, c1.leaves, leaves)
				m := ttMask(len(leaves))
				if f0.Compl() {
					t0 = ^t0 & m
				}
				if f1.Compl() {
					t1 = ^t1 & m
				}
				rl, rt := reduceSupport(leaves, t0&t1&m)
				if len(rl) == 0 {
					continue // cut function is constant: redundancy; skip
				}
				cand = append(cand, cut{leaves: rl, tt: rt})
			}
		}
		// Rank: fewer leaves first, then shallower leaves.
		depth := func(c cut) int {
			d := 0
			for _, lf := range c.leaves {
				if lv := a.Level(logic.Lit(lf << 1)); lv > d {
					d = lv
				}
			}
			return d
		}
		sort.SliceStable(cand, func(i, j int) bool {
			if len(cand[i].leaves) != len(cand[j].leaves) {
				return len(cand[i].leaves) < len(cand[j].leaves)
			}
			return depth(cand[i]) < depth(cand[j])
		})
		// Dedup and truncate, always keeping the trivial cut last so the
		// node can serve as a leaf of larger cuts.
		var kept []cut
		for _, c := range cand {
			dup := false
			for _, k := range kept {
				if sameLeaves(k.leaves, c.leaves) && k.tt == c.tt {
					dup = true
					break
				}
			}
			if !dup {
				kept = append(kept, c)
			}
			if len(kept) == cutsPerNode-1 {
				break
			}
		}
		kept = append(kept, triv(node))
		cuts[node] = kept
	}
	return cuts
}
