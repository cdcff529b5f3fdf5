package tt

import (
	"fmt"
	"math/bits"
	"sync"
)

// NPN canonisation: two functions are NPN-equivalent when one can be
// obtained from the other by Negating inputs, Permuting inputs and/or
// Negating the output. Rewriting engines and matching libraries index
// structures by NPN class; this implementation canonises exhaustively and
// is intended for k ≤ 6 (a single truth-table word).

// NPNTransform describes one NPN transform: output g = Apply(f) is
// defined by g(x_0,…,x_{k−1}) = f(y_0,…,y_{k−1}) ⊕ OutputNeg where
// y_{Perm[i]} = x_i ⊕ bit_i(InputNeg).
type NPNTransform struct {
	Perm      []int
	InputNeg  uint32
	OutputNeg bool
}

// Apply applies the transform to f.
func (tr NPNTransform) Apply(f TT) TT {
	k := f.NumVars
	if len(tr.Perm) != k {
		panic(fmt.Sprintf("tt: NPN transform arity %d on %d-var function", len(tr.Perm), k))
	}
	out := New(k)
	n := 1 << uint(k)
	for x := 0; x < n; x++ {
		y := 0
		for i := 0; i < k; i++ {
			bit := (x>>uint(i))&1 == 1
			if (tr.InputNeg>>uint(i))&1 == 1 {
				bit = !bit
			}
			if bit {
				y |= 1 << uint(tr.Perm[i])
			}
		}
		v := f.Bit(y)
		if tr.OutputNeg {
			v = !v
		}
		if v {
			out.SetBit(x, true)
		}
	}
	return out
}

// Inverse returns the transform undoing tr: Inverse(tr).Apply(tr.Apply(f))
// equals f.
func (tr NPNTransform) Inverse() NPNTransform {
	k := len(tr.Perm)
	inv := NPNTransform{Perm: make([]int, k), OutputNeg: tr.OutputNeg}
	for i, p := range tr.Perm {
		inv.Perm[p] = i
		if (tr.InputNeg>>uint(i))&1 == 1 {
			inv.InputNeg |= 1 << uint(p)
		}
	}
	return inv
}

// npnTable holds the per-arity data of NPNCanon, computed once per k: the
// input permutations in enumeration order and, per permutation, its index
// map (bit i of x moves to bit Perm[i]).
type npnTable struct {
	perms [][]int
	index [][]uint8
}

var (
	npnOnce   [7]sync.Once
	npnTables [7]npnTable
)

func npnTableFor(k int) *npnTable {
	npnOnce[k].Do(func() {
		t := &npnTables[k]
		forEachPerm(k, func(perm []int) {
			idx := make([]uint8, 1<<uint(k))
			for x := range idx {
				for i, p := range perm {
					idx[x] |= uint8((x>>uint(i))&1) << uint(p)
				}
			}
			t.perms = append(t.perms, append([]int(nil), perm...))
			t.index = append(t.index, idx)
		})
	})
	return &npnTables[k]
}

// flipMasks[i] selects the assignments with variable i at 0 in one word.
var flipMasks = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
}

// flipVar negates input variable i of a one-word table: bit x of the
// result is bit x^(1<<i) of w. It keeps the replicated form intact.
func flipVar(w uint64, i int) uint64 {
	s := uint(1) << uint(i)
	return (w&flipMasks[i])<<s | (w>>s)&flipMasks[i]
}

// NPNCanon returns the canonical representative of f's NPN class — the
// lexicographically smallest truth table over all transforms — together
// with the transform tr such that tr.Apply(f) is the representative.
// Supported for NumVars ≤ 6; k!·2^(k+1) candidates, each evaluated on one
// word: a permutation costs 2^k table lookups, and each input negation one
// variable flip of the previous candidate.
func NPNCanon(f TT) (TT, NPNTransform) {
	k := f.NumVars
	if k > 6 {
		panic("tt: NPNCanon supports at most 6 variables")
	}
	tab := npnTableFor(k)
	n := 1 << uint(k)
	w := f.Words[0]
	var negs [64]uint64 // candidate per input negation, for one permutation
	// Every table's complement is a candidate too, so some candidate
	// lies below all-ones and sets the best transform.
	best, bestP, bestNeg, bestOut := ^uint64(0), 0, 0, false
	for p, idx := range tab.index {
		// g(x) = f(P(x ⊕ neg)): h = f∘P, then negate h's inputs.
		h := uint64(0)
		for z, y := range idx {
			h |= (w >> y & 1) << uint(z)
		}
		if k < 6 {
			h = replicate(h, k)
		}
		negs[0] = h
		for neg := 0; neg < n; neg++ {
			if neg > 0 {
				low := bits.TrailingZeros(uint(neg))
				negs[neg] = flipVar(negs[neg&(neg-1)], low)
			}
			for _, out := range [2]bool{false, true} {
				cand := negs[neg]
				if out {
					cand = ^cand
				}
				if cand < best {
					best, bestP, bestNeg, bestOut = cand, p, neg, out
				}
			}
		}
	}
	canon := New(k)
	canon.Words[0] = best
	return canon, NPNTransform{
		Perm:      append([]int(nil), tab.perms[bestP]...),
		InputNeg:  uint32(bestNeg),
		OutputNeg: bestOut,
	}
}

// NPNEquivalent reports whether f and g are in the same NPN class.
func NPNEquivalent(f, g TT) bool {
	if f.NumVars != g.NumVars {
		return false
	}
	cf, _ := NPNCanon(f)
	cg, _ := NPNCanon(g)
	return cf.Equal(cg)
}

// NPNClassCount enumerates all 2^(2^k) functions of k variables (k ≤ 4 is
// practical) and returns the number of distinct NPN classes — a classical
// sequence (1,2,4,14,222 for k = 0..4) used to validate canonisers.
func NPNClassCount(k int) int {
	if k > 4 {
		panic("tt: NPNClassCount supports at most 4 variables")
	}
	n := 1 << uint(k)
	classes := map[uint64]bool{}
	for fn := 0; fn < 1<<uint(n); fn++ {
		f := New(k)
		for i := 0; i < n; i++ {
			if (fn>>uint(i))&1 == 1 {
				f.SetBit(i, true)
			}
		}
		canon, _ := NPNCanon(f)
		classes[canon.Words[0]] = true
	}
	return len(classes)
}

func identityPerm(k int) []int {
	p := make([]int, k)
	for i := range p {
		p[i] = i
	}
	return p
}

// forEachPerm visits every permutation of 0..k−1 (Heap's algorithm).
func forEachPerm(k int, visit func([]int)) {
	perm := identityPerm(k)
	var heap func(n int)
	heap = func(n int) {
		if n == 1 {
			visit(perm)
			return
		}
		for i := 0; i < n; i++ {
			heap(n - 1)
			if n%2 == 0 {
				perm[i], perm[n-1] = perm[n-1], perm[i]
			} else {
				perm[0], perm[n-1] = perm[n-1], perm[0]
			}
		}
	}
	if k == 0 {
		visit(perm)
		return
	}
	heap(k)
}
