// Package ec maintains equivalence classes of AIG nodes under simulation.
//
// Nodes with the same partial-simulation signature (up to complementation)
// are clustered into an equivalence class; any pair of functionally
// equivalent nodes necessarily shares a class, so classes are the source of
// candidate pairs for the provers. The class containing the constant node 0
// collects candidate constant nodes. Signatures are phase-normalised: a
// node whose first simulated bit is 1 is stored complemented, so a node and
// its complement land in the same class, and each candidate pair carries the
// complement flag relating its two members.
package ec

import (
	"cmp"
	"fmt"
	"slices"
)

// Manager holds the current class structure over a fixed node-id space.
// Rebuild it (with Build) whenever the underlying AIG is rebuilt.
type Manager struct {
	numNodes int
	phase    []bool  // signature was complemented for normalisation
	classOf  []int32 // class index per node, -1 when singleton
	classes  [][]int32
}

// Pair is a candidate equivalence between Repr and Member: the hypothesis is
// Member ≡ Repr ⊕ Compl. Repr is the minimum-id member of the class; a Repr
// of 0 means Member is a candidate constant.
type Pair struct {
	Repr   int32
	Member int32
	Compl  bool
}

// String renders the candidate pair for debugging.
func (p Pair) String() string {
	op := "=="
	if p.Compl {
		op = "=!"
	}
	return fmt.Sprintf("(%d %s %d)", p.Member, op, p.Repr)
}

// Build clusters nodes 0..numNodes-1 by their signatures. sig(id) returns
// the simulation words of node id; all nodes must have the same word count.
// Nodes for which include(id) is false are skipped (PIs are normally
// excluded: a PI is never merged into anything). Node 0, the constant, is
// always included so that constant candidates form its class.
func Build(numNodes int, sig func(id int) []uint64, include func(id int) bool) *Manager {
	m := &Manager{
		numNodes: numNodes,
		phase:    make([]bool, numNodes),
		classOf:  make([]int32, numNodes),
	}
	for i := range m.classOf {
		m.classOf[i] = -1
	}
	type bucket struct {
		members []int32
	}
	buckets := make(map[uint64]*bucket)
	keys := make(map[uint64][]uint64) // hash -> canonical signature (collision check)
	normalised := func(id int) ([]uint64, bool) {
		s := sig(id)
		compl := len(s) > 0 && s[0]&1 == 1
		if !compl {
			return s, false
		}
		out := make([]uint64, len(s))
		for i, w := range s {
			out[i] = ^w
		}
		return out, true
	}
	for id := 0; id < numNodes; id++ {
		if id != 0 && (include == nil || !include(id)) {
			continue
		}
		s, compl := normalised(id)
		m.phase[id] = compl
		h := hashWords(s)
		b := buckets[h]
		if b == nil {
			b = &bucket{}
			buckets[h] = b
			keys[h] = s
		} else if !sameWords(keys[h], s) {
			// Hash collision: fall back to a secondary probe. Open
			// addressing over rehashed keys keeps this correct.
			h2 := h
			for {
				h2 = h2*0x9E3779B97F4A7C15 + 1
				b2 := buckets[h2]
				if b2 == nil {
					b2 = &bucket{}
					buckets[h2] = b2
					keys[h2] = s
					b = b2
					break
				}
				if sameWords(keys[h2], s) {
					b = b2
					break
				}
			}
		}
		b.members = append(b.members, int32(id))
	}
	for _, b := range buckets {
		if len(b.members) >= 2 {
			m.classes = append(m.classes, b.members)
		}
	}
	// Map iteration order is random: order the classes by representative
	// (members are appended in ascending id order, so index 0 is the
	// minimum) so that one seed yields one candidate order, run to run.
	slices.SortFunc(m.classes, func(x, y []int32) int { return cmp.Compare(x[0], y[0]) })
	for idx, members := range m.classes {
		for _, id := range members {
			m.classOf[id] = int32(idx)
		}
	}
	return m
}

func hashWords(ws []uint64) uint64 {
	h := uint64(0xCBF29CE484222325)
	for _, w := range ws {
		h ^= w
		h *= 0x100000001B3
	}
	return h
}

func sameWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}

// NumClasses returns the number of non-singleton classes.
func (m *Manager) NumClasses() int { return len(m.classes) }

// NumNodes returns the size of the node-id space the manager was built for.
func (m *Manager) NumNodes() int { return m.numNodes }

// Classes returns the member lists (each sorted by id; index 0 is the
// representative). The caller must not mutate them.
func (m *Manager) Classes() [][]int32 { return m.classes }

// ClassOf returns the class index of node id, or -1.
func (m *Manager) ClassOf(id int) int32 { return m.classOf[id] }

// Repr returns the representative of node id's class and whether id is a
// non-representative member of some class.
func (m *Manager) Repr(id int) (int32, bool) {
	c := m.classOf[id]
	if c < 0 {
		return 0, false
	}
	r := m.classes[c][0]
	return r, r != int32(id)
}

// Phase returns the normalisation phase of node id.
func (m *Manager) Phase(id int) bool { return m.phase[id] }

// PairOf returns the candidate pair relating node id to its representative.
func (m *Manager) PairOf(id int) (Pair, bool) {
	r, ok := m.Repr(id)
	if !ok {
		return Pair{}, false
	}
	return Pair{Repr: r, Member: int32(id), Compl: m.phase[id] != m.phase[r]}, true
}

// Pairs generates the candidate pairs of all classes: each class of N nodes
// yields N−1 pairs (representative vs. each other member).
func (m *Manager) Pairs() []Pair {
	var out []Pair
	for _, members := range m.classes {
		r := members[0]
		for _, id := range members[1:] {
			out = append(out, Pair{Repr: r, Member: id, Compl: m.phase[id] != m.phase[r]})
		}
	}
	return out
}

// TotalCandidates returns the number of candidate pairs.
func (m *Manager) TotalCandidates() int {
	n := 0
	for _, members := range m.classes {
		n += len(members) - 1
	}
	return n
}
