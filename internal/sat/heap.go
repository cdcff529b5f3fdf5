package sat

// varHeap is a max-heap of variables ordered by activity, with an index
// map for decrease/increase-key updates (the VSIDS order).
type varHeap struct {
	activity *[]float64
	heap     []int
	indices  []int // position in heap, -1 when absent
}

func newVarHeap(activity *[]float64) *varHeap {
	return &varHeap{activity: activity}
}

func (h *varHeap) less(a, b int) bool {
	act := *h.activity
	return act[h.heap[a]] > act[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.indices[h.heap[a]] = a
	h.indices[h.heap[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.heap) && h.less(l, best) {
			best = l
		}
		if r < len(h.heap) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// push inserts v unless it is already in the heap.
func (h *varHeap) push(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.indices[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.indices[v])
}

// build replaces the heap's contents with vars (distinct) in O(len(vars)).
func (h *varHeap) build(vars []int) {
	for _, v := range h.heap {
		h.indices[v] = -1
	}
	h.heap = h.heap[:0]
	for _, v := range vars {
		for len(h.indices) <= v {
			h.indices = append(h.indices, -1)
		}
		h.indices[v] = len(h.heap)
		h.heap = append(h.heap, v)
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes and returns the highest-activity variable.
func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, true
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] >= 0 {
		h.up(h.indices[v])
	}
}
