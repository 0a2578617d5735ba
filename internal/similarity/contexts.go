package similarity

import "hypermine/internal/hypergraph"

// Substitution contexts, the kernel of BuildGraphContext. Removing a1
// from the tail of an edge e in out(a1) leaves a (tail, head) pair, its
// context at a1. Edges e in out(a1) and f in out(a2) are a
// substitution pair of Definition 3.11(1) exactly when e's context at
// a1 equals f's context at a2: f is then e with a1 replaced by a2, and
// a2 cannot be in e's tail, since it is not in f's tail without a2. So
// the pairs OutSim finds by probing the edge-key map once per edge are
// the pairs with equal contexts. The same holds for InSim with heads.
// A graph build names each distinct context once; a vertex pair then
// matches its edges by context id in flat arrays.

// side is one similarity side of a graph build, in or out. For each
// vertex v of the build, the edges of v's list (h.In(v) or h.Out(v))
// are at [off[v], off[v+1]) in list order, with their context ids in
// ctx and their weights in w.
type side struct {
	off    []int
	ctx    []int32
	w      []float64
	n      int // distinct contexts
	maxLen int // longest list
}

// newSide computes the contexts of the out side (out true) or the in
// side of h, for the vertices v with member[v] set.
func newSide(h *hypergraph.H, member []bool, out bool) side {
	list := h.In
	if out {
		list = h.Out
	}
	nv := h.NumVertices()
	sd := side{off: make([]int, nv+1)}
	for v := 0; v < nv; v++ {
		n := 0
		if member[v] {
			n = len(list(v))
		}
		sd.off[v+1] = sd.off[v] + n
		sd.maxLen = max(sd.maxLen, n)
	}
	sd.ctx = make([]int32, sd.off[nv])
	sd.w = make([]float64, sd.off[nv])
	packed := make(map[uint64]int32, len(sd.ctx))
	var keyed map[string]int32
	edges := h.Edges()
	var buf [hypergraph.MaxRestrictedTail + 1]int
	for v := 0; v < nv; v++ {
		if !member[v] {
			continue
		}
		for p, ei := range list(v) {
			e := &edges[ei]
			tail, head := e.Tail, e.Head
			if out {
				tail = without(buf[:0], tail, v)
			} else {
				head = without(buf[:0], head, v)
			}
			var c int32
			var found bool
			if key, ok := contextKey(tail, head); ok {
				if c, found = packed[key]; !found {
					c = int32(sd.n)
					packed[key] = c
				}
			} else {
				if keyed == nil {
					keyed = make(map[string]int32)
				}
				key := hypergraph.EdgeKey(tail, head)
				if c, found = keyed[key]; !found {
					c = int32(sd.n)
					keyed[key] = c
				}
			}
			if !found {
				sd.n++
			}
			sd.ctx[sd.off[v]+p] = c
			sd.w[sd.off[v]+p] = e.Weight
		}
	}
	return sd
}

// without appends the ids other than v to buf.
func without(buf, ids []int, v int) []int {
	for _, x := range ids {
		if x != v {
			buf = append(buf, x)
		}
	}
	return buf
}

// contextKey packs a context, a sorted tail of at most three ids and a
// head of at most one, into a uint64 laid out like
// hypergraph.PackEdgeKey, with an empty head leaving the top slot zero.
// ok is false for larger sets or ids beyond hypergraph.MaxPackedID;
// those contexts are keyed by hypergraph.EdgeKey. Whether a context
// packs depends only on the context, so equal contexts always get
// equal keys.
func contextKey(tail, head []int) (uint64, bool) {
	if len(tail) > hypergraph.MaxRestrictedTail || len(head) > 1 {
		return 0, false
	}
	var key uint64
	for i, v := range tail {
		if uint(v) > hypergraph.MaxPackedID {
			return 0, false
		}
		key |= uint64(v+1) << (16 * i)
	}
	for _, v := range head {
		if uint(v) > hypergraph.MaxPackedID {
			return 0, false
		}
		key |= uint64(v+1) << 48
	}
	return key, true
}

// mark sets slot[c] to one plus the position of each context c in v's
// list, or back to 0 when set is false.
func (sd *side) mark(v int, slot []int32, set bool) {
	for p, c := range sd.ctx[sd.off[v]:sd.off[v+1]] {
		if set {
			slot[c] = int32(p + 1)
		} else {
			slot[c] = 0
		}
	}
}

// sim is this side's similarity of the distinct vertices r and x,
// where slot holds r's marks. mr and mx are scratch of maxLen entries.
// It sums in the order OutSim and InSim do, so it returns their bits.
func (sd *side) sim(r, x int, slot, mr, mx []int32) float64 {
	rw, xw := sd.w[sd.off[r]:sd.off[r+1]], sd.w[sd.off[x]:sd.off[x+1]]
	mr, mx = mr[:len(rw)], mx[:len(xw)]
	for p := range mr {
		mr[p] = -1
	}
	for q, c := range sd.ctx[sd.off[x]:sd.off[x+1]] {
		p := slot[c] - 1
		mx[q] = p
		if p >= 0 {
			mr[p] = int32(q)
		}
	}
	if r < x {
		return matchSum(rw, mr, xw, mx)
	}
	return matchSum(xw, mx, rw, mr)
}

// matchSum is Definition 3.11's ratio over the lists of a1 and a2:
// w1[p] is matched with w2[m1[p]] when m1[p] >= 0, and w2[q] is
// matched when m2[q] >= 0. Matched pairs add their min to the numerator
// and their max to the denominator, unmatched edges their weight to
// the denominator, first along a1's list, then along a2's.
func matchSum(w1 []float64, m1 []int32, w2 []float64, m2 []int32) float64 {
	var num, den float64
	for p, we := range w1 {
		if q := m1[p]; q >= 0 {
			// The builtins treat NaN and signed zeros as math.Min and
			// math.Max do, without the call.
			num += min(we, w2[q])
			den += max(we, w2[q])
		} else {
			den += we
		}
	}
	for q, wf := range w2 {
		if m2[q] < 0 {
			den += wf
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
