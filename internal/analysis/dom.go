package analysis

import "repro/internal/ir"

// DomTree is a dense dominator index over the reachable part of a
// function's CFG. Blocks are numbered in reverse postorder; per block
// ID it keeps the RPO number (-1 if unreachable), per RPO index the
// immediate dominator, and the reachable predecessors in CSR form. A
// build allocates nothing once its buffers have grown to the
// function's size, so analysis.Cache rebuilds one DomTree in place
// after every committed formation step.
//
// Loop questions are answered from dominance alone. For an existing
// CFG edge, IsBackEdge and IsHeader agree exactly with the natural-loop
// forest's LoopForest.IsBackEdge and LoopForest.IsHeader: every block
// of a natural loop is dominated by its header, and a predecessor the
// header dominates is a latch. That covers self-loops and unreachable
// blocks too. Asked about a pair that is not an edge, IsBackEdge
// answers plain dominance, not loop membership.
//
// A DomTree obtained from a Cache is valid only until that cache's
// next recompute (a different function or a new mutation version).
type DomTree struct {
	// order lists the reachable blocks in reverse postorder.
	order []*ir.Block
	// num maps a block ID to its index in order, -1 if unreachable.
	num []int32
	// idom maps an RPO index to its immediate dominator's RPO index;
	// the entry (index 0) maps to itself.
	idom []int32
	// The reachable predecessors of order[i], as RPO indices in RPO
	// order, are pred[predOff[i]:predOff[i+1]].
	predOff []int32
	pred    []int32

	// Build buffers: each reachable block's distinct successors in
	// first-branch order are succ[succLo[id]:succHi[id]].
	succ           []*ir.Block
	succLo, succHi []int32
	stack          []dfsFrame
}

type dfsFrame struct {
	b    *ir.Block
	next int32
}

// Dominators computes the dominator tree of f using the
// Cooper–Harvey–Kennedy iterative algorithm.
func Dominators(f *ir.Function) *DomTree {
	t := &DomTree{}
	t.build(f)
	return t
}

// build recomputes t for f, reusing t's buffers.
func (t *DomTree) build(f *ir.Function) {
	t.number(f)
	n := len(t.order)

	// Predecessor CSR by counting sort over the successor runs: count
	// into predOff[j+2], prefix-sum so predOff[j+1] is j's start, then
	// fill advancing predOff[j+1] to j's end.
	t.predOff = resize(t.predOff, n+2)
	clear(t.predOff)
	for _, b := range t.order {
		for _, s := range t.succ[t.succLo[b.ID]:t.succHi[b.ID]] {
			t.predOff[t.num[s.ID]+2]++
		}
	}
	for i := 2; i < len(t.predOff); i++ {
		t.predOff[i] += t.predOff[i-1]
	}
	t.pred = resize(t.pred, int(t.predOff[n+1]))
	for i, b := range t.order {
		for _, s := range t.succ[t.succLo[b.ID]:t.succHi[b.ID]] {
			j := t.num[s.ID] + 1
			t.pred[t.predOff[j]] = int32(i)
			t.predOff[j]++
		}
	}
	t.predOff = t.predOff[:n+1]

	// Cooper–Harvey–Kennedy over RPO indices. Every reachable block
	// but the entry has its DFS parent earlier in RPO, so the first
	// sweep gives each one a provisional dominator.
	t.idom = resize(t.idom, n)
	for i := range t.idom {
		t.idom[i] = -1
	}
	if n > 0 {
		t.idom[0] = 0
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			d := int32(-1)
			for _, p := range t.pred[t.predOff[i]:t.predOff[i+1]] {
				if t.idom[p] < 0 {
					continue // not yet processed
				}
				if d < 0 {
					d = p
				} else {
					d = t.intersect(p, d)
				}
			}
			if t.idom[i] != d {
				t.idom[i] = d
				changed = true
			}
		}
	}
}

// number fills order, num and the successor runs with an
// explicit-stack DFS from the entry that visits successors in
// first-branch order. Each reachable block's successors are collected
// once, when the DFS first reaches it.
func (t *DomTree) number(f *ir.Function) {
	bound := f.BlockIDBound()
	t.num = resize(t.num, bound)
	for i := range t.num {
		t.num[i] = -1
	}
	t.succLo = resize(t.succLo, bound)
	t.succHi = resize(t.succHi, bound)
	t.order = resize(t.order, len(f.Blocks))[:0]
	t.stack = resize(t.stack, len(f.Blocks))[:0]
	// Two successors per block rarely needs regrowth.
	t.succ = resize(t.succ, 2*len(f.Blocks))[:0]
	e := f.Entry()
	if e == nil {
		return
	}
	push := func(b *ir.Block) {
		t.num[b.ID] = 0 // seen
		t.succLo[b.ID] = int32(len(t.succ))
		t.succ = b.SuccsAppend(t.succ)
		t.succHi[b.ID] = int32(len(t.succ))
		t.stack = append(t.stack, dfsFrame{b: b, next: t.succLo[b.ID]})
	}
	push(e)
	for len(t.stack) > 0 {
		fr := &t.stack[len(t.stack)-1]
		if fr.next < t.succHi[fr.b.ID] {
			s := t.succ[fr.next]
			fr.next++
			if t.num[s.ID] < 0 {
				push(s)
			}
			continue
		}
		t.order = append(t.order, fr.b)
		t.stack = t.stack[:len(t.stack)-1]
	}
	for i, j := 0, len(t.order)-1; i < j; i, j = i+1, j-1 {
		t.order[i], t.order[j] = t.order[j], t.order[i]
	}
	for i, b := range t.order {
		t.num[b.ID] = int32(i)
	}
}

// resize returns s with length n, reallocating only when it lacks the
// capacity. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (t *DomTree) intersect(a, b int32) int32 {
	for a != b {
		for a > b {
			a = t.idom[a]
		}
		for b > a {
			b = t.idom[b]
		}
	}
	return a
}

// index returns b's RPO index, or -1 if b is unreachable or not a
// block of the function the tree was built for.
func (t *DomTree) index(b *ir.Block) int32 {
	if b.ID < 0 || b.ID >= len(t.num) {
		return -1
	}
	if i := t.num[b.ID]; i >= 0 && t.order[i] == b {
		return i
	}
	return -1
}

// dominates reports whether RPO index a dominates RPO index b.
func (t *DomTree) dominates(a, b int32) bool {
	for b > a {
		b = t.idom[b]
	}
	return a == b
}

// Dominates reports whether a dominates b (reflexively). An
// unreachable block dominates only itself and is dominated only by
// itself.
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if a == b {
		return true
	}
	ia, ib := t.index(a), t.index(b)
	return ia >= 0 && ib >= 0 && t.dominates(ia, ib)
}

// Idom returns b's immediate dominator, or nil for the entry and for
// unreachable blocks.
func (t *DomTree) Idom(b *ir.Block) *ir.Block {
	if i := t.index(b); i > 0 {
		return t.order[t.idom[i]]
	}
	return nil
}

// IsBackEdge reports whether the CFG edge from -> to is a back edge:
// from is reachable and to dominates it.
func (t *DomTree) IsBackEdge(from, to *ir.Block) bool {
	ifrom, ito := t.index(from), t.index(to)
	return ifrom >= 0 && ito >= 0 && t.dominates(ito, ifrom)
}

// IsHeader reports whether b is a natural-loop header: some reachable
// predecessor of b is dominated by b.
func (t *DomTree) IsHeader(b *ir.Block) bool {
	i := t.index(b)
	if i < 0 {
		return false
	}
	for _, p := range t.pred[t.predOff[i]:t.predOff[i+1]] {
		if t.dominates(i, p) {
			return true
		}
	}
	return false
}
