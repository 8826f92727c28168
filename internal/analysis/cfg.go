// Package analysis provides the control-flow and dataflow analyses the
// hyperblock former and optimizer depend on: reverse postorder,
// a dense dominator index (Cooper–Harvey–Kennedy), a natural-loop
// forest, liveness, and def-use summaries.
package analysis

import "repro/internal/ir"

// succLists returns per-block distinct-successor lists indexed by
// block ID, all backed by one flat arena (capacity is the total branch
// count, an upper bound on distinct successors, so the arena never
// reallocates and the subslices stay valid).
func succLists(f *ir.Function) [][]*ir.Block {
	lists := make([][]*ir.Block, f.BlockIDBound())
	total := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpBr {
				total++
			}
		}
	}
	arena := make([]*ir.Block, 0, total)
	for _, b := range f.Blocks {
		start := len(arena)
		arena = b.SuccsAppend(arena)
		lists[b.ID] = arena[start:len(arena):len(arena)]
	}
	return lists
}

// ReversePostorder returns the blocks reachable from f's entry in
// reverse postorder of a depth-first traversal that visits each
// block's successors in first-branch order. Unreachable blocks are
// omitted. It is the numbering a DomTree is built on.
func ReversePostorder(f *ir.Function) []*ir.Block {
	var t DomTree
	t.number(f)
	return t.order
}

// Postorder returns reachable blocks in postorder.
func Postorder(f *ir.Function) []*ir.Block {
	rpo := ReversePostorder(f)
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	return rpo
}

// EdgeCount returns the number of distinct CFG edges (p, s) in f.
func EdgeCount(f *ir.Function) int {
	n := 0
	var buf []*ir.Block
	for _, b := range f.Blocks {
		buf = b.SuccsAppend(buf[:0])
		n += len(buf)
	}
	return n
}
