package analysis

import "repro/internal/ir"

// Loop describes one natural loop.
type Loop struct {
	// Header is the loop's entry block (target of its back edges).
	Header *ir.Block
	// Blocks is the loop body including the header.
	Blocks map[*ir.Block]bool
	// Latches are the source blocks of back edges into Header.
	Latches []*ir.Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Children are the immediately nested loops.
	Children []*Loop
	// Depth is 1 for outermost loops.
	Depth int
}

// Contains reports whether b belongs to the loop body.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// Exits returns the distinct blocks outside the loop that are branch
// targets of blocks inside it.
func (l *Loop) Exits() []*ir.Block {
	var out []*ir.Block
	seen := map[*ir.Block]bool{}
	for b := range l.Blocks {
		for _, s := range b.Succs() {
			if !l.Blocks[s] && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sortBlocksByID(out)
	return out
}

// LoopForest is the set of natural loops of a function.
type LoopForest struct {
	// Top lists outermost loops.
	Top []*Loop
	// ByHeader maps each loop header to its loop. Natural loops
	// sharing a header are merged into one Loop.
	ByHeader map[*ir.Block]*Loop
	// loopOf maps each block to its innermost containing loop.
	loopOf map[*ir.Block]*Loop
}

// InnermostLoop returns the innermost loop containing b, or nil.
func (lf *LoopForest) InnermostLoop(b *ir.Block) *Loop { return lf.loopOf[b] }

// IsHeader reports whether b is a loop header.
func (lf *LoopForest) IsHeader(b *ir.Block) bool { return lf.ByHeader[b] != nil }

// IsBackEdge reports whether the CFG edge from -> to is a back edge of
// some natural loop (to is a header whose loop contains from).
func (lf *LoopForest) IsBackEdge(from, to *ir.Block) bool {
	l := lf.ByHeader[to]
	return l != nil && l.Blocks[from]
}

// Loops computes the natural-loop forest of f using the dominator
// tree: an edge n->h is a back edge iff h dominates n. Loops with a
// shared header are merged.
func Loops(f *ir.Function) *LoopForest {
	return LoopsWithDom(Dominators(f))
}

// LoopsWithDom is Loops over a precomputed dominator tree; it walks
// the tree's predecessor index, so the forest needs no CFG pass of its
// own. Formation asks the DomTree directly (IsHeader, IsBackEdge); the
// forest serves passes that need loop bodies and nesting.
func LoopsWithDom(dom *DomTree) *LoopForest {
	lf := &LoopForest{
		ByHeader: map[*ir.Block]*Loop{},
		loopOf:   map[*ir.Block]*Loop{},
	}

	// Find back edges and collect loop bodies.
	var stack []int32
	for ni, n := range dom.order {
		for _, h := range dom.succ[dom.succLo[n.ID]:dom.succHi[n.ID]] {
			hi := dom.num[h.ID]
			if !dom.dominates(hi, int32(ni)) {
				continue
			}
			l := lf.ByHeader[h]
			if l == nil {
				l = &Loop{Header: h, Blocks: map[*ir.Block]bool{h: true}}
				lf.ByHeader[h] = l
			}
			l.Latches = append(l.Latches, n)
			// Walk predecessors backward from the latch until the
			// header, adding all encountered blocks.
			stack = append(stack[:0], int32(ni))
			for len(stack) > 0 {
				bi := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				b := dom.order[bi]
				if l.Blocks[b] {
					continue
				}
				l.Blocks[b] = true
				for _, p := range dom.pred[dom.predOff[bi]:dom.predOff[bi+1]] {
					if !l.Blocks[dom.order[p]] {
						stack = append(stack, p)
					}
				}
			}
		}
	}

	// Nesting: loop A is inside loop B iff B contains A's header and
	// A != B.
	var loops []*Loop
	for _, l := range lf.ByHeader {
		loops = append(loops, l)
	}
	// Deterministic order by header ID.
	for i := 1; i < len(loops); i++ {
		for j := i; j > 0 && loops[j-1].Header.ID > loops[j].Header.ID; j-- {
			loops[j-1], loops[j] = loops[j], loops[j-1]
		}
	}
	for _, a := range loops {
		var best *Loop
		for _, b := range loops {
			if a == b || !b.Blocks[a.Header] {
				continue
			}
			if best == nil || best.Blocks[b.Header] {
				// b is nested inside best, hence closer to a.
				best = b
			}
		}
		a.Parent = best
		if best != nil {
			best.Children = append(best.Children, a)
		} else {
			lf.Top = append(lf.Top, a)
		}
	}
	var setDepth func(l *Loop, d int)
	setDepth = func(l *Loop, d int) {
		l.Depth = d
		for _, c := range l.Children {
			setDepth(c, d+1)
		}
	}
	for _, l := range lf.Top {
		setDepth(l, 1)
	}

	// Innermost loop per block: the containing loop with max depth.
	for _, l := range loops {
		for b := range l.Blocks {
			cur := lf.loopOf[b]
			if cur == nil || l.Depth > cur.Depth {
				lf.loopOf[b] = l
			}
		}
	}
	return lf
}

func sortBlocksByID(bs []*ir.Block) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j-1].ID > bs[j].ID; j-- {
			bs[j-1], bs[j] = bs[j], bs[j-1]
		}
	}
}
