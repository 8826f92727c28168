package analysis

import (
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/xrand"
)

// domOracle computes dominance independently of DomTree: reachability
// by a plain DFS, then the textbook set-intersection fixpoint
// Dom(entry) = {entry}, Dom(b) = {b} ∪ ⋂ Dom(p) over reachable
// predecessors p. dom[b][a] reports whether a dominates b (IDs).
func domOracle(f *ir.Function) (reach []bool, dom [][]bool) {
	n := f.BlockIDBound()
	reach = make([]bool, n)
	stack := []*ir.Block{f.Entry()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[b.ID] {
			continue
		}
		reach[b.ID] = true
		stack = append(stack, b.Succs()...)
	}
	preds := make([][]*ir.Block, n)
	for _, p := range f.Blocks {
		if reach[p.ID] {
			for _, s := range p.Succs() {
				preds[s.ID] = append(preds[s.ID], p)
			}
		}
	}
	dom = make([][]bool, n)
	for _, b := range f.Blocks {
		dom[b.ID] = make([]bool, n)
		for _, a := range f.Blocks {
			dom[b.ID][a.ID] = reach[a.ID]
		}
	}
	entry := f.Entry()
	clear(dom[entry.ID])
	dom[entry.ID][entry.ID] = true
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if b == entry || !reach[b.ID] {
				continue
			}
			for _, a := range f.Blocks {
				v := a == b
				if !v {
					v = true
					for _, p := range preds[b.ID] {
						v = v && dom[p.ID][a.ID]
					}
				}
				if dom[b.ID][a.ID] != v {
					dom[b.ID][a.ID] = v
					changed = true
				}
			}
		}
	}
	return reach, dom
}

// checkDomTree compares t with the oracle on every block pair and with
// the natural-loop forest on every edge; stats counts what was seen.
func checkDomTree(t *testing.T, f *ir.Function, dt *DomTree, stats map[string]int) bool {
	t.Helper()
	reach, dom := domOracle(f)
	for _, b := range f.Blocks {
		if !reach[b.ID] {
			stats["unreachable"]++
		}
		var strict []*ir.Block
		for _, a := range f.Blocks {
			want := a == b || (reach[a.ID] && reach[b.ID] && dom[b.ID][a.ID])
			if got := dt.Dominates(a, b); got != want {
				t.Logf("Dominates(%v, %v) = %v, want %v\n%s", a, b, got, want, ir.FormatFunction(f))
				return false
			}
			if want && a != b {
				strict = append(strict, a)
			}
		}
		// The immediate dominator is the strict dominator that every
		// other strict dominator dominates.
		var idom *ir.Block
		for _, d := range strict {
			all := true
			for _, o := range strict {
				all = all && dom[d.ID][o.ID]
			}
			if all {
				idom = d
			}
		}
		if got := dt.Idom(b); got != idom {
			t.Logf("Idom(%v) = %v, want %v\n%s", b, got, idom, ir.FormatFunction(f))
			return false
		}
	}
	lf := Loops(f)
	for _, p := range f.Blocks {
		succs := p.Succs()
		for _, s := range succs {
			stats["edges"]++
			if s == p {
				stats["self-loops"]++
			}
			if got, want := dt.IsBackEdge(p, s), lf.IsBackEdge(p, s); got != want {
				t.Logf("IsBackEdge(%v, %v) = %v, forest says %v\n%s", p, s, got, want, ir.FormatFunction(f))
				return false
			}
			if got, want := dt.IsHeader(s), lf.IsHeader(s); got != want {
				t.Logf("IsHeader(%v) = %v, forest says %v\n%s", s, got, want, ir.FormatFunction(f))
				return false
			}
			if dt.IsBackEdge(p, s) {
				stats["back edges"]++
			}
		}
		nbr := 0
		for _, in := range p.Instrs {
			if in.Op == ir.OpBr {
				nbr++
			}
		}
		if nbr > len(succs) {
			stats["parallel edges"]++
		}
	}
	// A cycle among reachable blocks none of whose edges is a back
	// edge is irreducible; count functions whose reachable part is
	// cyclic beyond what the natural loops explain.
	if hasIrreducibleCycle(f, reach, dt) {
		stats["irreducible"]++
	}
	return true
}

// hasIrreducibleCycle reports whether removing every back edge still
// leaves a cycle among reachable blocks.
func hasIrreducibleCycle(f *ir.Function, reach []bool, dt *DomTree) bool {
	state := make([]int, f.BlockIDBound()) // 0 new, 1 on stack, 2 done
	var visit func(b *ir.Block) bool
	visit = func(b *ir.Block) bool {
		state[b.ID] = 1
		for _, s := range b.Succs() {
			if dt.IsBackEdge(b, s) {
				continue
			}
			if state[s.ID] == 1 || (state[s.ID] == 0 && visit(s)) {
				return true
			}
		}
		state[b.ID] = 2
		return false
	}
	for _, b := range f.Blocks {
		if reach[b.ID] && state[b.ID] == 0 && visit(b) {
			return true
		}
	}
	return false
}

// Property: on random CFGs (irreducible cycles, self-loops, parallel
// edges and blocks unreachable from the entry arise freely) the dense
// index agrees with an independent dominator fixpoint on every block
// pair and with the natural-loop forest on every edge. The index is
// then rebuilt on one Cache after random edits — rewritten blocks,
// blocks with fresh IDs, removed blocks — so a stale entry left in a
// reused buffer would surface as a disagreement.
func TestQuickDomTreeMatchesOracle(t *testing.T) {
	stats := map[string]int{}
	check := func(seed uint64) bool {
		rnd := xrand.Stream(seed)
		f := ir.NewFunction("f", 0)
		regs := make([]ir.Reg, 2+rnd.Intn(6))
		for i := range regs {
			regs[i] = f.NewReg()
		}
		for i, n := 0, 1+rnd.Intn(12); i < n; i++ {
			f.NewBlock("b")
		}
		for _, b := range f.Blocks {
			b.Instrs = randomBody(&rnd, f, regs)
		}
		var c Cache
		for round := 0; round < 6; round++ {
			if round > 0 {
				switch rnd.Intn(3) {
				case 0:
					for i := rnd.Intn(3); i >= 0; i-- {
						f.NewBlock("new")
					}
				case 1:
					f.RemoveUnreachable()
				}
				for i := 1 + rnd.Intn(3); i > 0; i-- {
					b := f.Blocks[rnd.Intn(len(f.Blocks))]
					b.Instrs = randomBody(&rnd, f, regs)
				}
				f.MarkDirty()
			}
			if !checkDomTree(t, f, c.Dom(f), stats) {
				t.Logf("seed %d round %d", seed, round)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"unreachable", "self-loops", "parallel edges", "back edges", "irreducible"} {
		if stats[k] == 0 {
			t.Errorf("generator produced no %s", k)
		}
	}
	t.Logf("%v", stats)
}

// A warm Cache rebuilds its dominator index in place: after a version
// bump with an unchanged BlockIDBound the rebuild allocates nothing.
func TestCacheDomRebuildAllocs(t *testing.T) {
	f, bs := buildLoopNest(t)
	var c Cache
	c.Dom(f)
	v := f.Version()
	allocs := testing.AllocsPerRun(100, func() {
		f.MarkDirty()
		c.Dom(f)
	})
	if f.Version() == v {
		t.Fatal("version did not advance; nothing was rebuilt")
	}
	if allocs != 0 {
		t.Fatalf("warm dominator rebuild: %v allocs/op, want 0", allocs)
	}
	if dom := c.Dom(f); !dom.IsHeader(bs["B"]) || !dom.IsBackEdge(bs["H"], bs["B"]) {
		t.Fatal("rebuilt index lost the outer loop")
	}
}
