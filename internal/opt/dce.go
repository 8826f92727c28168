package opt

import (
	"sync"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// dceScratch is the pooled working state of DeadCodeElim: a
// needed-register bitset plus a Uses buffer, reused across calls so
// steady-state DCE performs no allocations.
type dceScratch struct {
	needed analysis.RegSet
	buf    []ir.Reg
}

var dcePool = sync.Pool{New: func() any { return new(dceScratch) }}

// DeadCodeElim removes pure instructions from b whose destination is
// neither read later in the block nor live out of it. liveOut may be
// nil (treated as everything-dead, appropriate only for blocks whose
// values provably do not escape). It reports whether anything was
// removed.
//
// The pass walks backwards keeping a needed-register set. A
// predicated definition does not remove its destination from the
// needed set (the write may not execute, so earlier definitions still
// matter).
func DeadCodeElim(b *ir.Block, liveOut analysis.RegSet) bool {
	// Size the needed set to cover both liveOut and every register
	// mentioned in the block.
	maxR := ir.NoReg
	for _, in := range b.Instrs {
		if in.Dst > maxR {
			maxR = in.Dst
		}
		if in.A > maxR {
			maxR = in.A
		}
		if in.B > maxR {
			maxR = in.B
		}
		if in.Pred > maxR {
			maxR = in.Pred
		}
		for _, a := range in.Args {
			if a > maxR {
				maxR = a
			}
		}
	}
	words := (int(maxR) + 64) / 64
	if len(liveOut) > words {
		words = len(liveOut)
	}
	sc := dcePool.Get().(*dceScratch)
	if cap(sc.needed) < words {
		sc.needed = make(analysis.RegSet, words)
	} else {
		sc.needed = sc.needed[:words]
		clear(sc.needed)
	}
	needed := sc.needed
	copy(needed, liveOut)
	changed := false
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := b.Instrs[i]
		if in.Op.Pure() {
			if !needed.Has(in.Dst) {
				b.RemoveAt(i)
				changed = true
				continue
			}
			if !in.Predicated() {
				needed.Remove(in.Dst)
			}
		} else if d := in.Def(); d.Valid() && !in.Predicated() {
			// Impure definitions (loads, calls) are kept but still
			// kill the register for earlier defs.
			needed.Remove(d)
		}
		sc.buf = in.Uses(sc.buf)
		for _, r := range sc.buf {
			needed.Add(r)
		}
	}
	dcePool.Put(sc)
	return changed
}
