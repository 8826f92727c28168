package analysis

import "repro/internal/ir"

// SinkSummary condenses f's liveness around one sink block h so that
// h's live-out set can be recomputed in O(|h|) after h's instructions
// or out-edges change, instead of rerunning the whole-function
// fixpoint. The convergent formation loop edits only the hyperblock
// it is growing, so one summary per seed serves every trial merge.
//
// Liveness is distributive, so for every block t ≠ h
//
//	In[t] = A[t] ∪ (In[h] − K[t])   if t reaches h
//	In[t] = A[t]                     otherwise
//
// where A[t] is In[t] computed with In[h] = ∅ and K[t] is the set of
// registers killed (unpredicated defs) on every path from t to its
// first arrival at h. A, K and reachability depend only on blocks
// other than h, so h may be rewritten freely; any change to another
// block invalidates the summary.
type SinkSummary struct {
	sink *ir.Block
	a, k []RegSet // by block ID; k is meaningful only where r is set
	r    []bool   // by block ID: the block reaches the sink
}

// SummarizeSink builds the summary of f around sink h. Every block of
// f is covered, including blocks unreachable from the entry: an edit
// of h may make them reachable.
func SummarizeSink(f *ir.Function, h *ir.Block) *SinkSummary {
	order := Postorder(f)
	if len(order) < len(f.Blocks) {
		seen := make([]bool, f.BlockIDBound())
		for _, b := range order {
			seen[b.ID] = true
		}
		for _, b := range f.Blocks {
			if !seen[b.ID] {
				order = append(order, b)
			}
		}
	}
	words := (f.NumRegs() + 63) / 64
	bound := f.BlockIDBound()
	s := &SinkSummary{
		sink: h,
		a:    make([]RegSet, bound),
		k:    make([]RegSet, bound),
		r:    make([]bool, bound),
	}
	arena := make([]uint64, (4*len(order)+1)*words)
	take := func() RegSet {
		set := RegSet(arena[:words:words])
		arena = arena[words:]
		return set
	}
	ueS := make([]RegSet, bound)
	killS := make([]RegSet, bound)
	succs := succLists(f)
	var buf []ir.Reg
	for _, b := range order {
		if b == h {
			continue
		}
		ueS[b.ID], killS[b.ID] = take(), take()
		buf = blockUEKill(b, ueS[b.ID], killS[b.ID], buf)
		s.a[b.ID], s.k[b.ID] = take(), take()
	}
	tmp := take()
	for changed := true; changed; {
		changed = false
		for _, t := range order {
			if t == h {
				continue
			}
			ue, kill := ueS[t.ID], killS[t.ID]
			// A[t] = UE ∪ (∪ A[succ ≠ h] − Kill)
			clear(tmp)
			for _, x := range succs[t.ID] {
				if x != h {
					unionInto(tmp, s.a[x.ID])
				}
			}
			for i := range tmp {
				tmp[i] = ue[i] | tmp[i]&^kill[i]
			}
			if unionInto(s.a[t.ID], tmp) {
				changed = true
			}
			// K[t] = Kill ∪ ∩ K over successors that reach h, where
			// arriving at h contributes ∅. Successors not (yet) known
			// to reach h stand for ⊤, so K only ever shrinks.
			reach := false
			for i := range tmp {
				tmp[i] = ^uint64(0)
			}
			for _, x := range succs[t.ID] {
				switch {
				case x == h:
					reach = true
					clear(tmp)
				case s.r[x.ID]:
					reach = true
					for i, w := range s.k[x.ID] {
						tmp[i] &= w
					}
				}
			}
			if !reach {
				continue
			}
			k := s.k[t.ID]
			first := !s.r[t.ID]
			s.r[t.ID] = true
			for i := range k {
				if w := kill[i] | tmp[i]; first || w != k[i] {
					k[i] = w
					changed = true
				}
			}
		}
	}
	return s
}

// Sink returns the block the summary was built around.
func (s *SinkSummary) Sink() *ir.Block { return s.sink }

// LiveOut returns Out[h] and UEVar[h] for the sink's current
// instructions and out-edges, exactly as ComputeLiveness would on the
// whole function, with both sets sized for n registers. Registers
// allocated after the summary was built may appear only in h.
//
// With X = UE ∪ (Out − Kill) the sink's own live-in, Out is the least
// solution of Out = ∪ over successors t of A[t] ∪ (X − K[t]) (or of X
// itself along a self-edge), found by iterating from ∅.
func (s *SinkSummary) LiveOut(h *ir.Block, n int) (out, ue RegSet) {
	words := (n + 63) / 64
	arena := make([]uint64, 4*words)
	out, ue = arena[:words:words], arena[words:2*words:2*words]
	kill, x := arena[2*words:3*words:3*words], RegSet(arena[3*words:])
	blockUEKill(h, ue, kill, nil)
	succs := h.Succs()
	for changed := true; changed; {
		changed = false
		for i := range x {
			x[i] = ue[i] | out[i]&^kill[i]
		}
		for _, t := range succs {
			if t == h {
				changed = unionInto(out, x) || changed
				continue
			}
			changed = unionInto(out, s.a[t.ID]) || changed
			if !s.r[t.ID] {
				continue
			}
			k := s.k[t.ID]
			for i := range out {
				w := x[i]
				if i < len(k) {
					w &^= k[i]
				}
				if nw := out[i] | w; nw != out[i] {
					out[i] = nw
					changed = true
				}
			}
		}
	}
	return out, ue
}
