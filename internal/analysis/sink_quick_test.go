package analysis

import (
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/xrand"
)

// randomBody returns fresh random instructions over regs for a block
// of f: pure defs, moves, predicated defs and null writes, then up to
// three (possibly predicated) branches to arbitrary blocks — the
// block itself and blocks unreachable from the entry included — and
// sometimes a return.
func randomBody(rnd *xrand.Stream, f *ir.Function, regs []ir.Reg) []*ir.Instr {
	reg := func() ir.Reg { return regs[rnd.Intn(len(regs))] }
	pred := func(in *ir.Instr) *ir.Instr {
		if rnd.Intn(3) == 0 {
			in.Pred, in.PredSense = reg(), rnd.Intn(2) == 0
		}
		return in
	}
	var out []*ir.Instr
	for i, n := 0, rnd.Intn(6); i < n; i++ {
		in := &ir.Instr{Dst: reg(), A: ir.NoReg, B: ir.NoReg, Pred: ir.NoReg}
		switch rnd.Intn(4) {
		case 0:
			in.Op, in.Imm = ir.OpConst, int64(i)
		case 1:
			in.Op, in.A, in.B = ir.OpAdd, reg(), reg()
		case 2:
			in.Op, in.A = ir.OpMov, reg()
		default:
			in.Op = ir.OpNullW
			in.Pred, in.PredSense = reg(), true
		}
		out = append(out, pred(in))
	}
	for i, n := 0, rnd.Intn(4); i < n; i++ {
		out = append(out, pred(&ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg,
			B: ir.NoReg, Pred: ir.NoReg, Target: f.Blocks[rnd.Intn(len(f.Blocks))]}))
	}
	if rnd.Intn(3) == 0 {
		out = append(out, &ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: reg(),
			B: ir.NoReg, Pred: ir.NoReg})
	}
	return out
}

// Property: on random CFGs (irreducible cycles, self-loops and blocks
// unreachable from the entry arise freely), for every block as the
// sink and random rewrites of the sink's instructions and out-edges,
// the summary's LiveOut equals whole-function liveness of the
// rewritten function. Rewrites may use registers allocated after the
// summary was built, as trial merges do.
func TestQuickSinkSummaryMatchesLiveness(t *testing.T) {
	compared := 0
	check := func(seed uint64) bool {
		rnd := xrand.Stream(seed)
		f := ir.NewFunction("f", 0)
		regs := make([]ir.Reg, 2+rnd.Intn(70))
		for i := range regs {
			regs[i] = f.NewReg()
		}
		for i, n := 0, 1+rnd.Intn(9); i < n; i++ {
			f.NewBlock("b")
		}
		for _, b := range f.Blocks {
			b.Instrs = randomBody(&rnd, f, regs)
		}
		for _, h := range f.Blocks {
			sum := SummarizeSink(f, h)
			orig := h.Instrs
			for trial := 0; trial < 4; trial++ {
				if trial > 0 {
					fresh := append([]ir.Reg(nil), regs...)
					for i := rnd.Intn(3); i > 0; i-- {
						fresh = append(fresh, f.NewReg())
					}
					h.Instrs = randomBody(&rnd, f, fresh)
				}
				lv := ComputeLiveness(f)
				wantOut, ok := lv.Out[h]
				if !ok {
					continue // h unreachable: no reference to compare with
				}
				compared++
				out, ue := sum.LiveOut(h, f.NumRegs())
				if !sameMembers(out, wantOut) || !sameMembers(ue, lv.UEVar[h]) {
					t.Logf("seed %d sink %v trial %d: out %v want %v, ue %v want %v",
						seed, h, trial, out.Members(), wantOut.Members(),
						ue.Members(), lv.UEVar[h].Members())
					return false
				}
			}
			h.Instrs = orig
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if compared < 1000 {
		t.Fatalf("only %d sink rewrites were reachable and compared", compared)
	}
}

func sameMembers(a, b RegSet) bool {
	am, bm := a.Members(), b.Members()
	if len(am) != len(bm) {
		return false
	}
	for i := range am {
		if am[i] != bm[i] {
			return false
		}
	}
	return true
}
