package policy

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/sim/functional"
	"repro/internal/trips"
)

// hotColdSrc has a hot arm (taken ~95% of iterations) and a cold arm.
const hotColdSrc = `
func main(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) {
    if (i % 50 == 49) { s = s * 3; } else { s = s + i; }
  }
  print(s);
  return s;
}`

func compileWithProfile(t *testing.T, src string, args ...int64) (*ir.Program, *profile.Profile) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := profile.Collect(ir.CloneProgram(prog), "main", args...)
	if err != nil {
		t.Fatal(err)
	}
	return prog, prof
}

func ctxFor(t *testing.T, prog *ir.Program, prof *profile.Profile) *core.Context {
	t.Helper()
	f := prog.Func("main")
	return &core.Context{
		F:    f,
		HB:   f.Entry(),
		Prof: prof.Get("main"),
		Dom:  analysis.Dominators(f),
		Cons: trips.Default(),
	}
}

func TestBreadthFirstOrder(t *testing.T) {
	prog, prof := compileWithProfile(t, hotColdSrc, 100)
	ctx := ctxFor(t, prog, prof)
	bf := BreadthFirst{}
	bf.Prepare(ctx)
	cands := ctx.F.Blocks[:3]
	if got := bf.Select(ctx, cands); got != 0 {
		t.Fatalf("BF must pick index 0, got %d", got)
	}
	if got := bf.Select(ctx, nil); got != -1 {
		t.Fatal("BF on empty list must return -1")
	}
	if bf.Name() != "breadth-first" {
		t.Fatal("name")
	}
}

func TestDepthFirstPicksHottest(t *testing.T) {
	prog, prof := compileWithProfile(t, hotColdSrc, 200)
	f := prog.Func("main")
	fp := prof.Get("main")
	// Find the loop-body branch block: the block with two successors
	// of very different frequency.
	var hb, hot, cold *ir.Block
	for _, b := range f.Blocks {
		ss := b.Succs()
		if len(ss) != 2 {
			continue
		}
		f0, f1 := fp.EdgeFreq(b, ss[0]), fp.EdgeFreq(b, ss[1])
		if f0+f1 < 100 || f0 == f1 {
			continue
		}
		hb = b
		if f0 > f1 {
			hot, cold = ss[0], ss[1]
		} else {
			hot, cold = ss[1], ss[0]
		}
	}
	if hb == nil {
		t.Fatal("no biased branch found")
	}
	ctx := &core.Context{F: f, HB: hb, Prof: fp, Dom: analysis.Dominators(f), Cons: trips.Default()}
	df := DepthFirst{}
	df.Prepare(ctx)
	got := df.Select(ctx, []*ir.Block{cold, hot})
	if got != 1 {
		t.Fatalf("DF must pick the hot arm (index 1), got %d", got)
	}
	// With only the cold candidate left, DF must refuse it.
	if got := df.Select(ctx, []*ir.Block{cold}); got != -1 {
		t.Fatalf("DF must refuse cold candidates, got %d", got)
	}
}

func TestDepthFirstWithoutProfile(t *testing.T) {
	prog, _ := compileWithProfile(t, hotColdSrc, 10)
	f := prog.Func("main")
	ctx := &core.Context{F: f, HB: f.Entry(), Dom: analysis.Dominators(f), Cons: trips.Default()}
	df := DepthFirst{}
	cands := f.Blocks[:3]
	if got := df.Select(ctx, cands); got != 2 {
		t.Fatalf("profile-less DF must pick LIFO (2), got %d", got)
	}
}

func TestVLIWPrepassAdmitsHotPath(t *testing.T) {
	prog, prof := compileWithProfile(t, hotColdSrc, 200)
	f := prog.Func("main")
	fp := prof.Get("main")
	ctx := &core.Context{F: f, HB: f.Entry(), Prof: fp, Dom: analysis.Dominators(f), Cons: trips.Default()}
	v := &VLIW{}
	v.Prepare(ctx)
	if len(v.admitted) == 0 {
		t.Fatal("VLIW prepass admitted nothing")
	}
	// The seed must be admitted with rank 0.
	if r, ok := v.admitted[ctx.HB.ID]; !ok || r != 0 {
		t.Fatalf("seed not admitted first: %v %v", r, ok)
	}
}

func TestVLIWSelectRespectsAdmission(t *testing.T) {
	prog, prof := compileWithProfile(t, hotColdSrc, 200)
	f := prog.Func("main")
	ctx := &core.Context{F: f, HB: f.Entry(), Prof: prof.Get("main"),
		Dom: analysis.Dominators(f), Cons: trips.Default()}
	v := &VLIW{}
	v.Prepare(ctx)
	// A candidate list containing only the seed itself must be
	// refused (no unrolling under the acyclic VLIW heuristic).
	if got := v.Select(ctx, []*ir.Block{ctx.HB}); got != -1 {
		t.Fatalf("VLIW must refuse self-merge, got %d", got)
	}
}

func TestVLIWSmallBudgetAdmitsLess(t *testing.T) {
	prog, prof := compileWithProfile(t, hotColdSrc, 200)
	f := prog.Func("main")
	big := &core.Context{F: f, HB: f.Entry(), Prof: prof.Get("main"),
		Dom: analysis.Dominators(f), Cons: trips.Default()}
	small := &core.Context{F: f, HB: f.Entry(), Prof: prof.Get("main"),
		Dom:  analysis.Dominators(f),
		Cons: trips.Constraints{MaxInstrs: 6, MaxMemOps: 32, RegBanks: 4, MaxReadsPerBank: 8, MaxWritesPerBank: 8}}
	vBig, vSmall := &VLIW{}, &VLIW{}
	vBig.Prepare(big)
	vSmall.Prepare(small)
	if len(vSmall.admitted) > len(vBig.admitted) {
		t.Fatalf("smaller budget admitted more blocks: %d > %d",
			len(vSmall.admitted), len(vBig.admitted))
	}
}

func TestDepHeight(t *testing.T) {
	f := ir.NewFunction("f", 2)
	b := f.NewBlock("entry")
	bd := ir.NewBuilder(f, b)
	// Chain of 3 dependent adds: height 4 including the ret.
	x := bd.Bin(ir.OpAdd, f.Params[0], f.Params[1])
	y := bd.Bin(ir.OpAdd, x, f.Params[1])
	z := bd.Bin(ir.OpAdd, y, f.Params[1])
	bd.Ret(z)
	if h := depHeight(b); h != 4 {
		t.Fatalf("depHeight = %d, want 4", h)
	}
	// Independent instructions: height stays small.
	f2 := ir.NewFunction("g", 2)
	b2 := f2.NewBlock("entry")
	bd2 := ir.NewBuilder(f2, b2)
	bd2.Bin(ir.OpAdd, f2.Params[0], f2.Params[1])
	bd2.Bin(ir.OpSub, f2.Params[0], f2.Params[1])
	bd2.Bin(ir.OpMul, f2.Params[0], f2.Params[1])
	bd2.Ret(f2.Params[0])
	if h := depHeight(b2); h != 1 {
		t.Fatalf("independent depHeight = %d, want 1", h)
	}
}

// End-to-end: all three policies drive formation to correct code.
func TestPoliciesPreserveSemantics(t *testing.T) {
	prog, prof := compileWithProfile(t, hotColdSrc, 100)
	wantV, wantOut, _, err := functional.RunProgram(ir.CloneProgram(prog), "main", 100)
	if err != nil {
		t.Fatal(err)
	}
	pols := []core.Policy{BreadthFirst{}, DepthFirst{}, &VLIW{}}
	for _, pol := range pols {
		p := ir.CloneProgram(prog)
		cfg := core.Config{Cons: trips.Default(), IterOpt: true, HeadDup: true, Policy: pol}
		core.FormProgram(p, cfg, prof)
		if err := ir.VerifyProgram(p); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		gotV, gotOut, _, err := functional.RunProgram(p, "main", 100)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if gotV != wantV || len(gotOut) != len(wantOut) {
			t.Fatalf("%s: semantics broken: %d vs %d", pol.Name(), gotV, wantV)
		}
	}
}

// BF merges both arms; DF with profile excludes the cold arm, so the
// formed code should differ (DF leaves more blocks).
func TestBFMergesMoreThanDF(t *testing.T) {
	prog, prof := compileWithProfile(t, hotColdSrc, 200)
	formWith := func(pol core.Policy) int {
		p := ir.CloneProgram(prog)
		cfg := core.Config{Cons: trips.Default(), IterOpt: true, HeadDup: false, Policy: pol}
		st, _, _ := core.FormProgram(p, cfg, prof)
		return st.Merges
	}
	bf := formWith(BreadthFirst{})
	df := formWith(DepthFirst{})
	if df > bf {
		t.Fatalf("DF merged more than BF: %d > %d", df, bf)
	}
}
