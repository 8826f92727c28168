package core

import (
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trips"
)

// Property: a rejected trial merge leaves the working function exactly
// as it was — same printed IR, register count, next branch ID and
// mutation version — even though the trial if-converted, optimized
// and normalized the hyperblock in place. Tight constraints make most
// plain, tail, peel and unroll trials fail late, after every in-place
// edit has run. The input is not scalar-optimized beforehand, so value
// numbering inside a trial also rewrites operands of the hyperblock's
// original instructions.
func TestRejectedTrialLeavesFunctionUnchanged(t *testing.T) {
	cfg := Config{Cons: trips.Constraints{MaxInstrs: 16, MaxMemOps: 8, RegBanks: 4,
		MaxReadsPerBank: 8, MaxWritesPerBank: 8}, IterOpt: true, HeadDup: true}
	rejects := 0
	f := func(code []byte) bool {
		p, err := lang.Compile(genProgram(code))
		if err != nil {
			return false
		}
		for _, fn := range p.OrderedFuncs() {
			fo := NewFormer(fn, cfg)
			for _, hb := range append([]*ir.Block(nil), fo.f.Blocks...) {
				if fo.f.BlockByID(hb.ID) == nil {
					continue // removed by an earlier merge
				}
				tried := map[*ir.Block]bool{}
				for grown := true; grown; {
					grown = false
					dom := fo.cache.Dom(fo.f)
					for _, s := range hb.Succs() {
						if tried[s] || !fo.LegalMerge(hb, s, dom) {
							continue
						}
						tried[s] = true
						text, nregs, ver := ir.FormatFunction(fo.f), fo.f.NumRegs(), fo.f.Version()
						before := ir.CloneFunction(fo.f)
						if fo.MergeBlocks(hb, s, dom) {
							grown = true // hb's successors changed
							break
						}
						rejects++
						if got := ir.FormatFunction(fo.f); got != text {
							t.Logf("merge %v <- %v: IR changed:\n%s\nwant\n%s", hb, s, got, text)
							return false
						}
						if fo.f.NumRegs() != nregs || fo.f.Version() != ver ||
							fo.f.NewBrID() != before.NewBrID() {
							t.Logf("merge %v <- %v: counters changed", hb, s)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if rejects < 30 {
		t.Fatalf("only %d rejected trials exercised", rejects)
	}
	t.Logf("%d rejected trials", rejects)
}
