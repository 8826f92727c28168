package core_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/policy"
	"repro/internal/workloads"
)

// TestTrialLivenessMatchesWholeFunction cross-checks every live-out
// and upward-exposed set a greedy trial merge derives from its seed's
// sink summary against whole-function liveness of the mid-trial
// function, over the whole corpus under every forming ordering, each
// formation tweak and every block-selection policy. A mismatch inside
// formation would only surface as a panic that GuardFunction turns
// into a silent degradation, so the test also requires that no
// function degraded.
func TestTrialLivenessMatchesWholeFunction(t *testing.T) {
	var checks, mismatches atomic.Int64
	var firstMu sync.Mutex
	var first string
	restore := core.SetTrialLivenessHook(func(f *ir.Function, hb *ir.Block, out, ue analysis.RegSet) {
		checks.Add(1)
		lv := analysis.ComputeLiveness(f)
		if !sameRegs(out, lv.Out[hb]) || !sameRegs(ue, lv.UEVar[hb]) {
			mismatches.Add(1)
			firstMu.Lock()
			if first == "" {
				first = fmt.Sprintf("%s %v: out %v want %v, ue %v want %v", f.Name, hb,
					out.Members(), lv.Out[hb].Members(), ue.Members(), lv.UEVar[hb].Members())
			}
			firstMu.Unlock()
		}
	})
	defer restore()

	type cell struct {
		w      workloads.Workload
		ord    compiler.Ordering
		tweaks compiler.CoreTweaks
		pol    int
	}
	tweaks := []compiler.CoreTweaks{{SplitOversize: true}, {NoChain: true}, {NoHeadDup: true}}
	var cells []cell
	for _, w := range append(workloads.Micro(), workloads.Spec()...) {
		for _, ord := range compiler.Orderings[1:] { // BB forms nothing
			for _, tw := range tweaks {
				for pol := 0; pol < 3; pol++ {
					cells = append(cells, cell{w, ord, tw, pol})
				}
			}
		}
	}
	if raceEnabled || testing.Short() {
		// The race detector slows these single-goroutine compiles
		// about ninefold; a strided eighth of the grid keeps the race
		// run inside the package timeout. The plain run checks every
		// cell.
		kept := cells[:0]
		for i := 0; i < len(cells); i += 8 {
			kept = append(kept, cells[i])
		}
		cells = kept
	}
	errs := make([]string, len(cells))
	var wg sync.WaitGroup
	next := make(chan int)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				var pol core.Policy
				switch c.pol {
				case 0:
					pol = policy.BreadthFirst{}
				case 1:
					pol = policy.DepthFirst{}
				default:
					pol = &policy.VLIW{}
				}
				res, err := compiler.Compile(c.w.Source, compiler.Options{
					Ordering:    c.ord,
					Policy:      pol,
					ProfileFn:   "main",
					ProfileArgs: c.w.TrainArgs,
					CoreTweaks:  c.tweaks,
				})
				switch {
				case err != nil:
					errs[i] = err.Error()
				case len(res.Degraded) != 0:
					errs[i] = fmt.Sprintf("degraded: %v", res.Degraded)
				}
				if errs[i] != "" {
					errs[i] = fmt.Sprintf("%s|%s|%+v|%s: %s", c.w.Name, c.ord, c.tweaks, pol.Name(), errs[i])
				}
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d of %d trial live-out sets differ from whole-function liveness; first: %s",
			n, checks.Load(), first)
	}
	if checks.Load() == 0 {
		t.Fatal("no trial merge reached the cross-check")
	}
	t.Logf("%d compiles, %d trial live-out sets cross-checked", len(cells), checks.Load())
}

func sameRegs(a, b analysis.RegSet) bool {
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
