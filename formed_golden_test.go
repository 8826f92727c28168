package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// formedIRDigest pins every formed byte of the corpus: the SHA-256 of
// ir.FormatProgram plus the formation statistics (and any
// degradations) of each compile in the grid below, in grid order. TestGoldenStatsBitIdentical pins a
// handful of simulated cycle counts; this pins the IR itself, so a
// compile-time speedup that changes one instruction anywhere in the
// corpus fails here even when no cycle count moves.
const formedIRDigest = "aa644253c5b5803d049517a06d13f1063307b29ac2f848637c404d4f7b3e5325"

// TestFormedIRGoldenDigest compiles every micro and spec workload
// under every ordering, with the §9 split-oversize extension off and
// on, and compares the digest of the formed programs against the
// recorded one.
func TestFormedIRGoldenDigest(t *testing.T) {
	type cell struct {
		w     workloads.Workload
		ord   compiler.Ordering
		split bool
	}
	var cells []cell
	for _, w := range append(workloads.Micro(), workloads.Spec()...) {
		for _, ord := range compiler.Orderings {
			for _, split := range []bool{false, true} {
				cells = append(cells, cell{w, ord, split})
			}
		}
	}
	if len(cells) != 430 {
		t.Fatalf("grid has %d cells, want 430 (43 workloads x 5 orderings x 2)", len(cells))
	}
	// Each cell hashes independently; the per-cell digests are then
	// combined in grid order, so the result does not depend on the
	// number of workers.
	sums := make([][sha256.Size]byte, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	next := make(chan int)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				opts := compiler.Options{
					Ordering:    c.ord,
					ProfileFn:   "main",
					ProfileArgs: c.w.TrainArgs,
				}
				opts.CoreTweaks.SplitOversize = c.split
				res, err := compiler.Compile(c.w.Source, opts)
				if err != nil {
					errs[i] = err
					continue
				}
				sums[i] = sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%v\n%s%+v\n%v\n",
					c.w.Name, c.ord, c.split, ir.FormatProgram(res.Prog), res.FormStats, res.Degraded)))
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	h := sha256.New()
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("%s|%s|split=%v: %v", c.w.Name, c.ord, c.split, errs[i])
		}
		h.Write(sums[i][:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != formedIRDigest {
		t.Fatalf("formed-IR digest over %d compiles:\n got %s\nwant %s", len(cells), got, formedIRDigest)
	}
}
