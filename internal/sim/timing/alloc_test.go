package timing

import (
	"testing"

	"repro/internal/xrand"
)

// allocSrc exercises the paths the zero-allocation guarantee covers:
// nested calls (frame pool depth > 1), loops (issue-ring reuse across
// many blocks), and data-dependent branches (multi-exit blocks going
// through the predictor table). Control flow depends only on the
// argument, so every re-run takes exactly the same path.
const allocSrc = `
func leaf(a, b) { if (a < b) { return b - a; } return a - b; }
func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
func main(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) {
    if (i % 3 == 0) { s = s + leaf(i, n); } else { s = s - 1; }
  }
  return s + fib(n % 10);
}`

// warmMachine builds a machine and re-runs it until every scratch
// structure (frames, issue ring, arg buffers, predictor table, meta
// cache) has reached steady state.
func warmMachine(t *testing.T, src string, arg int64) *Machine {
	t.Helper()
	m := New(compile(t, src), DefaultConfig())
	for i := 0; i < 4; i++ {
		m.Output = m.Output[:0]
		if _, err := m.Run("main", arg); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestExecBlockSteadyStateAllocFree is the tentpole's proof
// obligation: once warm, a full re-run of the program — every
// execBlock, call, predictor lookup, and inflight-window operation —
// performs zero heap allocations.
func TestExecBlockSteadyStateAllocFree(t *testing.T) {
	m := warmMachine(t, allocSrc, 30)
	avg := testing.AllocsPerRun(20, func() {
		m.Output = m.Output[:0]
		if _, err := m.Run("main", 30); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Run allocates %.1f allocs/run, want 0", avg)
	}
}

// TestFrameReuse checks that the depth-indexed frame pool hands back
// the same activation records run after run instead of allocating
// fresh ones.
func TestFrameReuse(t *testing.T) {
	m := warmMachine(t, allocSrc, 30)
	depths := len(m.frames)
	if depths == 0 {
		t.Fatal("no frames pooled after a run")
	}
	before := make([]*frame, depths)
	copy(before, m.frames)
	m.Output = m.Output[:0]
	if _, err := m.Run("main", 30); err != nil {
		t.Fatal(err)
	}
	if len(m.frames) != depths {
		t.Fatalf("frame pool grew on re-run: %d -> %d", depths, len(m.frames))
	}
	for d, fr := range m.frames {
		if fr != before[d] {
			t.Fatalf("depth-%d frame was reallocated", d)
		}
	}

	// The pool must also re-zero: frameAt hands out frames with the
	// fresh-allocation semantics (unwritten registers read 0).
	fr := m.frameAt(0, 8)
	fr.val[3], fr.time[3] = 42, 42
	fr = m.frameAt(0, 8)
	if fr.val[3] != 0 || fr.time[3] != 0 {
		t.Fatal("frameAt did not zero the reused frame")
	}
}

// TestPredictorLookupAllocFree checks that once the open-addressed
// table has seen a key set, further observe/lookup traffic on those
// keys does not allocate (the map[uint64]int it replaced allocated on
// growth and hashing).
func TestPredictorLookupAllocFree(t *testing.T) {
	p := newPredictor(6)
	h := xrand.Hash("main")
	// Populate: more keys than the initial table so at least one grow
	// happens during warmup, then the key set is fixed.
	for round := 0; round < 2; round++ {
		for blk := 0; blk < 300; blk++ {
			p.observeHashed(h, blk, blk%7)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for blk := 0; blk < 300; blk++ {
			p.observeHashed(h, blk, blk%7)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state predictor traffic allocates %.1f allocs/run, want 0", avg)
	}
}
