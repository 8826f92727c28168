package main

import (
	"testing"
	"time"
)

// One hot-key pass on an empty cache runs every engine path (cold
// compiles, skeleton replays, full-result hits), and the seed changes
// only the order: every order gives the same counts and cycles.
func TestHotkeyPassSharesDoNotDependOnSeed(t *testing.T) {
	jobs, err := hotkeyJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != hotkeyRequests {
		t.Fatalf("%d jobs, want %d", len(jobs), hotkeyRequests)
	}
	type counts struct{ cold, skel, hit int }
	var first counts
	var firstCycles map[int]int64
	for _, seed := range []int64{1, 2} {
		rr, err := runHotkey(runConfig{seed: seed, seconds: time.Nanosecond, clients: 1})
		if err != nil {
			t.Fatal(err)
		}
		var c counts
		for _, o := range rr.outs {
			if !o.ok || o.wrong {
				t.Fatalf("seed %d: request %d ok=%v wrong=%v", seed, o.req, o.ok, o.wrong)
			}
			switch {
			case o.hit:
				c.hit++
			case o.skel:
				c.skel++
			default:
				c.cold++
			}
		}
		if c.cold == 0 || c.skel == 0 || c.hit == 0 {
			t.Fatalf("seed %d: %+v; a pass must run all three paths", seed, c)
		}
		if firstCycles == nil {
			first, firstCycles = c, rr.firstCycles
			continue
		}
		if c != first {
			t.Errorf("seed %d: %+v, seed 1: %+v", seed, c, first)
		}
		for i, cy := range rr.firstCycles {
			if firstCycles[i] != cy {
				t.Errorf("request %d: %d cycles, %d under seed 1", i, cy, firstCycles[i])
			}
		}
	}
}
