package main

import (
	"testing"
	"time"
)

// A pass that repeats a request with other cycles marks it wrong, and
// ops_per_s is a rate the passes reached.
func TestRunPassesChecksCyclesAndMeasuresRate(t *testing.T) {
	n := 0
	rr := &runResult{}
	setups := 0
	setup := func() error { setups++; return nil }
	err := runPasses(runConfig{seconds: 30 * time.Millisecond}, rr, setup, func() []outcome {
		n++
		time.Sleep(5 * time.Millisecond)
		return []outcome{{req: 0, ok: true, cycles: 100, latMS: 1}, {req: 1, ok: true, cycles: int64(200 + n), latMS: 1}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.passRates) < 2 {
		t.Fatalf("%d passes in 30ms of 5ms passes", len(rr.passRates))
	}
	wrong := 0
	for _, o := range rr.outs {
		if o.wrong {
			wrong++
			if o.req != 1 {
				t.Errorf("request %d marked wrong; its cycles never changed", o.req)
			}
		}
	}
	if wrong == 0 {
		t.Error("request 1 changed its cycles between passes but was not marked wrong")
	}
	lo, hi := rr.passRates[0], rr.passRates[0]
	for _, r := range rr.passRates {
		lo, hi = min(lo, r), max(hi, r)
	}
	if rr.opsPerS < lo || rr.opsPerS > hi {
		t.Errorf("ops_per_s %v outside the pass rates %v", rr.opsPerS, rr.passRates)
	}
	if setups != len(rr.setupS) || setups <= setupBefore {
		t.Errorf("%d set-ups, %d timed; want more than the %d before the timed phase", setups, len(rr.setupS), setupBefore)
	}
	if len(rr.opLat) != len(rr.outs) {
		t.Errorf("%d latency samples from %d ok operations", len(rr.opLat), len(rr.outs))
	}
}

// A failed operation fails the run, as a wrong one does: it would
// otherwise drop out of every figure.
func TestFailedOperationFailsRun(t *testing.T) {
	rr := &runResult{setupS: []float64{1}, opsPerS: 1, cycles: []float64{1}}
	for i := 0; i < 300; i++ {
		o := outcome{req: i, ok: i != 7, latMS: float64(i + 1), cycles: 1}
		rr.outs = append(rr.outs, o)
		if o.ok {
			rr.opLat = append(rr.opLat, o.latMS)
		}
	}
	res, err := summarize("test", runConfig{}, rr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 300 {
		t.Fatalf("correct %v, failed %d of %d; want false, 1 of 300", res.Correct, res.Failed, res.Attempted)
	}
}
