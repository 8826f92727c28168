package main

import (
	"runtime"
	"time"
)

// minPasses is the fewest passes a run makes: two passes of
// table1-cold's 120 operations leave ten samples beyond the 95th
// percentile.
const minPasses = 2

// runPasses sets a workload up and repeats one pass of its fixed
// content until the run's time is spent. ops_per_s is the successful
// operations of all passes over the passes' wall time, and the latency
// samples are every successful operation of every pass, so each figure
// is one the program actually reached. On the shared virtual machine
// the benchmark was written on, the speed of the same code drifts by up
// to 2x in phases of seconds to minutes; a figure over the whole timed
// phase averages them, where the median of three or four pass rates
// would keep one.
//
// setup_s is the median of setupBefore set-ups before the first pass
// and one more after each pass that ends a setupEvery share of the
// timed phase after the last, so that its samples span the same phases
// the passes do. Set-up time counts as neither pass time nor pass
// allocation.
//
// Every operation must reproduce the simulated cycles of its request's
// first successful run; one that does not is marked wrong. The cycles
// geomean is taken over the first pass.
func runPasses(cfg runConfig, rr *runResult, setup func() error, pass func() []outcome) error {
	var setupAlloc uint64
	var ms runtime.MemStats
	timedSetup := func() error {
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0 := time.Now()
		err := setup()
		rr.setupS = append(rr.setupS, time.Since(t0).Seconds())
		runtime.ReadMemStats(&ms)
		setupAlloc += ms.TotalAlloc - a0
		return err
	}
	for i := 0; i < setupBefore; i++ {
		if err := timedSetup(); err != nil {
			return err
		}
	}

	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	setupAlloc = 0
	rr.firstCycles = map[int]int64{}
	var ok int
	var busy time.Duration
	start := time.Now()
	lastSetup := start
	for len(rr.passRates) < minPasses || time.Since(start) < cfg.seconds {
		t0 := time.Now()
		outs := pass()
		el := time.Since(t0)
		busy += el
		passOK := 0
		for i := range outs {
			o := &outs[i]
			if !o.ok {
				continue
			}
			passOK++
			rr.opLat = append(rr.opLat, o.latMS)
			if len(rr.passRates) == 0 {
				rr.cycles = append(rr.cycles, float64(o.cycles))
			}
			if c, seen := rr.firstCycles[o.req]; !seen {
				rr.firstCycles[o.req] = o.cycles
			} else if c != o.cycles {
				o.wrong = true
			}
		}
		ok += passOK
		rr.passRates = append(rr.passRates, float64(passOK)/el.Seconds())
		rr.outs = append(rr.outs, outs...)
		if time.Since(lastSetup) >= time.Duration(float64(cfg.seconds)*setupEvery) {
			if err := timedSetup(); err != nil {
				return err
			}
			lastSetup = time.Now()
		}
	}
	runtime.ReadMemStats(&ms)
	rr.allocBytes = ms.TotalAlloc - alloc0 - setupAlloc
	rr.opsPerS = float64(ok) / busy.Seconds()
	return nil
}
