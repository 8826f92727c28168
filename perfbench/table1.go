package main

import (
	"fmt"
	"os"

	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// table1Jobs is the paper's Table 1 grid in the order
// experiments.Table1Engine submits it: per micro benchmark, BB and then
// each evaluated ordering. The grid is fixed; the seed does not change
// it.
func table1Jobs() ([]engine.Job, []reference, error) {
	ws := workloads.Micro()
	orders := append([]compiler.Ordering{compiler.OrderBB}, experiments.Table1Configs...)
	var jobs []engine.Job
	var refs []reference
	o := oracle{}
	for i := range ws {
		ref, err := o.get(ws[i].Source, ws[i].Args)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", ws[i].Name, err)
		}
		for _, ord := range orders {
			jobs = append(jobs, experiments.NewJob(&ws[i], compiler.Options{Ordering: ord}, engine.SimTiming))
			refs = append(refs, ref)
		}
	}
	return jobs, refs, nil
}

// runTable1 submits the whole grid to a fresh engine with an empty
// cache, pass after pass, until the run's time is spent.
func runTable1(cfg runConfig) (*runResult, error) {
	rr := &runResult{}
	var jobs []engine.Job
	var refs []reference
	setup := func() (err error) {
		jobs, refs, err = table1Jobs()
		return err
	}
	var sp *spans
	if cfg.trace {
		sp = &spans{}
	}
	err := runPasses(cfg, rr, setup, func() []outcome {
		outs := make([]outcome, len(jobs))
		for i, r := range newTracedEngine(cfg.clients, sp).Run(jobs) {
			outs[i] = jobOutcome(r, refs[i], i)
		}
		return outs
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("table1-cold: %d passes of %d jobs, %d workers, %.2f jobs/s per pass\n",
		len(rr.passRates), len(jobs), cfg.clients, rr.passRates)
	if sp == nil {
		return rr, nil
	}

	m := metrics{}
	engineLayers(m, tracerMark{}.since(sp.tracers))
	storeLayers(m, sp)
	shareLayers(m, rr.outs)
	targets := make([]redriveTarget, len(jobs))
	for i := range jobs {
		targets[i] = redriveTarget{job: jobs[i], cycles: rr.firstCycles[i]}
	}
	for _, o := range rr.outs {
		targets[o.req].compileMS += float64(o.compileNS) / 1e6 / float64(len(rr.passRates))
	}
	rr.layers = m
	return rr, phaseLayers(m, targets, cfg.clients)
}

// jobOutcome is an engine result as its submitter saw it, checked
// against the reference.
func jobOutcome(r engine.Result, ref reference, req int) outcome {
	o := outcome{latMS: float64(r.WallNS) / 1e6, ok: r.Err == nil, hit: r.CacheHit,
		skel: r.SkeletonHit, coalesced: r.Coalesced, fallbacks: r.SkeletonFallbacks,
		cycles: r.Metrics.Cycles, compileNS: r.Metrics.CompileNS, req: req}
	if r.Err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", r.Err)
	} else if !ref.matches(&r.Metrics) {
		o.wrong = true
	}
	return o
}
