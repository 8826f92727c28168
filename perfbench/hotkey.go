package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/workloads/corpus"
)

// The hot-key pass is the request stream cmd/hbload sends for
// -profile hotkey with its default corpus: a few programs of the
// corpus, each under many (ordering, args) configurations. Its content
// is fixed; the run's seed picks only the order in which one pass sends
// it. The shares of cold compiles, skeleton replays and full-result
// hits in a pass are set by the content alone (a pass starts from an
// empty cache), so they are the same for every seed and every pass,
// while which request of a key pays the cold compile follows the order.
const (
	hotkeyCorpusSeed   = 1   // hbload -corpus-seed default
	hotkeyCorpusN      = 128 // hbload -corpus-n default
	hotkeyScheduleSeed = 1   // hbload -seed default
	hotkeyRequests     = 240 // one pass
)

// hotkeyJob is one request of the pass, built as a server builds it.
type hotkeyJob struct {
	job engine.Job
	ref reference
}

// hotkeyJobs builds the pass's requests in schedule order, through
// load.Requests and server.BuildJob, with each one's reference output.
func hotkeyJobs() ([]hotkeyJob, error) {
	c, err := corpus.Build(corpus.Config{Seed: hotkeyCorpusSeed, N: hotkeyCorpusN})
	if err != nil {
		return nil, err
	}
	arrivals, err := load.Schedule(load.ScheduleConfig{
		Profile:  load.HotKey,
		Seed:     hotkeyScheduleSeed,
		Requests: hotkeyRequests,
		Corpus:   c,
	})
	if err != nil {
		return nil, err
	}
	toReq := load.Requests(c)
	o := oracle{}
	jobs := make([]hotkeyJob, len(arrivals))
	for i, a := range arrivals {
		job, _, inv := server.BuildJob(nil, toReq(a))
		if inv != nil {
			return nil, fmt.Errorf("request %d: %s", i, inv.Error)
		}
		ref, err := o.get(job.Source, job.Args)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		jobs[i] = hotkeyJob{job: job, ref: ref}
	}
	return jobs, nil
}

// runHotkey sends pass after pass of the hot-key requests, in the
// seed's order, closed-loop through engine.Submit on a fresh engine with
// an empty cache, until the run's time is spent.
func runHotkey(cfg runConfig) (*runResult, error) {
	rr := &runResult{}
	var jobs []hotkeyJob
	setup := func() (err error) {
		jobs, err = hotkeyJobs()
		return err
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(hotkeyRequests)
	var sp *spans
	if cfg.trace {
		sp = &spans{}
	}
	err := runPasses(cfg, rr, setup, func() []outcome {
		e := newTracedEngine(cfg.clients, sp)
		outs := make([]outcome, 0, len(order))
		closedLoop(cfg.clients, time.Now().Add(passCap), sequence(len(order)), func(_, k int) {
			i := order[k]
			outs = append(outs, jobOutcome(e.Submit(context.Background(), jobs[i].job), jobs[i].ref, i))
		})
		for len(outs) < len(order) { // left unsent by the cap: failed
			outs = append(outs, outcome{req: order[len(outs)]})
		}
		return outs
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("hotkey-engine: %d passes of %d requests, %d client, %.2f requests/s per pass\n",
		len(rr.passRates), len(jobs), cfg.clients, rr.passRates)
	if sp == nil {
		return rr, nil
	}

	m := metrics{}
	engineLayers(m, tracerMark{}.since(sp.tracers))
	storeLayers(m, sp)
	shareLayers(m, rr.outs)
	// Re-drive the first pass's full compiles; a skeleton replay or a
	// hit has no phase-by-phase counterpart.
	var targets []redriveTarget
	for _, o := range rr.outs[:len(order)] {
		if o.ok && !o.hit && !o.skel {
			targets = append(targets, redriveTarget{job: jobs[o.req].job, cycles: o.cycles,
				compileMS: float64(o.compileNS) / 1e6})
		}
	}
	rr.layers = m
	return rr, phaseLayers(m, targets, cfg.clients)
}
