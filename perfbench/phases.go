package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/ir"
)

// redriveTarget is one compile job to re-drive, with what the engine
// produced for it.
type redriveTarget struct {
	job       engine.Job
	cycles    int64   // the engine's simulated cycles
	compileMS float64 // the engine's compile time for a full (not replayed) compile
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phaseLayers re-drives each target phase by phase and reports mean
// per-job phase costs and summed formation counts. A target whose
// re-drive differs from compiler.Compile's program text, or from the
// engine's cycles, is counted in trace.redrive_mismatches and left out
// of the breakdown.
func phaseLayers(m metrics, targets []redriveTarget, workers int) error {
	// compiler.Compile is the identity reference; it runs on all
	// workers first, so the sequential re-drive below has the process
	// to itself and its allocation deltas are its own.
	want := make([]string, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := compiler.Compile(targets[i].job.Source, targets[i].job.Opts)
				if err != nil {
					errs[i] = err
					continue
				}
				want[i] = ir.FormatProgram(res.Prog)
			}
		}()
	}
	for i := range targets {
		next <- i
	}
	close(next)
	wg.Wait()

	var n, mismatches float64
	var lang, opt, prof, form, up, misc, tim, unattr, alloc float64
	var merges, tails, heads, blocks, mispredicts float64
	for i, t := range targets {
		if errs[i] != nil {
			return fmt.Errorf("identity compile %s/%s: %w", t.job.Workload, t.job.Config, errs[i])
		}
		pc, err := redrive(t.job)
		if err != nil {
			return fmt.Errorf("re-drive %s/%s: %w", t.job.Workload, t.job.Config, err)
		}
		if pc.text != want[i] || pc.cycles != t.cycles {
			fmt.Fprintf(os.Stderr, "perfbench: re-drive of %s/%s differs (text equal %v, cycles %d vs engine %d)\n",
				t.job.Workload, t.job.Config, pc.text == want[i], pc.cycles, t.cycles)
			mismatches++
			continue
		}
		n++
		lang += ms(pc.lang)
		opt += ms(pc.opt)
		prof += ms(pc.profile)
		form += ms(pc.form)
		up += ms(pc.unrollPeel)
		misc += ms(pc.misc)
		tim += ms(pc.timing)
		unattr += t.compileMS - ms(pc.compileTotal())
		alloc += float64(pc.formAlloc) / (1 << 20)
		merges += float64(pc.stats.Merges)
		tails += float64(pc.stats.TailDups)
		heads += float64(pc.stats.Unrolls + pc.stats.Peels)
		blocks += float64(pc.blocks)
		mispredicts += float64(pc.mispredicts)
	}
	per := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	m.set("trace.redrive_jobs", "count", n)
	m.set("trace.redrive_mismatches", "count", mismatches)
	m.set("lang.ms", "ms", per(lang))
	m.set("opt.ms", "ms", per(opt))
	m.set("profile.ms", "ms", per(prof))
	m.set("core.form_ms", "ms", per(form))
	m.set("compiler.unroll_peel_ms", "ms", per(up))
	m.set("compiler.misc_ms", "ms", per(misc))
	m.set("timing.ms", "ms", per(tim))
	m.set("phases.unattributed_ms", "ms", per(unattr))
	m.set("core.form_alloc_mb", "MB", per(alloc))
	m.set("core.merges", "count", merges)
	m.set("core.tail_dups", "count", tails)
	m.set("core.head_dups", "count", heads)
	m.set("timing.blocks", "count", blocks)
	m.set("timing.mispredicts", "count", mispredicts)
	return nil
}
