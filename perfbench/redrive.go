package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/sim/timing"
)

// phaseCost is one job re-driven phase by phase through the compiler's
// public functions, in the order compiler.Compile runs them.
type phaseCost struct {
	lang, opt, profile, form, unrollPeel, misc, timing time.Duration
	formAlloc                                          uint64 // bytes allocated inside core.FormProgram
	stats                                              core.Stats
	blocks, mispredicts, cycles                        int64
	text                                               string // ir.FormatProgram of the compiled program
}

func (p phaseCost) compileTotal() time.Duration {
	return p.lang + p.opt + p.profile + p.form + p.unrollPeel + p.misc
}

// redrive compiles and simulates j without the engine, timing each
// phase. It must be called from one goroutine at a time, because the
// formation allocation figure is a process-wide TotalAlloc delta.
func redrive(j engine.Job) (phaseCost, error) {
	var pc phaseCost
	o := j.Opts.Canonical()
	lap := func(into *time.Duration, t0 time.Time) { *into += time.Since(t0) }

	t0 := time.Now()
	prog, err := lang.CompileUnrolled(j.Source, o.FrontUnroll)
	lap(&pc.lang, t0)
	if err != nil {
		return pc, err
	}
	t0 = time.Now()
	opt.OptimizeProgram(prog)
	lap(&pc.opt, t0)
	t0 = time.Now()
	compiler.SplitCallsProgram(prog)
	lap(&pc.misc, t0)
	var prof *profile.Profile
	if o.ProfileFn != "" {
		t0 = time.Now()
		prof, _, err = profile.Collect(ir.CloneProgram(prog), o.ProfileFn, o.ProfileArgs...)
		lap(&pc.profile, t0)
		if err != nil {
			return pc, err
		}
	}

	var ms runtime.MemStats
	form := func(headDup, iterOpt bool) error {
		cfg := core.Config{Cons: o.Cons, HeadDup: headDup, IterOpt: iterOpt}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		st, _, err := core.FormProgram(prog, cfg, prof)
		lap(&pc.form, t0)
		runtime.ReadMemStats(&ms)
		pc.formAlloc += ms.TotalAlloc - before
		pc.stats.Add(st)
		return err
	}
	up := func() error {
		t0 := time.Now()
		compiler.UnrollPeelProgram(prog, prof, o.UnrollPeel)
		lap(&pc.unrollPeel, t0)
		return nil
	}
	midOpt := func() error {
		t0 := time.Now()
		opt.OptimizeProgram(prog)
		lap(&pc.opt, t0)
		return nil
	}
	formWith := func(headDup, iterOpt bool) func() error {
		return func() error { return form(headDup, iterOpt) }
	}
	var steps []func() error
	switch o.Ordering {
	case compiler.OrderBB:
	case compiler.OrderUPIO:
		steps = []func() error{up, formWith(false, false), midOpt}
	case compiler.OrderIUPO:
		steps = []func() error{formWith(false, false), up, midOpt}
	case compiler.OrderIUPthenO:
		steps = []func() error{formWith(true, false), midOpt}
	case compiler.OrderIUPO1:
		steps = []func() error{formWith(true, true), midOpt}
	default:
		return pc, fmt.Errorf("redrive: unknown ordering %q", o.Ordering)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return pc, err
		}
	}
	t0 = time.Now()
	compiler.NormalizeProgram(prog)
	err = ir.VerifyProgram(prog)
	lap(&pc.misc, t0)
	if err != nil {
		return pc, err
	}
	pc.text = ir.FormatProgram(prog)

	t0 = time.Now()
	_, st, err := timing.RunProgram(prog, "main", j.Args...)
	lap(&pc.timing, t0)
	pc.blocks, pc.mispredicts, pc.cycles = st.Blocks, st.Mispredicts, st.Cycles
	return pc, err
}
