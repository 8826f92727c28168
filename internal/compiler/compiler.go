// Package compiler is the phase-ordering driver reproducing the
// paper's compiler flow (Figure 6) and its evaluated configurations
// (Tables 1–3):
//
//	BB      — basic blocks as TRIPS blocks (baseline)
//	UPIO    — discrete Unroll/Peel, then incremental If-conversion,
//	          then scalar Optimization
//	IUPO    — incremental If-conversion, then discrete Unroll/Peel,
//	          then scalar Optimization
//	(IUP)O  — integrated structural phases (convergent formation with
//	          head duplication), discrete final Optimization
//	(IUPO)  — fully convergent: optimization inside the merge loop
//
// Every configuration shares the same front end (for-loop unrolling
// followed by classical scalar optimizations, as in Scale), profiles
// with the functional simulator, splits blocks at calls, and can
// finish with register allocation plus reverse if-conversion.
package compiler

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/trips"
)

// Ordering names a phase ordering from Table 1.
type Ordering string

// The five evaluated configurations.
const (
	OrderBB       Ordering = "BB"
	OrderUPIO     Ordering = "UPIO"
	OrderIUPO     Ordering = "IUPO"
	OrderIUPthenO Ordering = "(IUP)O"
	OrderIUPO1    Ordering = "(IUPO)"
)

// Orderings lists the configurations in the paper's column order.
var Orderings = []Ordering{OrderBB, OrderUPIO, OrderIUPO, OrderIUPthenO, OrderIUPO1}

// Options configure a compilation.
type Options struct {
	// Ordering selects the phase ordering (default (IUPO)).
	Ordering Ordering
	// Policy is the block-selection heuristic (nil = greedy
	// breadth-first).
	Policy core.Policy
	// Cons are the structural constraints (default TRIPS).
	Cons trips.Constraints
	// ProfileFn and ProfileArgs drive the training run used to
	// gather profiles (default: no profile).
	ProfileFn   string
	ProfileArgs []int64
	// Profile, when non-nil, is used instead of running a training
	// pass (e.g. loaded from a previous compilation's saved profile,
	// the Scale "convergent compilation" flow).
	Profile *profile.Profile
	// FrontUnroll is the front-end for-loop unroll factor (default
	// 4; 1 disables).
	FrontUnroll int
	// UnrollPeel tunes the discrete UP phase.
	UnrollPeel UnrollPeelOptions
	// RegAlloc enables register allocation and reverse
	// if-conversion.
	RegAlloc bool
	// RegAllocOpts configure the allocator.
	RegAllocOpts regalloc.Options
	// CoreTweaks forwards extension/ablation knobs to the formation
	// algorithm.
	CoreTweaks CoreTweaks
	// RecordFormTrace records the formation decision sequence as a
	// replayable skeleton, returned in Result.FormTrace. Recording
	// never changes the compiled output.
	RecordFormTrace bool
	// FormTrace, when non-nil, replays a previously recorded skeleton
	// instead of running the greedy formation search: each function's
	// decisions are re-applied with only their recorded preconditions
	// re-checked against this compilation's concrete parameters, and
	// any miss falls back to the full greedy run for that function
	// (reported in Result.Replay). The output is identical to a
	// from-scratch compile either way. Like Checkpoint, the trace
	// never changes a completed compile's output, so neither field
	// participates in content-addressed cache keys.
	FormTrace *core.ProgramTrace
	// VerifyEachPhase runs ir.VerifyProgram after every mid-end phase
	// (scalar opt, call splitting, formation, unroll/peel,
	// normalization) so a verifier failure names the pass that broke
	// the IR instead of surfacing at the end of the pipeline. Debug
	// aid; off by default.
	VerifyEachPhase bool
	// Checkpoint, when non-nil, is the cooperative-cancellation hook:
	// it is polled at every phase boundary and inside the formation
	// convergence loop (via core.Config.Checkpoint), and its first
	// non-nil error aborts the compile. CompileContext wires it to a
	// context automatically. Checkpoint never affects the output of a
	// compile that runs to completion, so it is excluded from
	// content-addressed cache keys.
	Checkpoint func() error
}

// CoreTweaks are optional formation knobs (extensions and ablation
// switches; see core.Config).
type CoreTweaks struct {
	// NoChain disables cross-layer speculative rename chaining.
	NoChain bool
	// NoHeadDup forces head duplication off even in the convergent
	// orderings (classical incremental if-conversion only).
	NoHeadDup bool
	// SplitOversize enables the §9 basic-block-splitting extension.
	SplitOversize bool
}

// Canonical returns o with defaults filled in, so that two Options
// requesting the same compilation compare (and hash) equal. The
// experiment engine uses it to build content-addressed cache keys.
func (o Options) Canonical() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Ordering == "" {
		o.Ordering = OrderIUPO1
	}
	if o.Cons.MaxInstrs == 0 {
		o.Cons = trips.Default()
	}
	if o.FrontUnroll == 0 {
		o.FrontUnroll = 4
	}
	return o
}

// Result is a finished compilation.
type Result struct {
	Prog      *ir.Program
	Profile   *profile.Profile
	FormStats core.Stats
	UPStats   UnrollPeelStats
	Alloc     map[string]*regalloc.Assignment
	AllocErrs map[string]error
	// FormTrace is the recorded formation skeleton (RecordFormTrace).
	FormTrace *core.ProgramTrace
	// Replay summarizes skeleton replay (set only when Options.
	// FormTrace drove formation).
	Replay core.ReplayStats
	// Degraded lists functions a mid-end phase could not transform:
	// the phase panicked or broke the IR, so the function was rolled
	// back to its pre-phase (basic-block) form and compilation
	// continued. Empty on a fully clean compile.
	Degraded []core.Degradation
}

// Compile runs the full pipeline on tl source.
func Compile(src string, opts Options) (*Result, error) {
	return CompileContext(context.Background(), src, opts)
}

// CompileContext is Compile with cooperative cancellation: the
// pipeline checks ctx at every phase boundary, the formation
// convergence loop polls it between merge attempts, and the
// profiling training run polls it between blocks, so a deadline or
// request cancellation stops the compile at the next checkpoint
// instead of waiting for the whole pipeline. The returned error wraps
// ctx.Err() for classification with errors.Is.
func CompileContext(ctx context.Context, src string, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	opts.Checkpoint = chainCheckpoint(ctx, opts.Checkpoint)

	if err := opts.Checkpoint(); err != nil {
		return nil, fmt.Errorf("compiler: canceled before front end: %w", err)
	}
	// Front end: parse, check, for-loop unroll, lower.
	prog, err := lang.CompileUnrolled(src, opts.FrontUnroll)
	if err != nil {
		return nil, err
	}
	return compileProgram(ctx, prog, opts)
}

// chainCheckpoint combines the ctx poll with a caller-supplied
// checkpoint so both sources of cancellation are honoured.
func chainCheckpoint(ctx context.Context, next func() error) func() error {
	return func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if next != nil {
			return next()
		}
		return nil
	}
}

// CompileProgramContext runs the mid- and back-end phases on lowered
// IR under cooperative cancellation (see CompileContext). The program
// is consumed (transformed in place).
func CompileProgramContext(ctx context.Context, prog *ir.Program, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	opts.Checkpoint = chainCheckpoint(ctx, opts.Checkpoint)
	return compileProgram(ctx, prog, opts)
}

func compileProgram(ctx context.Context, prog *ir.Program, opts Options) (*Result, error) {
	res := &Result{Prog: prog}

	// cp aborts the pipeline at a phase boundary once the checkpoint
	// reports cancellation.
	cp := func(phase string) error {
		if opts.Checkpoint == nil {
			return nil
		}
		if err := opts.Checkpoint(); err != nil {
			return fmt.Errorf("compiler: canceled before %s: %w", phase, err)
		}
		return nil
	}

	// vp localizes IR breakage to a phase when VerifyEachPhase is on.
	vp := func(phase string) error {
		if !opts.VerifyEachPhase {
			return nil
		}
		if err := ir.VerifyProgram(prog); err != nil {
			return fmt.Errorf("compiler: IR invalid after %s: %w", phase, err)
		}
		return nil
	}

	// Classical scalar optimizations (front-end level).
	if err := cp("scalar opt"); err != nil {
		return nil, err
	}
	opt.OptimizeProgram(prog)
	if err := vp("scalar opt"); err != nil {
		return nil, err
	}

	// Calls terminate TRIPS blocks.
	SplitCallsProgram(prog)
	if err := vp("call splitting"); err != nil {
		return nil, err
	}

	// Profile on the functional simulator (or reuse a preloaded
	// profile). The training run polls ctx between blocks.
	if err := cp("profiling"); err != nil {
		return nil, err
	}
	// Skeleton instantiation with the default policy skips the
	// training run: the convergent orderings consume the profile only
	// through the formation policy, the greedy default ignores it,
	// and a replay fallback reruns the greedy search, which ignores
	// it just the same — so the compiled output cannot depend on it.
	skipTraining := opts.FormTrace != nil && opts.Policy == nil &&
		(opts.Ordering == OrderIUPthenO || opts.Ordering == OrderIUPO1)
	if opts.Profile != nil {
		res.Profile = opts.Profile
	} else if opts.ProfileFn != "" && !skipTraining {
		prof, _, err := profile.CollectContext(ctx, ir.CloneProgram(prog), opts.ProfileFn, opts.ProfileArgs...)
		if err != nil {
			return nil, fmt.Errorf("compiler: profiling failed: %w", err)
		}
		res.Profile = prof
	}

	// Mid end per ordering. Formation and unroll/peel are guarded
	// per function: a panic or verifier failure inside either phase
	// degrades only that function to its pre-phase form (recorded in
	// res.Degraded) instead of aborting the compile.
	form := func(headDup, iterOpt bool) error {
		if err := cp("formation"); err != nil {
			return err
		}
		cfg := core.Config{
			Cons:          opts.Cons,
			Policy:        opts.Policy,
			IterOpt:       iterOpt,
			HeadDup:       headDup && !opts.CoreTweaks.NoHeadDup,
			NoChain:       opts.CoreTweaks.NoChain,
			SplitOversize: opts.CoreTweaks.SplitOversize,
			Checkpoint:    opts.Checkpoint,
		}
		var deg []core.Degradation
		var cerr error
		switch {
		case opts.FormTrace != nil:
			res.FormStats, deg, res.Replay, cerr = core.ReplayProgram(prog, cfg, res.Profile, opts.FormTrace)
		case opts.RecordFormTrace:
			res.FormStats, deg, res.FormTrace, cerr = core.FormProgramTrace(prog, cfg, res.Profile)
		default:
			res.FormStats, deg, cerr = core.FormProgram(prog, cfg, res.Profile)
		}
		if cerr != nil {
			return fmt.Errorf("compiler: %w", cerr)
		}
		res.Degraded = append(res.Degraded, deg...)
		return vp("formation")
	}
	up := func() error {
		if err := cp("unroll/peel"); err != nil {
			return err
		}
		var deg []core.Degradation
		res.UPStats, deg = UnrollPeelProgram(prog, res.Profile, opts.UnrollPeel)
		res.Degraded = append(res.Degraded, deg...)
		return vp("unroll/peel")
	}
	midOpt := func() error {
		if err := cp("mid-end scalar opt"); err != nil {
			return err
		}
		opt.OptimizeProgram(prog)
		return vp("mid-end scalar opt")
	}
	run := func(steps ...func() error) error {
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	}

	var err error
	switch opts.Ordering {
	case OrderBB:
		// Baseline: basic blocks are the TRIPS blocks.
	case OrderUPIO:
		err = run(up, func() error { return form(false, false) }, midOpt)
	case OrderIUPO:
		err = run(func() error { return form(false, false) }, up, midOpt)
	case OrderIUPthenO:
		err = run(func() error { return form(true, false) }, midOpt)
	case OrderIUPO1:
		err = run(func() error { return form(true, true) }, midOpt)
	default:
		return nil, fmt.Errorf("compiler: unknown ordering %q", opts.Ordering)
	}
	if err != nil {
		return nil, err
	}

	// Output normalization for every block (cheap no-op for blocks
	// already normalized during formation).
	if err := cp("normalization"); err != nil {
		return nil, err
	}
	NormalizeProgram(prog)

	if err := ir.VerifyProgram(prog); err != nil {
		return nil, fmt.Errorf("compiler: produced invalid IR: %w", err)
	}

	// Back end: register allocation + reverse if-conversion.
	if opts.RegAlloc {
		if err := cp("register allocation"); err != nil {
			return nil, err
		}
		res.Alloc, res.AllocErrs = regalloc.AllocateProgram(prog, opts.RegAllocOpts)
		if err := ir.VerifyProgram(prog); err != nil {
			return nil, fmt.Errorf("compiler: register allocation broke IR: %w", err)
		}
	}
	return res, nil
}

// NormalizeProgram inserts output-normalizing null writes in every
// block of every function (TRIPS constant-output rule).
func NormalizeProgram(p *ir.Program) {
	for _, f := range p.OrderedFuncs() {
		lv := analysisLiveness(f)
		for _, b := range f.Blocks {
			trips.NormalizeOutputs(b, lv)
		}
	}
}
