// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload in this process and prints its metrics, the last
// line being one JSON object:
//
//	perfbench --workload table1-cold|hotkey-engine --seed N --seconds S --trace 0|1
//
// With --trace 0 nothing is wrapped and the end-to-end metrics are
// reported; with --trace 1 every layer is wrapped and timed from the
// outside and the per-layer metrics are reported instead. README.md
// lists the workloads and which end-to-end metric each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/buildinfo"
)

// endToEnd and perLayer name the metrics of the result line, as
// BENCHMARK.json lists them. Everything else a run measures is printed
// above that line: error_rate and wrong_outputs are zero on every
// workload (any other value fails the run), and latency_p99_ms lacks
// ten samples beyond it on table1-cold.
var (
	endToEnd = []string{"setup_s", "ops_per_s", "latency_p50_ms", "latency_p95_ms", "alloc_mb_per_op", "cycles_geomean"}
	perLayer = []string{
		"lang.ms", "opt.ms", "profile.ms", "core.form_ms", "compiler.unroll_peel_ms", "compiler.misc_ms",
		"timing.ms", "phases.unattributed_ms", "core.form_alloc_mb",
		"core.merges", "core.tail_dups", "core.head_dups", "timing.blocks", "timing.mispredicts",
		"trace.redrive_jobs", "trace.redrive_mismatches",
		"engine.jobs", "engine.compile_ms", "engine.sim_ms", "engine.queue_ms", "engine.wall_ms", "engine.wall_p95_ms",
		"engine.hit_share", "engine.skeleton_share", "engine.cold_share", "engine.coalesced", "engine.skeleton_fallbacks",
		"path.hit_ms", "path.skeleton_ms", "path.cold_ms", "store.gets", "store.puts", "store.get_ms", "store.put_ms",
		"trace.ops_per_s",
	}
)

// pick returns the named metrics of m, failing on any that is missing.
func pick(m metrics, names []string) (metrics, error) {
	out := metrics{}
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = v
	}
	return out, nil
}

// setupBefore is how many set-ups precede a run's timed phase, and
// setupEvery the share of the timed phase after which a pass is
// followed by one more; setup_s is the median of all of them.
const (
	setupBefore = 3
	setupEvery  = 0.1
)

// benchProcs is the parallelism of every run: closed-loop clients,
// engine workers and GOMAXPROCS. On the 2-vCPU virtual machine the
// benchmark was written on, identical hot-key passes ran at 159–208
// requests/s with both vCPUs busy and at 109–113 with one, so only
// one-vCPU figures are steady enough to compare two commits by.
const benchProcs = 1

// passCap bounds one closed-loop pass, so that a stuck engine fails the
// run well inside the three minutes a run may take.
const passCap = 120 * time.Second

type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	clients int // closed-loop clients, or engine workers for table1-cold
}

// runResult is what a workload measured.
type runResult struct {
	setupS      []float64
	outs        []outcome     // timed operations
	passRates   []float64     // ok operations per second, per pass
	opsPerS     float64       // ok operations per second over all passes
	opLat       []float64     // latency samples, ms: every ok operation of every pass
	firstCycles map[int]int64 // per request, the cycles of its first ok run
	allocBytes  uint64
	cycles      []float64 // simulated cycles the geomean is taken over
	layers      metrics   // traced runs only
}

// result is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "table1-cold or hotkey-engine")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	tree := flag.String("tree", "", "digest of the source tree, printed with the build stamp")
	flag.Parse()

	runtime.GOMAXPROCS(benchProcs)
	if raceBuild() {
		fail(fmt.Errorf("built with -race: the race detector dominates every timing; rebuild without it"))
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		clients: benchProcs}
	info := buildinfo.Collect("perfbench")
	fmt.Printf("perfbench: workload %s seed %d seconds %d trace %v\n", *wl, *seed, *seconds, cfg.trace)
	fmt.Printf("stamp: nproc %d GOMAXPROCS %d %s commit %s tree %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), info.GoVersion, info.Revision, *tree)

	var rr *runResult
	var err error
	switch *wl {
	case "table1-cold":
		rr, err = runTable1(cfg)
	case "hotkey-engine":
		rr, err = runHotkey(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", *wl)
	}
	if err != nil {
		fail(err)
	}
	res, err := summarize(*wl, cfg, rr)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// summarize prints every metric with its unit and builds the result
// line: end-to-end metrics untraced, per-layer metrics traced.
func summarize(wl string, cfg runConfig, rr *runResult) (result, error) {
	res := result{Attempted: len(rr.outs), Metrics: metrics{}}
	wrong := 0
	for _, o := range rr.outs {
		switch {
		case !o.ok:
			res.Failed++
		case o.wrong:
			wrong++
		}
	}
	// Every workload is deterministic and should see no error: a failed
	// operation would drop out of every figure below, so it fails the
	// run like a wrong one.
	res.Correct = wrong == 0 && res.Failed == 0
	lat := rr.opLat
	if res.Attempted == 0 || len(lat) == 0 {
		return res, fmt.Errorf("no operation completed")
	}
	e2e := metrics{}
	e2e.set("setup_s", "s", median(rr.setupS))
	e2e.set("ops_per_s", "1/s", rr.opsPerS)
	p95, ok95 := percentile(lat, 0.95)
	if !ok95 {
		return res, fmt.Errorf("%d latency samples leave fewer than %d beyond p95", len(lat), minBeyond)
	}
	e2e.set("latency_p50_ms", "ms", median(lat))
	e2e.set("latency_p95_ms", "ms", p95)
	e2e.set("alloc_mb_per_op", "MB", float64(rr.allocBytes)/(1<<20)/float64(res.Attempted))
	g, err := geomean(rr.cycles)
	if err != nil {
		return res, fmt.Errorf("cycles_geomean: %w", err)
	}
	e2e.set("cycles_geomean", "cycles", g)

	fmt.Printf("%s: %d attempted, %d failed, %d wrong, %d latency samples, %d passes at %.4g ops/s; set-ups took %.3f s\n",
		wl, res.Attempted, res.Failed, wrong, len(lat), len(rr.passRates), rr.passRates, rr.setupS)
	fmt.Printf("  %-28s %14.6g %s\n", "error_rate", float64(res.Failed)/float64(res.Attempted), "ratio")
	fmt.Printf("  %-28s %14d %s\n", "wrong_outputs", wrong, "count")
	for _, p := range []float64{0.90, 0.99} {
		name := fmt.Sprintf("latency_p%.0f_ms", 100*p)
		if v, ok := percentile(lat, p); ok {
			fmt.Printf("  %-28s %14.6g %s\n", name, v, "ms")
		} else {
			fmt.Printf("  %-28s %14s (%d samples leave fewer than %d beyond)\n", name, "n/a", len(lat), minBeyond)
		}
	}
	printMetrics("  ", e2e)
	if !cfg.trace {
		res.Metrics, err = pick(e2e, endToEnd)
		return res, err
	}
	rr.layers.set("trace.ops_per_s", "1/s", rr.opsPerS)
	fmt.Println("per-layer (traced run; ops_per_s above includes tracing overhead):")
	printMetrics("  ", rr.layers)
	res.Metrics, err = pick(rr.layers, perLayer)
	return res, err
}

// raceBuild reports whether the binary was built with the race
// detector.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
