package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// outcome is one timed operation as its caller saw it: an engine job
// submitted by Run in table1-cold or by Submit in hotkey-engine.
type outcome struct {
	latMS     float64
	ok        bool
	wrong     bool // ok, but result or output differs from the reference
	hit       bool // full-result cache hit
	skel      bool // compile served by skeleton replay
	coalesced bool
	fallbacks int
	cycles    int64
	compileNS int64 // compile time recorded with the result
	req       int   // index of the job
}

// closedLoop runs clients goroutines. Each asks next for an item, does
// it, and only then asks again, until until has passed or next reports
// no more work. It returns once every client has stopped.
func closedLoop(clients int, until time.Time, next func() (int, bool), do func(client, item int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) {
				i, ok := next()
				if !ok {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// sequence hands out 0..n-1 once, in order.
func sequence(n int) func() (int, bool) {
	var c atomic.Int64
	return func() (int, bool) {
		i := int(c.Add(1) - 1)
		return i, i < n
	}
}

// spans holds the traced run's per-layer samples. A nil *spans means
// tracing is off and no layer is wrapped.
type spans struct {
	storeGets durations
	storePuts durations
	tracers   []*engine.Tracer
}

// newTracedEngine builds an engine over an empty in-memory store. With
// spans set, the store is timed and the engine carries a tracer.
func newTracedEngine(workers int, sp *spans) *engine.Engine {
	var st store.Store = store.NewMem()
	cfg := engine.Config{Workers: workers}
	if sp != nil {
		st = timingStore{Store: st, gets: &sp.storeGets, puts: &sp.storePuts}
		cfg.Tracer = engine.NewTracer()
		sp.tracers = append(sp.tracers, cfg.Tracer)
	}
	cfg.Cache = engine.NewStoreCache(st)
	return engine.New(cfg)
}

// shareLayers reports how the engine served the timed operations.
func shareLayers(m metrics, outs []outcome) {
	var ok, hit, skel, co, fb float64
	var hitLat, skelLat, coldLat []float64
	for _, o := range outs {
		if !o.ok {
			continue
		}
		ok++
		switch {
		case o.hit:
			hit++
			hitLat = append(hitLat, o.latMS)
		case o.skel:
			skel++
			skelLat = append(skelLat, o.latMS)
		default:
			coldLat = append(coldLat, o.latMS)
		}
		if o.coalesced {
			co++
		}
		fb += float64(o.fallbacks)
	}
	share := func(n float64) float64 {
		if ok == 0 {
			return 0
		}
		return n / ok
	}
	m.set("engine.hit_share", "ratio", share(hit))
	m.set("engine.skeleton_share", "ratio", share(skel))
	m.set("engine.cold_share", "ratio", share(ok-hit-skel))
	m.set("engine.coalesced", "count", co)
	m.set("engine.skeleton_fallbacks", "count", fb)
	m.set("path.hit_ms", "ms", median(hitLat))
	m.set("path.skeleton_ms", "ms", median(skelLat))
	m.set("path.cold_ms", "ms", median(coldLat))
}

// tracerMark remembers how many events each tracer held, so the timed
// phase's events can be told from set-up's.
type tracerMark map[*engine.Tracer]int

func markTracers(trs []*engine.Tracer) tracerMark {
	mk := tracerMark{}
	for _, t := range trs {
		mk[t] = len(t.Events())
	}
	return mk
}

// since returns the events recorded after the mark. Events carry
// submission indices, which grow with every Submit.
func (mk tracerMark) since(trs []*engine.Tracer) []engine.Event {
	var out []engine.Event
	for _, t := range trs {
		for _, ev := range t.Events() {
			if ev.Index >= mk[t] {
				out = append(out, ev)
			}
		}
	}
	return out
}

// engineLayers reports the engine's own timings from tracer events. A
// coalesced submission carries the compile and sim times of the
// submission it joined, so only its wall time is its own.
func engineLayers(m metrics, evs []engine.Event) {
	var comp, sim, queue, wall []float64
	for _, ev := range evs {
		wall = append(wall, ev.WallMS)
		if ev.Coalesced {
			continue
		}
		comp = append(comp, ev.CompileMS)
		sim = append(sim, ev.SimMS)
		queue = append(queue, ev.WallMS-ev.CompileMS-ev.SimMS)
	}
	m.set("engine.jobs", "count", float64(len(evs)))
	m.set("engine.compile_ms", "ms", mean(comp))
	m.set("engine.sim_ms", "ms", mean(sim))
	m.set("engine.queue_ms", "ms", mean(queue))
	m.set("engine.wall_ms", "ms", mean(wall))
	p95, _ := percentile(wall, 0.95)
	m.set("engine.wall_p95_ms", "ms", p95)
}

// storeLayers reports the timed store's operations.
func storeLayers(m metrics, sp *spans) {
	gets, puts := sp.storeGets.take(), sp.storePuts.take()
	m.set("store.gets", "count", float64(len(gets)))
	m.set("store.puts", "count", float64(len(puts)))
	m.set("store.get_ms", "ms", mean(gets))
	m.set("store.put_ms", "ms", mean(puts))
}

// printMetrics writes metrics one per line, sorted by name.
func printMetrics(prefix string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s%-28s %14.6g %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}
