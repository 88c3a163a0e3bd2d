package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"parm/internal/appmodel"
	"parm/internal/core"
	"parm/internal/noc"
	"parm/internal/obs"
)

// runner executes a workload's batch of cells.
type runner struct {
	cells []cellSpec
	refs  []reference // per cell; valid only for cells with a reference
	// wrapRouting, when non-nil, decorates every cell's routing, beneath the
	// traced pass's counter (the sensitivity self-test injects a slow router).
	wrapRouting func(noc.Algorithm) noc.Algorithm
}

// prepared is a batch ready to run: one generated workload and one fresh
// engine per cell (engines are single-use).
type prepared struct {
	ws   []*appmodel.Workload
	engs []*core.Engine
}

// prepare generates every cell's workload and builds its engine; fw
// supplies each cell's framework.
func (r *runner) prepare(fw func(cellSpec) core.Framework) (prepared, time.Duration, error) {
	p := prepared{ws: make([]*appmodel.Workload, len(r.cells)), engs: make([]*core.Engine, len(r.cells))}
	var gen time.Duration
	for i, c := range r.cells {
		t0 := time.Now()
		w, err := newAppWorkload(c)
		gen += time.Since(t0)
		if err != nil {
			return p, gen, fmt.Errorf("%s: %w", c.ID(), err)
		}
		eng, err := core.NewEngine(c.Config(), fw(c))
		if err != nil {
			return p, gen, fmt.Errorf("%s: %w", c.ID(), err)
		}
		p.ws[i], p.engs[i] = w, eng
	}
	return p, gen, nil
}

func (r *runner) untracedFramework(c cellSpec) core.Framework {
	fw := c.Framework()
	if r.wrapRouting != nil {
		fw.Routing = r.wrapRouting(fw.Routing)
	}
	return fw
}

// batch is one serial pass over every cell.
type batch struct {
	wall time.Duration
	runs []time.Duration
	outs [][]byte // Metrics.WriteJSON per cell; nil when the run failed
	errs []error
}

// run executes the prepared cells one at a time, timing the whole batch and
// each Engine.Run, then serializes the outputs outside the timed region.
func (p prepared) run(each func(i int) func()) batch {
	n := len(p.engs)
	b := batch{runs: make([]time.Duration, n), outs: make([][]byte, n), errs: make([]error, n)}
	ms := make([]*core.Metrics, n)
	start := time.Now()
	for i, eng := range p.engs {
		done := func() {}
		if each != nil {
			done = each(i)
		}
		t0 := time.Now()
		ms[i], b.errs[i] = eng.Run(p.ws[i])
		b.runs[i] = time.Since(t0)
		done()
	}
	b.wall = time.Since(start)
	for i, m := range ms {
		if b.errs[i] != nil {
			continue
		}
		var buf bytes.Buffer
		if b.errs[i] = m.WriteJSON(&buf); b.errs[i] == nil {
			b.outs[i] = buf.Bytes()
		}
	}
	return b
}

// timedResult gathers the untraced passes of one run.
type timedResult struct {
	setup    []float64 // seconds per set-up repetition
	generate []float64 // seconds of workload generation in each set-up
	batches  []batch
}

// walls returns each untraced batch's wall time in seconds.
func (t *timedResult) walls() []float64 {
	out := make([]float64, len(t.batches))
	for i, b := range t.batches {
		out[i] = b.wall.Seconds()
	}
	return out
}

// setupReps is how many times a run repeats its set-up to report a median.
const setupReps = 9

// timed performs the set-up repetitions and then untraced batches for as
// long as another batch, taking as long as the last one, still fits in
// budget (always one batch). loadRefs re-reads the references inside each
// set-up, since that is part of what set-up costs.
func (r *runner) timed(budget time.Duration, loadRefs func() ([]reference, error)) (*timedResult, error) {
	res := &timedResult{}
	var next prepared
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		p, gen, err := r.prepare(r.untracedFramework)
		if err != nil {
			return nil, err
		}
		refs, err := loadRefs()
		if err != nil {
			return nil, fmt.Errorf("load references: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		res.generate = append(res.generate, gen.Seconds())
		r.refs, next = refs, p
	}
	var measured time.Duration
	for {
		runtime.GC()
		b := next.run(nil)
		res.batches = append(res.batches, b)
		measured += b.wall
		if measured+b.wall > budget {
			return res, nil
		}
		var err error
		if next, _, err = r.prepare(r.untracedFramework); err != nil {
			return nil, err
		}
	}
}

// tracedResult is the traced pass: the batch run once more with the mapper
// and routing wrapped, engine telemetry on and a CPU profile recorded.
type tracedResult struct {
	batch      batch
	counters   map[string]float64 // telemetry counters by registry path
	routeCalls uint64
	mapCalls   int
	mapPlaced  int
	mapBusy    time.Duration
	cpu        map[string]float64 // profile CPU seconds by layer
	gcCPU      float64            // GC CPU seconds during the batch
	allocBytes float64            // heap bytes allocated during the batch
	spans      *spanLog
}

// spanCapacity bounds the in-memory span log; cells of the largest workload
// make about 10^4 Map calls per batch.
const spanCapacity = 1 << 17

// profileHz is the CPU profile's sampling rate in the traced pass.
const profileHz = 500

// counterPaths are the telemetry counters the per-layer metrics read.
var counterPaths = []string{
	"engine/events", "mapper/candidates", "mapper/stalls", "mapper/dropped",
	"mapper/reject/deadline", "mapper/reject/budget", "mapper/reject/region",
	"noc/memo/hits", "noc/memo/misses", "noc/windows", "noc/analytic_windows",
	"noc/analytic_fallbacks", "noc/warmup_cycles", "noc/measured_cycles",
	"chip/psn/samples", "chip/psn/domain_solves", "pdn/cache/hits", "pdn/cache/misses",
}

// traced runs the traced pass. Every measurement is taken from outside the
// program: wrappers around the framework's Mapper and Routing, the engine's
// own telemetry registry, runtime metrics and a CPU profile.
func (r *runner) traced() (*tracedResult, error) {
	res := &tracedResult{spans: newSpanLog(spanCapacity)}
	reg := obs.NewRegistry()
	var routeCalls atomic.Uint64
	setup := res.spans.begin("setup")
	p, _, err := r.prepare(func(c cellSpec) core.Framework {
		fw := r.untracedFramework(c)
		fw.Mapper = tracedMapper{inner: fw.Mapper, spans: res.spans,
			calls: &res.mapCalls, placed: &res.mapPlaced, busy: &res.mapBusy}
		fw.Routing = countingRouting{inner: fw.Routing, calls: &routeCalls}
		return fw
	})
	if err != nil {
		return nil, err
	}
	for _, eng := range p.engs {
		eng.EnableTelemetry(reg)
	}
	res.spans.end(setup)

	runtime.GC()
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samples)
	gc0, alloc0 := samples[0].Value.Float64(), samples[1].Value.Uint64()
	var prof bytes.Buffer
	// Sample at profileHz rather than pprof's default 100 Hz so the short
	// layers (mapping, sched) of a few-second pass still collect samples.
	// StartCPUProfile then warns on stderr that the rate is already set.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	res.batch = p.run(func(i int) func() {
		id := res.spans.begin("cell " + r.cells[i].ID())
		return func() { res.spans.end(id) }
	})
	pprof.StopCPUProfile()
	metrics.Read(samples)
	res.gcCPU = samples[0].Value.Float64() - gc0
	res.allocBytes = float64(samples[1].Value.Uint64() - alloc0)
	res.routeCalls = routeCalls.Load()

	if res.cpu, err = attributeProfile(prof.Bytes()); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	snap := reg.Snapshot()
	res.counters = make(map[string]float64, len(counterPaths))
	for _, path := range counterPaths {
		res.counters[path] = snapshotValue(snap, path)
	}
	return res, nil
}

// snapshotValue reads the counter at a slash path of a nested
// Registry.Snapshot (0 when absent, as for a counter never registered).
func snapshotValue(snap map[string]interface{}, path string) float64 {
	var cur interface{} = snap
	for _, part := range strings.Split(path, "/") {
		m, ok := cur.(map[string]interface{})
		if !ok {
			return 0
		}
		cur = m[part]
	}
	v, _ := cur.(uint64)
	return float64(v)
}
