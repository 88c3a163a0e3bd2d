// Command parmbench is the end-to-end and per-layer benchmark of the PARM
// engine. It runs one named workload — a grid of cells, each one
// appmodel.Generate → core.NewEngine → Engine.Run — serially in this
// process, checks every cell's output, and prints every metric by name and
// unit, ending with one JSON line. Run it from the repository root:
//
//	bash parmbench/run.sh --workload fig6-cycle --seed 42 --seconds 32 --trace 0
//
// With --trace 1 a separate traced pass follows and the JSON line carries
// the per-layer metrics instead of the end-to-end ones. README.md lists the
// workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"parm/internal/core"
	"parm/internal/report"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	refsDir  string // committed references of defaultSeed
	cacheDir string // references of other seeds, span traces
	makeRefs string // child mode: write references into this directory
	audit    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 32, "untraced batches repeat while another one fits in this many seconds (at least one)")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	flag.StringVar(&o.makeRefs, "make-refs", "", "compute the workload's cycle references for -seed into this directory and exit")
	flag.BoolVar(&o.audit, "audit", false, "run the traced pass twice and check that every exact-marked count repeats")
	flag.Parse()
	o.refsDir, o.cacheDir = filepath.Join("parmbench", "refs"), defaultCacheDir()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if n := runtime.NumCPU(); n > 2 {
		// Two cores: the serial cell loop plus the engine's own PSN pool and
		// the GC, as on the 2-CPU host the baselines were measured on.
		runtime.GOMAXPROCS(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "parmbench: "+format+"\n", args...)
	os.Exit(1)
}

func defaultCacheDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "parmbench")
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options, out io.Writer) error {
	if o.workload == "" {
		return errors.New("--workload is required")
	}
	if o.makeRefs != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		return writeRefs(o.makeRefs, w.referenced(w.cells(o.seed)), 2)
	}
	ws := workloads
	if o.workload != "all" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		res, err := runWorkload(w, o, out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(ws) > 1 {
				k = w.Name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// referenceDir returns the directory holding the workload's references for
// seed, running the untimed pre-pass in a child process when a non-default
// seed has none yet.
func referenceDir(w *workload, o options) (string, error) {
	if o.seed == defaultSeed {
		dir := filepath.Join(o.refsDir, w.Name)
		if !refsComplete(dir) {
			return "", fmt.Errorf("committed references missing in %s", dir)
		}
		return dir, nil
	}
	hash, err := executableHash()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(o.cacheDir, "refs", hash, w.Name, "seed"+strconv.FormatInt(o.seed, 10))
	if refsComplete(dir) {
		return dir, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(exe, "--make-refs", dir, "--workload", w.Name, "--seed", strconv.FormatInt(o.seed, 10))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("reference pre-pass: %w", err)
	}
	return dir, nil
}

// checker counts attempted and failed Engine.Runs and keeps the first few
// failure reasons.
type checker struct {
	attempted, failed int
	reasons           []string
}

func (c *checker) cell(cell cellSpec, out []byte, err error, mismatch string) {
	c.attempted++
	reason := ""
	switch {
	case err != nil:
		reason = err.Error()
	case mismatch != "":
		reason = mismatch
	default:
		var s struct{ Completed, Dropped, Unfinished int }
		if jerr := json.Unmarshal(out, &s); jerr != nil {
			reason = "unreadable output: " + jerr.Error()
		} else if s.Completed+s.Dropped+s.Unfinished != cell.Apps {
			reason = fmt.Sprintf("completed+dropped+unfinished = %d, want %d apps",
				s.Completed+s.Dropped+s.Unfinished, cell.Apps)
		}
	}
	if reason != "" {
		c.failed++
		if len(c.reasons) < 10 {
			c.reasons = append(c.reasons, cell.ID()+": "+reason)
		}
	}
}

// workloadRun is everything one workload's measurement produced.
type workloadRun struct {
	r      *runner
	timed  *timedResult
	traced []*tracedResult
	check  checker
}

// measureWorkload runs the timed passes and, when traced > 0, that many
// traced passes, and checks every cell.
func measureWorkload(w *workload, o options, traced int, prep func(*runner)) (*workloadRun, error) {
	cells := w.cells(o.seed)
	dir, err := referenceDir(w, o)
	if err != nil {
		return nil, err
	}
	refCells := w.referenced(cells)
	wr := &workloadRun{r: &runner{cells: cells}}
	if prep != nil {
		prep(wr.r)
	}
	loadAll := func() ([]reference, error) {
		refs, err := loadRefs(dir, refCells)
		if err != nil {
			return nil, err
		}
		return append(refs, make([]reference, len(cells)-len(refs))...), nil
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if wr.timed, err = wr.r.timed(budget, loadAll); err != nil {
		return nil, err
	}
	for i := 0; i < traced; i++ {
		tr, err := wr.r.traced()
		if err != nil {
			return nil, err
		}
		wr.traced = append(wr.traced, tr)
	}
	first := wr.timed.batches[0]
	checkBatch := func(b batch, what string) {
		for i, c := range cells {
			mismatch := ""
			switch {
			case b.outs[i] == nil:
			case w.Mode == core.NoCModeCycle && !bytes.Equal(b.outs[i], wr.r.refs[i].raw):
				mismatch = "output differs from its cycle reference"
			case !bytes.Equal(b.outs[i], first.outs[i]):
				mismatch = "output differs between the first untraced batch and " + what
			}
			wr.check.cell(c, b.outs[i], b.errs[i], mismatch)
		}
	}
	for k, b := range wr.timed.batches {
		checkBatch(b, fmt.Sprintf("untraced batch %d", k+1))
	}
	for _, tr := range wr.traced {
		checkBatch(tr.batch, "the traced batch")
	}
	return wr, nil
}

func runWorkload(w *workload, o options, out io.Writer) (*result, error) {
	traced := 0
	if o.trace {
		traced = 1
	}
	if o.audit {
		traced = 2
	}
	wr, err := measureWorkload(w, o, traced, nil)
	if err != nil {
		return nil, err
	}
	e2e, notes, err := wr.endToEnd()
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   wr.check.failed == 0,
		Attempted: wr.check.attempted,
		Failed:    wr.check.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(out, "parmbench %s seed=%d cells=%d untraced-batches=%d GOMAXPROCS=%d\n",
		w.Name, o.seed, len(wr.r.cells), len(wr.timed.batches), runtime.GOMAXPROCS(0))
	t := report.NewTable("end-to-end metrics (tracing off)", "metric", "value", "unit", "note")
	for _, m := range endToEndMetrics {
		t.AddRow(m.Name, e2e[m.Name], m.Unit, notes[m.Name])
	}
	t.AddRow("fail_ratio", float64(wr.check.failed)/float64(wr.check.attempted), "ratio",
		fmt.Sprintf("%d failed of %d Engine.Runs", wr.check.failed, wr.check.attempted))
	if err := t.Write(out); err != nil {
		return nil, err
	}
	for _, r := range wr.check.reasons {
		fmt.Fprintf(out, "FAILED %s\n", r)
	}
	if !o.trace && !o.audit {
		for _, m := range endToEndMetrics {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
		return res, nil
	}
	layer := wr.perLayer(wr.traced[0])
	if err := writeBreakdown(out, layer, wr.traced[0].batch.wall.Seconds()); err != nil {
		return nil, err
	}
	t = report.NewTable("per-layer metrics (traced pass)", "metric", "value", "unit")
	for _, m := range perLayerMetrics {
		t.AddRow(m.Name, layer[m.Name], m.Unit)
		res.Metrics[m.Name] = metricValue{layer[m.Name], m.Unit}
	}
	if err := t.Write(out); err != nil {
		return nil, err
	}
	spans := filepath.Join(o.cacheDir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, o.seed))
	if err := writeSpans(spans, wr.traced[0].spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %s\n", spans)
	if o.audit {
		if err := wr.audit(out); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics from the untraced batches; notes
// carries the tail's percentile and sample count.
func (wr *workloadRun) endToEnd() (map[string]float64, map[string]string, error) {
	tm := wr.timed
	walls := tm.walls()
	// One sample per cell, its median over the batches, so the percentiles
	// rest on the same sample count however many batches fit the budget.
	runs := make([]float64, len(wr.r.cells))
	for i := range runs {
		var xs []float64
		for _, b := range tm.batches {
			xs = append(xs, b.runs[i].Seconds())
		}
		runs[i] = median(xs)
	}
	tailV, tailP := tail(runs)
	d, err := computeDrift(tm.batches[0].outs, wr.r.refs)
	if err != nil {
		return nil, nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, nil, err
	}
	m := map[string]float64{
		"setup_s":         median(tm.setup),
		"wall_s":          median(walls),
		"run_s.p50":       median(runs),
		"run_s.tail":      tailV,
		"max_rss_mb":      float64(ru.Maxrss) / 1024, // Linux reports KiB
		"drift.ves":       1 + d.VEs,
		"drift.energy":    1 + d.Energy,
		"drift.completed": 1 + d.Completed,
		"drift.latency":   1 + d.Latency,
	}
	nref := 0
	for _, r := range wr.r.refs {
		if r.valid {
			nref++
		}
	}
	driftNote := fmt.Sprintf("1 + mean relative error vs cycle mode over %d cells", nref)
	notes := map[string]string{
		"setup_s":         fmt.Sprintf("median of %d set-ups", len(tm.setup)),
		"wall_s":          fmt.Sprintf("median of %d batches, range %.4g-%.4g", len(walls), slices.Min(walls), slices.Max(walls)),
		"run_s.p50":       fmt.Sprintf("n=%d cells, each its median over the batches", len(runs)),
		"run_s.tail":      fmt.Sprintf("p%.1f, n=%d", tailP, len(runs)),
		"drift.ves":       driftNote,
		"drift.energy":    driftNote,
		"drift.completed": driftNote,
		"drift.latency":   driftNote,
	}
	return m, notes, nil
}

// perLayer computes the per-layer metrics of one traced pass. Each layer's
// self time is its share of the profile's CPU time applied to the untraced
// wall time, so the layers plus trace.overhead_s sum to the traced wall.
func (wr *workloadRun) perLayer(tr *tracedResult) map[string]float64 {
	untraced := median(wr.timed.walls())
	var cpuTotal float64
	for _, l := range layers {
		cpuTotal += tr.cpu[l]
	}
	m := map[string]float64{}
	for _, l := range layers {
		share := 0.0
		if cpuTotal > 0 {
			share = tr.cpu[l] / cpuTotal
		}
		m[l+".self_s"] = share * untraced
	}
	c := tr.counters
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	windows, analytic := c["noc/windows"], c["noc/analytic_windows"]
	// Every window adds its measured cycles; only cycle-simulated ones also
	// pay warmup, so the measured cycles per window split the total.
	simulated := c["noc/warmup_cycles"] + (windows-analytic)*ratio(c["noc/measured_cycles"], windows)
	m["noc.route_calls"] = float64(tr.routeCalls)
	m["noc.cycles_simulated"] = simulated
	m["noc.ns_per_cycle"] = ratio(m["noc.self_s"]*1e9, simulated)
	m["noc.warmup_share"] = ratio(c["noc/warmup_cycles"], simulated)
	m["noc.windows"] = windows
	m["noc.analytic_windows"] = analytic
	m["noc.fallback_ratio"] = ratio(c["noc/analytic_fallbacks"], analytic+c["noc/analytic_fallbacks"])
	m["noc.memo_hit_ratio"] = ratio(c["noc/memo/hits"], c["noc/memo/hits"]+c["noc/memo/misses"])
	m["chip.psn_samples"] = c["chip/psn/samples"]
	m["chip.domain_solves"] = c["chip/psn/domain_solves"]
	m["pdn.cache_hit_ratio"] = ratio(c["pdn/cache/hits"], c["pdn/cache/hits"]+c["pdn/cache/misses"])
	m["pdn.us_per_solve"] = ratio(m["pdn.self_s"]*1e6, c["chip/psn/domain_solves"])
	m["mapping.calls"] = float64(tr.mapCalls)
	m["mapping.map_s"] = tr.mapBusy.Seconds()
	m["mapping.placed_ratio"] = ratio(float64(tr.mapPlaced), float64(tr.mapCalls))
	m["core.events"] = c["engine/events"]
	m["core.candidates"] = c["mapper/candidates"]
	m["core.reject.deadline"] = c["mapper/reject/deadline"]
	m["core.reject.budget"] = c["mapper/reject/budget"]
	m["core.reject.region"] = c["mapper/reject/region"]
	m["core.stalls"] = c["mapper/stalls"]
	m["core.dropped"] = c["mapper/dropped"]
	m["appmodel.generate_s"] = median(wr.timed.generate)
	m["runtime.gc_s"] = tr.gcCPU
	m["runtime.alloc_mb_per_run"] = tr.allocBytes / float64(1<<20) / float64(len(wr.r.cells))
	m["trace.overhead_s"] = tr.batch.wall.Seconds() - untraced
	return m
}

// writeBreakdown prints the per-layer self-time table: one row per layer
// plus the tracing overhead, summing to the traced wall time.
func writeBreakdown(out io.Writer, m map[string]float64, tracedWall float64) error {
	t := report.NewTable("per-layer self time (traced pass; CPU-profile share of untraced wall)",
		"layer", "self_s", "share(%)")
	sum := 0.0
	for _, l := range layers {
		v := m[l+".self_s"]
		sum += v
		t.AddRow(l, v, 100*v/tracedWall)
	}
	ov := m["trace.overhead_s"]
	sum += ov
	t.AddRow("trace overhead", ov, 100*ov/tracedWall)
	t.AddRow("total", sum, 100*sum/tracedWall)
	t.AddRow("traced wall", tracedWall, 100.0)
	return t.Write(out)
}

func writeSpans(path string, s *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := s.tl.WriteChromeTrace(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// audit compares two traced passes metric by metric and fails when a value
// marked exact differs.
func (wr *workloadRun) audit(out io.Writer) error {
	a, b := wr.perLayer(wr.traced[0]), wr.perLayer(wr.traced[1])
	t := report.NewTable("exactness audit (two traced passes)", "metric", "pass 1", "pass 2", "repeats", "marked")
	var broken []string
	for _, m := range perLayerMetrics {
		same := a[m.Name] == b[m.Name] || (math.IsNaN(a[m.Name]) && math.IsNaN(b[m.Name]))
		exact := len(m.Unit) > len(exactPrefix) && m.Unit[:len(exactPrefix)] == exactPrefix
		t.AddRow(m.Name, strconv.FormatFloat(a[m.Name], 'g', -1, 64), strconv.FormatFloat(b[m.Name], 'g', -1, 64), same, exact)
		if exact && !same {
			broken = append(broken, m.Name)
		}
	}
	if err := t.Write(out); err != nil {
		return err
	}
	if len(broken) > 0 {
		return fmt.Errorf("counts marked exact did not repeat: %v", broken)
	}
	return nil
}
