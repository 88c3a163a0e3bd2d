package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"parm/internal/geom"
	"parm/internal/noc"
)

func testOptions(t *testing.T) options {
	return options{seed: defaultSeed, refsDir: "refs", cacheDir: t.TempDir()}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json, the
// benchmark's machine-readable description, in step with the metric and
// workload tables the program reports from.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, program %q / %q", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestReferencesRegenerate recomputes the committed default-seed cycle
// references and requires them byte-for-byte.
func TestReferencesRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes every reference cell")
	}
	for _, w := range workloads {
		dir := filepath.Join(t.TempDir(), w.Name)
		cells := w.referenced(w.cells(defaultSeed))
		if err := writeRefs(dir, cells, 2); err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			got, err := os.ReadFile(filepath.Join(dir, c.ID()+".json"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("refs", w.Name, c.ID()+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: regenerated reference differs from the committed one", w.Name, c.ID())
			}
		}
	}
}

// slowRouting busy-waits a fixed time before every Route call and then
// routes exactly as the wrapped algorithm does.
type slowRouting struct {
	inner noc.Algorithm
	wait  time.Duration
}

func (s slowRouting) Name() string { return s.inner.Name() }

func (s slowRouting) Route(ctx noc.RouteCtx) geom.Dir {
	for t0 := time.Now(); time.Since(t0) < s.wait; {
	}
	return s.inner.Route(ctx)
}

// sensitivityRun measures one untraced batch and one traced batch of w,
// optionally with every Route call slowed by wait.
func sensitivityRun(t *testing.T, name string, wait time.Duration) (*workloadRun, map[string]float64, map[string]float64) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := measureWorkload(w, testOptions(t), 1, func(r *runner) {
		if wait > 0 {
			r.wrapRouting = func(a noc.Algorithm) noc.Algorithm { return slowRouting{a, wait} }
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e2e, _, err := wr.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	return wr, e2e, wr.perLayer(wr.traced[0])
}

// TestSensitivity injects a NoC slowdown that changes no result: a router
// that busy-waits on every Route call. fig6-cycle, dominated by the cycle
// loop, must report it beyond wall_s's bound, with identical outputs, route
// counts and no failures; oversub-analytic, which routes ~50x less per run,
// must move far less per run.
func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig6-cycle and oversub-analytic twice each")
	}
	const wait = time.Microsecond
	bound := 0.0
	for _, m := range endToEndMetrics {
		if m.Name == "wall_s" {
			bound = m.Bound
		}
	}
	perRun := map[string]float64{}
	for _, name := range []string{"fig6-cycle", "oversub-analytic"} {
		base, baseE2E, baseLayer := sensitivityRun(t, name, 0)
		slow, slowE2E, slowLayer := sensitivityRun(t, name, wait)
		for _, wr := range []*workloadRun{base, slow} {
			if wr.check.failed != 0 {
				t.Fatalf("%s: %d failed cells: %v", name, wr.check.failed, wr.check.reasons)
			}
		}
		for i, c := range base.r.cells {
			if !bytes.Equal(base.timed.batches[0].outs[i], slow.timed.batches[0].outs[i]) {
				t.Errorf("%s/%s: slowed router changed the output", name, c.ID())
			}
		}
		if b, s := baseLayer["noc.route_calls"], slowLayer["noc.route_calls"]; b != s {
			t.Errorf("%s: noc.route_calls %v with the slow router, %v without", name, s, b)
		}
		rel := slowE2E["wall_s"]/baseE2E["wall_s"] - 1
		perRun[name] = (slowE2E["wall_s"] - baseE2E["wall_s"]) / float64(len(base.r.cells))
		t.Logf("%s: wall_s %.3f -> %.3f s (%+.1f%%), %+.4f s per run, %.0f route calls",
			name, baseE2E["wall_s"], slowE2E["wall_s"], 100*rel, perRun[name], baseLayer["noc.route_calls"])
		if name == "fig6-cycle" && rel <= bound {
			t.Errorf("fig6-cycle: wall_s grew %.1f%%, not beyond its %.0f%% bound", 100*rel, 100*bound)
		}
	}
	if perRun["oversub-analytic"] > perRun["fig6-cycle"]/5 {
		t.Errorf("oversub-analytic moved %.4f s per run, not far less than fig6-cycle's %.4f s",
			perRun["oversub-analytic"], perRun["fig6-cycle"])
	}
}

// spin burns CPU in this package's own frames, reading the clock only
// once per million steps so runtime frames stay a small share.
//
//go:noinline
func spin(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e6; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestAttributeProfile decodes a real CPU profile and finds the busy loop
// under the benchmark's own package ("other").
func TestAttributeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	cpu, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range cpu {
		total += v
	}
	if total == 0 || cpu["other"] < 0.5*total {
		t.Errorf("busy loop attributed %v of %v CPU s to other: %v", cpu["other"], total, cpu)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct{ fn, layer string }{
		{"parm/internal/noc.(*Network).Step", "noc"},
		{"parm/internal/pdn.solveLinearInto", "pdn"},
		{"runtime.mallocgc", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime"},
		{"main.countingRouting.Route", "other"},
		{"math.Exp", ""},
		{"parm/internal/geom.Mesh.Coord", ""},
	}
	for _, c := range cases {
		got, _ := layerOf(funcPackage(c.fn))
		if got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.layer)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p := tail(xs)
	if v != 30 || p != 75 {
		t.Errorf("tail of 1..40 = %v at p%v, want 30 at p75", v, p)
	}
}
