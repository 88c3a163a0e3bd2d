package core

import (
	"testing"

	"parm/internal/appmodel"
	"parm/internal/chip"
)

// kneeBench is a synthetic communication-intensive benchmark whose WCET
// minimum (the sync knee, DESIGN.md §2) sits well below DoP 32: the heavy
// synchronization term makes WCET(32) > WCET(16) at every Vdd. The name is
// unique so the package-level WCET cache cannot collide with pool benchmarks.
func kneeBench() appmodel.Benchmark {
	return appmodel.Benchmark{
		Name:               "synthetic-knee",
		Kind:               appmodel.CommIntensive,
		Shape:              appmodel.ShapeForkJoin,
		WorkGCycles:        2.0,
		SerialFrac:         0.02,
		SyncKCyclesPerTask: 60000,
		CommMBTotal:        2000,
		HighTaskFrac:       0.4,
	}
}

// Regression test for the Algorithm 1 DoP scan: a deadline miss at a high
// DoP must not abandon the Vdd level while WCET is still falling toward the
// sync knee. With the old first-miss break, this app's DoP-32 miss at 0.4 V
// escalated straight to 0.5 V even though a mid DoP met the deadline at
// 0.4 V — PARM's "lowest Vdd first" guarantee silently broke for
// communication-intensive benchmarks whose knee sits below DoP 32.
func TestAlgorithm1ScansPastSyncKnee(t *testing.T) {
	b := kneeBench()
	p := node7()
	vddLow := p.VddLevels(0.1)[0]

	// Establish the knee shape this test depends on, so a profile-model
	// change fails loudly here instead of silently weakening the test.
	w32 := b.WCETEstimate(p, vddLow, 32)
	minW, minDoP := w32, 32
	for _, dop := range appmodel.DoPValues() {
		if w := b.WCETEstimate(p, vddLow, dop); w < minW {
			minW, minDoP = w, dop
		}
	}
	if minDoP >= 32 || minW >= w32 {
		t.Fatalf("benchmark lost its knee: min WCET %.3f at DoP %d, WCET(32)=%.3f",
			minW, minDoP, w32)
	}

	// A deadline between the knee WCET and the DoP-32 WCET: infeasible at
	// DoP 32, feasible at the knee, all at the lowest Vdd.
	deadline := (minW + w32) / 2
	w := &appmodel.Workload{
		Kind: appmodel.WorkloadComm,
		Apps: []*appmodel.App{{ID: 1, Bench: b, Arrival: 0, RelDeadline: deadline}},
	}
	m := runOne(t, Config{}, MustCombo("PARM", "PANR"), w)
	o := m.Apps[0]
	if o.MappedAt == 0 && o.State == StateDropped {
		t.Fatal("app dropped; scan never reached a feasible DoP")
	}
	if o.Vdd != vddLow {
		t.Errorf("mapped at %.1f V, want %.1f V: DoP scan bailed before the sync knee", o.Vdd, vddLow)
	}
	if got := b.WCETEstimate(p, o.Vdd, o.DoP); got >= deadline {
		t.Errorf("chosen DoP %d has WCET %.3f >= deadline %.3f", o.DoP, got, deadline)
	}
}

// The parallel, cached measurement pipeline must produce bit-identical
// metrics to the serial, uncached reference on the same workload — the
// determinism contract (load quantization is applied in both paths, the
// solve cache keys on exact inputs, and aggregation is ordered by domain
// index).
func TestPipelineSerialParallelDeterministic(t *testing.T) {
	serial := Config{
		SoftDeadlines: true,
		Chip:          chip.Config{PSNWorkers: 1, DisablePSNCache: true},
	}
	parallel := Config{SoftDeadlines: true} // default: pooled workers + caches

	run := func(cfg Config) (*Metrics, *Engine) {
		w := genWorkload(t, appmodel.WorkloadMixed, 6, 0.05, 42)
		eng, err := NewEngine(cfg, MustCombo("PARM", "PANR"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return m, eng
	}
	want, _ := run(serial)
	got, eng := run(parallel)

	if got.TotalTime != want.TotalTime || got.PeakPSN != want.PeakPSN ||
		got.AvgPSN != want.AvgPSN || got.MeanPacketLatency != want.MeanPacketLatency ||
		got.TotalVEs != want.TotalVEs || got.TotalEnergyJ != want.TotalEnergyJ ||
		got.Completed != want.Completed || got.Samples != want.Samples {
		t.Errorf("aggregate metrics diverged:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("app counts differ: %d vs %d", len(got.Apps), len(want.Apps))
	}
	for i := range want.Apps {
		a, b := got.Apps[i], want.Apps[i]
		if a.Vdd != b.Vdd || a.DoP != b.DoP || a.MappedAt != b.MappedAt ||
			a.CompletedAt != b.CompletedAt || a.WaitTime != b.WaitTime ||
			a.VEs != b.VEs || a.AvgPacketLatency != b.AvgPacketLatency ||
			a.EnergyJ != b.EnergyJ {
			t.Errorf("app %d outcomes diverged:\n got %+v\nwant %+v", i, a, b)
		}
	}

	// The fast path must actually have been exercised, or this test proves
	// nothing about the cache.
	if eng.Chip().PSNCacheStats().Hits == 0 {
		t.Error("PSN solve cache never hit")
	}
}
