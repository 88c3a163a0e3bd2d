package core

import (
	"bytes"
	"math"
	"testing"

	"parm/internal/appmodel"
	"parm/internal/geom"
	"parm/internal/noc"
	"parm/internal/obs"
)

// TestConfigDefaults pins the withDefaults values the documentation promises,
// so doc comments and code cannot drift apart (the WarmupCycles comment once
// claimed 2000 while the code selected 1500).
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.WindowCycles != 8000 {
		t.Errorf("WindowCycles = %d, want 8000", c.WindowCycles)
	}
	if c.WarmupCycles != 1500 {
		t.Errorf("WarmupCycles = %d, want 1500", c.WarmupCycles)
	}
	if c.SamplePeriod != 0.01 {
		t.Errorf("SamplePeriod = %g, want 0.01", c.SamplePeriod)
	}
	if c.RouterHz != 1e9 {
		t.Errorf("RouterHz = %g, want 1e9", c.RouterHz)
	}
	if c.MaxSimTime != 300 {
		t.Errorf("MaxSimTime = %g, want 300", c.MaxSimTime)
	}
	if c.SensorBits != 6 {
		t.Errorf("SensorBits = %d, want 6", c.SensorBits)
	}
	if c.FaultSeed != 1 {
		t.Errorf("FaultSeed = %d, want 1", c.FaultSeed)
	}
	if c.NoCMode != NoCModeCycle {
		t.Errorf("NoCMode = %v, want cycle", c.NoCMode)
	}
}

func TestParseNoCMode(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want NoCMode
	}{{"cycle", NoCModeCycle}, {"auto", NoCModeAuto}, {"analytic", NoCModeAnalytic}} {
		got, err := ParseNoCMode(tc.s)
		if err != nil || got != tc.want {
			t.Errorf("ParseNoCMode(%q) = %v, %v", tc.s, got, err)
		}
		if got.String() != tc.s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.s)
		}
	}
	if _, err := ParseNoCMode("fast"); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestNoCModesAgree runs one workload under all three NoC modes and bounds
// the drift the fast paths may introduce. The cycle mode is the exact
// reference; auto answers uncongested windows analytically; analytic
// answers every window with the closed form. The bounds
// here are the engine-level drift contract documented in DESIGN.md §11.
func TestNoCModesAgree(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadMixed, 12, 0.05, 7)
	fw, err := Combo("PARM", "PANR")
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode NoCMode) *Metrics {
		return runOne(t, Config{NoCMode: mode}, fw, w)
	}
	ref := run(NoCModeCycle)
	if ref.Completed == 0 {
		t.Fatal("reference run completed nothing")
	}
	// Per-mode drift bounds. Auto falls back to cycle simulation on every
	// saturated window, so its drift comes only from sub-saturation model
	// error. Analytic answers saturated windows with
	// the clamped closed form too — out of the model's validity range — so
	// its contract is looser, dominated by the clamped M/D/1 waiting terms.
	for _, tc := range []struct {
		mode                    NoCMode
		timeTol, latTol, psnTol float64
	}{
		{NoCModeAuto, 0.05, 0.35, 0.10},
		{NoCModeAnalytic, 0.10, 1.50, 0.15},
	} {
		m := run(tc.mode)
		if m.Completed+m.Dropped != ref.Completed+ref.Dropped {
			t.Errorf("%v: %d apps finished, want %d", tc.mode, m.Completed+m.Dropped, ref.Completed+ref.Dropped)
		}
		// Drop decisions are discrete; allow at most one app to flip.
		if d := m.Dropped - ref.Dropped; d < -1 || d > 1 {
			t.Errorf("%v: Dropped = %d, cycle = %d (allowed drift 1)", tc.mode, m.Dropped, ref.Dropped)
		}
		if rel := math.Abs(m.TotalTime-ref.TotalTime) / ref.TotalTime; rel > tc.timeTol {
			t.Errorf("%v: TotalTime = %g, cycle = %g (rel drift %.3f > %g)", tc.mode, m.TotalTime, ref.TotalTime, rel, tc.timeTol)
		}
		// The closed form misses phase-locked worm collisions below
		// saturation and overestimates waits above it, so latency carries
		// the loosest bounds of the contract.
		if rel := math.Abs(m.MeanPacketLatency-ref.MeanPacketLatency) / ref.MeanPacketLatency; rel > tc.latTol {
			t.Errorf("%v: MeanPacketLatency = %g, cycle = %g (rel drift %.3f > %g)", tc.mode, m.MeanPacketLatency, ref.MeanPacketLatency, rel, tc.latTol)
		}
		if rel := math.Abs(m.AvgPSN-ref.AvgPSN) / ref.AvgPSN; rel > tc.psnTol {
			t.Errorf("%v: AvgPSN = %g, cycle = %g (rel drift %.3f > %g)", tc.mode, m.AvgPSN, ref.AvgPSN, rel, tc.psnTol)
		}
	}
}

// TestCycleModeUnaffectedByModeField double-checks the determinism contract:
// the zero Config and an explicit NoCModeCycle produce byte-identical
// metrics (the mode field must not perturb the exact path).
func TestCycleModeUnaffectedByModeField(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadMixed, 8, 0.05, 3)
	fw, err := Combo("PARM", "ICON")
	if err != nil {
		t.Fatal(err)
	}
	a := runOne(t, Config{}, fw, w)
	b := runOne(t, Config{NoCMode: NoCModeCycle}, fw, w)
	if a.TotalTime != b.TotalTime || a.AvgPSN != b.AvgPSN || a.PeakPSN != b.PeakPSN ||
		a.Completed != b.Completed || a.MeanPacketLatency != b.MeanPacketLatency {
		t.Errorf("explicit NoCModeCycle diverged from zero config:\n %+v\n %+v", a, b)
	}
}

// TestAutoFaultInjectionMatchesCycle pins the NoCFaultInjection contract:
// the drop model forces the cycle path in every mode, so an auto run with
// fault injection measures the same windows on the same exact flow rates as
// a cycle run and serializes to the same bytes.
func TestAutoFaultInjectionMatchesCycle(t *testing.T) {
	fw, err := Combo("PARM", "PANR")
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode NoCMode) []byte {
		cfg := Config{NoCFaultInjection: true, NoCMode: mode}
		cfg.Chip.PSNWorkers = 1
		m := runOne(t, cfg, fw, genWorkload(t, appmodel.WorkloadComm, 6, 0.05, 3))
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cycle, auto := run(NoCModeCycle), run(NoCModeAuto)
	if !bytes.Equal(auto, cycle) {
		t.Errorf("auto with fault injection diverged from cycle:\n auto  %s\n cycle %s", auto, cycle)
	}
}

// TestAnalyticTelemetryCounters checks the instrumentation split: auto mode
// counts analytic windows and saturated fallbacks separately.
func TestAnalyticTelemetryCounters(t *testing.T) {
	fw, err := Combo("PARM", "XY")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{NoCMode: NoCModeAuto}, fw)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.EnableTelemetry(reg)
	// Sparse flow: far below saturation, answered analytically.
	if _, err := e.measurementFor([]noc.Flow{{Src: 0, Dst: 9, Rate: 0.01}}); err != nil {
		t.Fatal(err)
	}
	// Hotspot: many flows converging on one tile saturate its ejection port.
	hot := make([]noc.Flow, 0, 8)
	for i := 1; i <= 8; i++ {
		hot = append(hot, noc.Flow{Src: geom.TileID(i), Dst: 30, Rate: 0.2})
	}
	if _, err := e.measurementFor(hot); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("noc/analytic_windows").Value(); got != 1 {
		t.Errorf("noc/analytic_windows = %d, want 1", got)
	}
	if got := reg.Counter("noc/analytic_fallbacks").Value(); got != 1 {
		t.Errorf("noc/analytic_fallbacks = %d, want 1", got)
	}
}
