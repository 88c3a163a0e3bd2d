package noc

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parm/internal/geom"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenCase is one committed cycle-loop outcome: what Run(1500) then
// Measure(6000) produced on an equivalence fixture under one routing scheme,
// with or without a seeded fault model.
type goldenCase struct {
	// Flows holds one row per flow, columns in goldenColumns order.
	Flows           [][9]int `json:"flows"`
	RouterForwarded []int    `json:"router_forwarded"`
	// IncomingRate holds each tile's IncomingRate as hex float64 bits, so the
	// comparison is exact rather than a decimal round trip.
	IncomingRate []string `json:"incoming_rate_bits"`
}

// goldenColumns names the FlowStats fields of a goldenCase flow row.
var goldenColumns = []string{
	"InjectedFlits", "DeliveredFlits", "DeliveredPackets", "TotalPacketLatency", "StalledCycles",
	"DroppedPackets", "RetransmittedPackets", "RecoveredPackets", "LostPackets",
}

func flowRow(s FlowStats) [9]int {
	return [9]int{
		s.InjectedFlits, s.DeliveredFlits, s.DeliveredPackets, s.TotalPacketLatency, s.StalledCycles,
		s.DroppedPackets, s.RetransmittedPackets, s.RecoveredPackets, s.LostPackets,
	}
}

// gradedEnv is a non-uniform PSN environment: PANR's PSN-aware choices and
// the fault model's drop probability vary from tile to tile.
func gradedEnv() *Env {
	e := &Env{PSN: make([]float64, 60)}
	for i := range e.PSN {
		e.PSN[i] = 0.02 + 0.01*float64((i*7)%10)
	}
	return e
}

// goldenMeasure runs every equivalence fixture under every routing scheme,
// without faults and with a seeded NoiseDropModel, keyed
// "fixture/scheme/faults". With dense set it drives the reference loop of
// dense_test.go instead of Run and Measure.
func goldenMeasure(t *testing.T, dense bool) map[string]goldenCase {
	t.Helper()
	out := make(map[string]goldenCase)
	for fxName, fx := range equivFixtures() {
		for _, alg := range []Algorithm{XY{}, WestFirst{}, ICON{}, PANR{}} {
			for _, faulted := range []bool{false, true} {
				n, err := NewNetwork(fx.cfg, alg, fx.flows, gradedEnv())
				if err != nil {
					t.Fatal(err)
				}
				mode := "none"
				if faulted {
					mode = "noise-drop"
					n.SetFaultModel(NewNoiseDropModel(17, 0.05, 0, 0))
				}
				var res *Result
				if dense {
					n.runDense(1500)
					res = n.measureDense(6000)
				} else {
					n.Run(1500)
					res = n.Measure(6000)
				}
				gc := goldenCase{RouterForwarded: res.RouterForwarded}
				for _, fs := range res.Flows {
					gc.Flows = append(gc.Flows, flowRow(fs))
				}
				for tile := range n.routers {
					bits := math.Float64bits(n.IncomingRate(geom.TileID(tile)))
					gc.IncomingRate = append(gc.IncomingRate, fmt.Sprintf("%016x", bits))
				}
				out[fxName+"/"+alg.Name()+"/"+mode] = gc
			}
		}
	}
	return out
}

// encodeGolden renders cases as a JSON object with one case per line, keys
// sorted, so a regenerated golden diffs case by case.
func encodeGolden(cases map[string]goldenCase) ([]byte, error) {
	keys := make([]string, 0, len(cases))
	for k := range cases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	cols, err := json.Marshal(goldenColumns)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "{\n\"columns\": %s,\n\"cases\": {\n", cols)
	for i, k := range keys {
		line, err := json.Marshal(cases[k])
		if err != nil {
			return nil, err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "%q: %s%s\n", k, line, sep)
	}
	buf.WriteString("}\n}\n")
	return buf.Bytes(), nil
}

// TestMeasureGolden pins the cycle loop's committed bytes: per-flow stats,
// per-router crossbar counts and rate estimates for every fixture, scheme
// and fault setting, from both Measure and the dense reference. Unlike
// TestActiveDenseEquivalence, which compares two sweeps over the same
// per-router helpers, this catches any change to arbitration, routing order
// or float arithmetic in those helpers.
func TestMeasureGolden(t *testing.T) {
	golden := filepath.Join("testdata", "measure.golden.json")
	if *updateGolden {
		buf, err := encodeGolden(goldenMeasure(t, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	t.Run("active", func(t *testing.T) { compareGolden(t, goldenMeasure(t, false), raw) })
	t.Run("dense", func(t *testing.T) { compareGolden(t, goldenMeasure(t, true), raw) })
}

// compareGolden reports every case of got that differs from the golden
// bytes raw.
func compareGolden(t *testing.T, got map[string]goldenCase, raw []byte) {
	t.Helper()
	buf, err := encodeGolden(got)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, raw) {
		return
	}
	var want struct {
		Cases map[string]goldenCase `json:"cases"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("golden is not valid JSON (run with -update to regenerate): %v", err)
	}
	if len(want.Cases) != len(got) {
		t.Errorf("golden has %d cases, run produced %d", len(want.Cases), len(got))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, _ := json.Marshal(got[k])
		w, _ := json.Marshal(want.Cases[k])
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from golden (run with -update to regenerate)\ngot:  %s\nwant: %s", k, g, w)
		}
	}
}
