package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"parm/internal/appmodel"
	"parm/internal/core"
	"parm/internal/power"
)

// defaultSeed is the seed whose cycle references are committed under
// parmbench/refs. It matches parmsim's default -seed.
const defaultSeed = 42

// completeMarker is written last into a reference directory; a directory
// without it is an interrupted pre-pass and is rebuilt.
const completeMarker = "COMPLETE"

// reference is one cell's cycle-mode Metrics.WriteJSON plus the totals the
// drift metrics compare.
type reference struct {
	raw   []byte
	sum   summary
	valid bool
}

// summary holds the per-cell quantities the drift metrics compare.
type summary struct {
	TotalVEs    float64 `json:"total_ves"`
	EnergyJ     float64 `json:"total_energy_j"`
	Completed   float64 `json:"completed"`
	MeanLatency float64 `json:"mean_packet_latency_cycles"`
}

// newAppWorkload generates the cell's input with the paper's 7 nm node, as
// expr.RunMetrics does: the application sequence from the cell's scenario
// seed, with the arrival times of the sequence its run seed generates.
func newAppWorkload(c cellSpec) (*appmodel.Workload, error) {
	gen := func(seed int64) (*appmodel.Workload, error) {
		return appmodel.Generate(appmodel.WorkloadConfig{
			Kind: c.Kind, NumApps: c.Apps, ArrivalGap: c.Gap,
			Node: power.MustParams(power.Node7), Seed: seed,
		})
	}
	w, err := gen(c.Scenario)
	if err != nil || c.Seed == c.Scenario {
		return w, err
	}
	arr, err := gen(c.Seed)
	if err != nil {
		return nil, err
	}
	for i, a := range w.Apps {
		a.Arrival = arr.Apps[i].Arrival
	}
	return w, nil
}

// runCell generates, builds and runs one cell and returns its
// Metrics.WriteJSON bytes.
func runCell(c cellSpec) ([]byte, error) {
	w, err := newAppWorkload(c)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(c.Config(), c.Framework())
	if err != nil {
		return nil, err
	}
	m, err := eng.Run(w)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeRefs computes the cycle references of cells with the given number of
// concurrent workers and writes one <cell>.json per cell into dir, then the
// completion marker. It is the untimed pre-pass, run in a child process so
// its memory and GC state never reach the measured process.
func writeRefs(dir string, cells []cellSpec, workers int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	outs := make([][]byte, len(cells))
	errs := make([]error, len(cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				outs[idx], errs[idx] = runCell(cells[idx].refSpec())
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, c := range cells {
		if errs[i] != nil {
			return fmt.Errorf("reference %s: %w", c.ID(), errs[i])
		}
		if err := os.WriteFile(filepath.Join(dir, c.ID()+".json"), outs[i], 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, completeMarker), nil, 0o644)
}

// refsComplete reports whether dir holds a finished reference set.
func refsComplete(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, completeMarker))
	return err == nil
}

// loadRefs reads the references of cells from dir.
func loadRefs(dir string, cells []cellSpec) ([]reference, error) {
	out := make([]reference, len(cells))
	for i, c := range cells {
		raw, err := os.ReadFile(filepath.Join(dir, c.ID()+".json"))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, &out[i].sum); err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.ID(), err)
		}
		out[i].raw, out[i].valid = raw, true
	}
	return out, nil
}

// executableHash names the reference cache of the running binary, so
// references computed by one build are never checked against another.
func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// relDrift is |x - ref| / max(|ref|, 1).
func relDrift(x, ref float64) float64 {
	return math.Abs(x-ref) / math.Max(math.Abs(ref), 1)
}

// drift holds the mean relative drift of a pass against its references.
type drift struct{ VEs, Energy, Completed, Latency float64 }

// computeDrift averages relDrift over the cells that carry a reference.
func computeDrift(outs [][]byte, refs []reference) (drift, error) {
	var d drift
	n := 0
	for i, ref := range refs {
		if !ref.valid || outs[i] == nil {
			continue
		}
		var s summary
		if err := json.Unmarshal(outs[i], &s); err != nil {
			return d, err
		}
		d.VEs += relDrift(s.TotalVEs, ref.sum.TotalVEs)
		d.Energy += relDrift(s.EnergyJ, ref.sum.EnergyJ)
		d.Completed += relDrift(s.Completed, ref.sum.Completed)
		d.Latency += relDrift(s.MeanLatency, ref.sum.MeanLatency)
		n++
	}
	if n == 0 {
		return d, errors.New("no cell with a reference")
	}
	f := 1 / float64(n)
	return drift{d.VEs * f, d.Energy * f, d.Completed * f, d.Latency * f}, nil
}
