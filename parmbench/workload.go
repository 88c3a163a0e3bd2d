package main

import (
	"fmt"

	"parm/internal/appmodel"
	"parm/internal/core"
)

// cellSpec is one Engine.Run: a framework executing one generated workload
// sequence under one NoC measurement mode.
type cellSpec struct {
	Mapper, Routing string
	Kind            appmodel.WorkloadKind
	Gap             float64
	Apps            int
	Seq             int   // sequence index within the (kind, gap) slot
	Scenario        int64 // appmodel.Generate seed of the application sequence
	Seed            int64 // appmodel.Generate seed of the arrival times
	Soft            bool
	Mode            core.NoCMode
}

var kindShort = map[appmodel.WorkloadKind]string{
	appmodel.WorkloadCompute: "compute",
	appmodel.WorkloadComm:    "comm",
	appmodel.WorkloadMixed:   "mixed",
}

// ID names the cell; reference files are stored under it.
func (c cellSpec) ID() string {
	return fmt.Sprintf("%s+%s_%s_gap%g_n%d_q%d", c.Mapper, c.Routing, kindShort[c.Kind], c.Gap, c.Apps, c.Seq)
}

// Framework builds the cell's framework.
func (c cellSpec) Framework() core.Framework { return core.MustCombo(c.Mapper, c.Routing) }

// Config is the engine configuration of the cell. Everything but the
// deadline policy and the NoC mode keeps the engine defaults, so the cells
// measure what parmsim and experiments run.
func (c cellSpec) Config() core.Config {
	return core.Config{SoftDeadlines: c.Soft, NoCMode: c.Mode}
}

// refSpec is the same cell in cycle mode: the exact result the cell's
// output (cycle workloads) or drift (other workloads) is checked against.
func (c cellSpec) refSpec() cellSpec {
	c.Mode = core.NoCModeCycle
	return c
}

// workload is one named benchmark input: a grid of cells derived from the
// run seed. refCells limits how many leading cells carry a cycle reference
// (0 means all of them); see oversub-analytic.
type workload struct {
	Name     string
	Why      string
	Mode     core.NoCMode
	refCells int
	cells    func(seed int64) []cellSpec
}

// cellSeeds derives cell i's two appmodel seeds. The application sequence
// (benchmarks, order, deadlines) is drawn from defaultSeed, so it is fixed
// by the cell's place in the grid; the arrival times are drawn from the run
// seed. A seed thus replays the same scenario under another arrival
// process, and a batch's cost varies little from seed to seed: a cell's
// cost follows the traffic of its application mix, which can differ tenfold
// between mixes. At defaultSeed the two coincide and a cell is exactly
// appmodel.Generate's sequence.
func cellSeeds(seed int64, i int) (scenario, arrivals int64) {
	return splitmix(defaultSeed, i), splitmix(seed, i)
}

// splitmix hashes (seed, i) with splitmix64, so neighbouring seeds and
// cells share no streams.
func splitmix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

type combo struct{ mapper, routing string }

func evaluationCombos() []combo {
	var out []combo
	for _, m := range []string{"HM", "PARM"} {
		for _, r := range []string{"XY", "ICON", "PANR"} {
			out = append(out, combo{m, r})
		}
	}
	return out
}

// Workload sizes. Each is chosen so a run (cycle references for a new seed,
// the timed batches and one traced batch) stays well inside three minutes
// on a 2-CPU host, with enough cells that the run_s percentiles rest on many
// samples: fig8-auto's analytic compute cells cost milliseconds and its comm
// cells up to a second, so with one sequence per grid point (24 cells) its
// tail flipped between the two groups from seed to seed. oversub-analytic's
// cells differ from seed to seed in how heavy the slowest ones are, and 36
// of them moved its tail twice as much as its wall time between seeds.
const (
	fig6Apps, fig6Seqs       = 4, 2
	fig8Apps, fig8Seqs       = 4, 3
	oversubApps, oversubSeqs = 60, 72
	oversubRefs              = 8
)

var workloads = []*workload{
	{
		Name: "fig6-cycle",
		Why:  "Fig 6/7 grid in exact cycle mode: the NoC cycle loop dominates, over sparse compute and congested comm cells",
		Mode: core.NoCModeCycle,
		cells: func(seed int64) []cellSpec {
			var out []cellSpec
			for _, fw := range evaluationCombos() {
				for _, k := range appmodel.WorkloadKinds {
					for q := 0; q < fig6Seqs; q++ {
						out = append(out, cellSpec{
							Mapper: fw.mapper, Routing: fw.routing, Kind: k, Gap: 0.05,
							Apps: fig6Apps, Seq: q,
							Soft: true, Mode: core.NoCModeCycle,
						})
					}
				}
			}
			return seeded(out, seed)
		},
	},
	{
		Name: "fig8-auto",
		Why:  "Fig 8 grid in auto mode with hard deadlines: the analytic-or-fallback decision, drops and stalls, drift vs cycle",
		Mode: core.NoCModeAuto,
		cells: func(seed int64) []cellSpec {
			fws := []combo{{"HM", "XY"}, {"PARM", "XY"}, {"PARM", "ICON"}, {"PARM", "PANR"}}
			kinds := []appmodel.WorkloadKind{appmodel.WorkloadCompute, appmodel.WorkloadComm}
			gaps := []float64{0.2, 0.1, 0.05}
			var out []cellSpec
			for _, fw := range fws {
				for _, k := range kinds {
					for _, g := range gaps {
						for q := 0; q < fig8Seqs; q++ {
							out = append(out, cellSpec{
								Mapper: fw.mapper, Routing: fw.routing, Kind: k, Gap: g,
								Apps: fig8Apps, Seq: q,
								Mode: core.NoCModeAuto,
							})
						}
					}
				}
			}
			return seeded(out, seed)
		},
	},
	{
		Name:     "oversub-analytic",
		Why:      "60-app oversubscribed mixed sequences in analytic mode: NoC cost gone, PDN sampling, GC, APG rebuilds and the mapper dominate",
		Mode:     core.NoCModeAnalytic,
		refCells: oversubRefs,
		cells: func(seed int64) []cellSpec {
			out := make([]cellSpec, oversubSeqs)
			for q := range out {
				out[q] = cellSpec{
					Mapper: "PARM", Routing: "PANR", Kind: appmodel.WorkloadMixed, Gap: 0.02,
					Apps: oversubApps, Seq: q,
					Mode: core.NoCModeAnalytic,
				}
			}
			return seeded(out, seed)
		},
	},
}

// seeded fills in every cell's seeds for the run seed.
func seeded(cells []cellSpec, seed int64) []cellSpec {
	for i := range cells {
		cells[i].Scenario, cells[i].Seed = cellSeeds(seed, i)
	}
	return cells
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// referenced returns the cells that carry a cycle reference.
func (w *workload) referenced(cells []cellSpec) []cellSpec {
	if w.refCells > 0 && w.refCells < len(cells) {
		return cells[:w.refCells]
	}
	return cells
}
