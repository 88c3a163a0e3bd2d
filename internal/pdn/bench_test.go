package pdn

import (
	"testing"

	"parm/internal/power"
)

// BenchmarkSimulateDomain times one transient solve of a fully loaded
// domain — the inner loop of chip-wide PSN sampling.
func BenchmarkSimulateDomain(b *testing.B) {
	p := power.MustParams(power.Node7)
	loads := BuildLoads(occupantsForBench(p))
	cfg := Config{Params: p, Vdd: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateDomain(cfg, loads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDomainSolve times the cache-miss solve path of every solver mode
// over the default measurement window, through a Solver with warm scratch
// and electrical caches (the steady state of the runtime pipeline when a
// load signature misses the solve cache). The acceptance bar for the exact
// fast path is phasor >= 5x faster than rk4 here.
func BenchmarkDomainSolve(b *testing.B) {
	p := power.MustParams(power.Node7)
	loads := BuildLoads(occupantsForBench(p))
	for _, m := range []Mode{ModeRK4, ModePhasor} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := Config{Params: p, Vdd: 0.5, Mode: m}
			s := NewSolver(nil) // uncached: every iteration solves in full
			if _, err := s.SimulateDomain(cfg, loads); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.SimulateDomain(cfg, loads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDCOperatingPoint times the linear solve used to initialize the
// transient.
func BenchmarkDCOperatingPoint(b *testing.B) {
	p := power.MustParams(power.Node7)
	loads := BuildLoads(occupantsForBench(p))
	c := newCircuit(Config{Params: p, Vdd: 0.5}.withDefaults(), loads)
	var scratch solverScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.dcOperatingPoint(&scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPSNStepAllocs pins the //parm:hot contract dynamically: after one
// warm-up solve grows the scratch buffers, a Solver's transient solve must
// run allocation-free. hotalloc enforces the same property statically.
func BenchmarkPSNStepAllocs(b *testing.B) {
	p := power.MustParams(power.Node7)
	loads := BuildLoads(occupantsForBench(p))
	cfg := Config{Params: p, Vdd: 0.5}
	s := NewSolver(nil) // uncached: every call takes the full integration path
	if _, err := s.SimulateDomain(cfg, loads); err != nil {
		b.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.SimulateDomain(cfg, loads); err != nil {
			b.Fatal(err)
		}
	})
	if allocs != 0 {
		b.Fatalf("warm PSN solve allocates %.1f times per run, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SimulateDomain(cfg, loads); err != nil {
			b.Fatal(err)
		}
	}
}

func occupantsForBench(p power.NodeParams) [DomainTiles]TileOccupant {
	var occ [DomainTiles]TileOccupant
	for i := range occ {
		class := High
		if i%2 == 1 {
			class = Low
		}
		occ[i] = TileOccupant{IAvg: p.TileCurrent(0.5, 0.9, 0.4), Class: class, Staggered: true}
	}
	return occ
}
