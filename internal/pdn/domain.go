package pdn

import (
	"fmt"
	"math"

	"parm/internal/power"
)

// DomainTiles is the number of tiles in one power supply domain (a 2x2
// block with its own voltage regulator, paper §3.3).
const DomainTiles = 4

// Tile indices within a domain, laid out as a 2x2 block:
//
//	2 3      (y=1)
//	0 1      (y=0)
//
// Tiles 0-1, 0-2, 1-3, 2-3 are adjacent (Manhattan distance 1); pairs 0-3
// and 1-2 are diagonal (distance 2).
var domainAdjacency = [DomainTiles][DomainTiles]bool{
	0: {1: true, 2: true},
	1: {0: true, 3: true},
	2: {0: true, 3: true},
	3: {1: true, 2: true},
}

// DomainDistance returns the Manhattan distance between two tile slots of a
// 2x2 domain (0 for identical slots, 1 for adjacent, 2 for diagonal).
func DomainDistance(a, b int) int {
	if a == b {
		return 0
	}
	if domainAdjacency[a][b] {
		return 1
	}
	return 2
}

// TileLoad describes the workload current drawn by one tile, modeled as a
// current source (paper §3.4): a DC component from average power plus a
// switching component whose amplitude tracks the tile's switching activity.
//
// Same-class threads of an SPMD application are barrier-synchronized, so
// the runtime can stagger their burst phases (staggered core activation,
// paper ref [11]); threads of different activity classes burst at different
// fundamental frequencies, so their waveforms beat and periodically align
// in the worst case. This is what makes High-Low adjacency noisier than
// High-High or Low-Low (paper Fig. 3b) and is the physical lever behind the
// PARM clustering heuristic.
type TileLoad struct {
	// IAvg is the average current in amperes (tile power / Vdd).
	IAvg float64
	// Activity is the switching modulation depth in [0,1]: the fraction of
	// IAvg that swings with workload bursts. High-activity tasks have large
	// Activity; idle tiles have 0.
	Activity float64
	// Phase offsets this tile's switching waveform, in radians. Aligned
	// phases (synchronized bursts) produce the worst-case droop; the
	// staggering of same-class threads is expressed by spreading phases.
	Phase float64
	// BurstHz overrides the fundamental switching frequency for this tile.
	// Zero uses Config.BurstHz. Different activity classes burst at
	// different frequencies.
	BurstHz float64
}

// Mode selects the transient solver algorithm. The domain circuit is
// linear time-invariant, so ModePhasor solves it exactly; ModeRK4 is the
// numerical-integration reference it is cross-checked against
// (TestModesAgree). Both modes measure the same sampling grid and are
// individually deterministic (bit-identical results for identical inputs).
type Mode uint8

const (
	// ModePhasor, the zero value, evaluates the periodic steady state
	// directly on the sampling grid from per-harmonic complex admittance
	// solves, with no time stepping at all.
	ModePhasor Mode = iota
	// ModeRK4 integrates the transient with classic Runge-Kutta 4.
	ModeRK4
)

// String returns "phasor" or "rk4".
func (m Mode) String() string {
	switch m {
	case ModePhasor:
		return "phasor"
	case ModeRK4:
		return "rk4"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes one transient domain simulation.
type Config struct {
	// Params supplies the per-technology-node electrical constants.
	Params power.NodeParams
	// Vdd is the regulator output voltage.
	Vdd power.Volts
	// Dt is the integration step. Zero selects 20 ps.
	Dt power.Seconds
	// Duration is the simulated window. Zero selects 60 ns.
	Duration power.Seconds
	// BurstHz is the fundamental frequency of the workload switching
	// waveform. Zero selects 125 MHz, near the package LC resonance where
	// droop is worst.
	BurstHz float64
	// Mode selects the solver algorithm. The zero value (ModePhasor)
	// selects the exact steady-state fast path.
	Mode Mode
}

func (c Config) withDefaults() Config {
	if c.Dt <= 0 {
		c.Dt = 20e-12
	}
	if c.Duration <= 0 {
		c.Duration = 60e-9
	}
	if c.BurstHz <= 0 {
		c.BurstHz = 125e6
	}
	return c
}

// Result reports the PSN observed at each tile of the domain over the
// simulated window. PSN values are fractions of Vdd (0.05 == 5 %).
type Result struct {
	// PeakPSN is the maximum instantaneous supply droop per tile.
	PeakPSN [DomainTiles]float64
	// AvgPSN is the time-averaged supply droop per tile.
	AvgPSN [DomainTiles]float64
	// MinVoltage is the lowest instantaneous voltage per tile.
	MinVoltage [DomainTiles]power.Volts
	// Steps is the number of integration steps taken.
	Steps int
}

// DomainPeak returns the largest per-tile peak PSN in the domain.
func (r Result) DomainPeak() float64 {
	m := 0.0
	for _, v := range r.PeakPSN {
		if v > m {
			m = v
		}
	}
	return m
}

// DomainAvg returns the mean of the per-tile average PSN values.
func (r Result) DomainAvg() float64 {
	s := 0.0
	for _, v := range r.AvgPSN {
		s += v
	}
	return s / DomainTiles
}

// circuit holds the assembled element values for one domain simulation.
type circuit struct {
	rb, lb  float64              // bump branch
	cb      float64              // package-side decap at bump node
	rv      float64              // via resistance bump node -> each tile node
	rg      float64              // grid resistance between adjacent tile nodes
	cd      float64              // decap at each tile node
	vs      float64              // source voltage
	gv, gg  float64              // conductances 1/rv, 1/rg
	burstW  [DomainTiles]float64 // per-tile burst angular frequency
	loads   [DomainTiles]TileLoad
	harm3rd bool // include 3rd harmonic in the burst waveform
}

func newCircuit(cfg Config, loads [DomainTiles]TileLoad) circuit {
	p := cfg.Params
	c := circuit{
		rb:      p.RBump,
		lb:      p.LBump,
		cb:      p.CDecap * 2, // package decap is lumped, larger than tile decap
		rv:      p.RGrid * 1.5,
		rg:      p.RGrid,
		cd:      p.CDecap,
		vs:      float64(cfg.Vdd),
		gv:      1 / (p.RGrid * 1.5),
		gg:      1 / p.RGrid,
		loads:   loads,
		harm3rd: true,
	}
	for i, ld := range loads {
		hz := ld.BurstHz
		if hz <= 0 {
			hz = cfg.BurstHz
		}
		c.burstW[i] = 2 * math.Pi * hz
	}
	return c
}

// current returns tile slot i's instantaneous current draw at time t. The
// switching waveform is a smoothed square wave (fundamental + optional 3rd
// harmonic), which has the sharp di/dt edges that excite inductive droop.
func (c *circuit) current(i int, t float64) float64 {
	ld := c.loads[i]
	if ld.IAvg <= 0 {
		return 0
	}
	ph := c.burstW[i]*t + ld.Phase
	s := math.Sin(ph)
	if c.harm3rd {
		s += math.Sin(3*ph) / 3
	}
	// Normalize so the swing stays within ±1 (max of sin + sin3/3 ≈ 1.155).
	s /= 1.155
	return ld.IAvg * (1 + ld.Activity*s)
}

// dcUnknowns is the DC operating-point system size: the bump node voltage
// plus one voltage per tile node.
const dcUnknowns = 1 + DomainTiles

// solverScratch holds every buffer one domain solve reuses across calls:
// the per-tile current tables and the DC operating-point system. A Solver
// threads one scratch through consecutive solves so the warm path performs
// no allocation at all (BenchmarkPSNStepAllocs pins 0 allocs/op).
type solverScratch struct {
	// table holds the per-tile current waveforms; rows grow once to the
	// longest window seen and are reused thereafter.
	table [DomainTiles][]float64
	// dcRows backs the DC conductance matrix; dcA holds the row slices the
	// pivoting solver permutes in place.
	dcRows [dcUnknowns][dcUnknowns]float64
	dcA    [dcUnknowns][]float64
	dcB    [dcUnknowns]float64
	dcX    [dcUnknowns]float64
}

// currentTable precomputes every tile's current waveform on the half-step
// grid the RK4 integrator samples (t, t+h/2, t+h), using a sine rotation
// recurrence so the hot loop performs no trig calls. Entry [i][k] is tile
// i's current at time k*h/2. The scratch rows are reused (and grown only
// when the window lengthens) instead of allocating fresh tables.
//
//parm:hot
func (c *circuit) currentTable(h float64, steps int, scratch *solverScratch) [DomainTiles][]float64 {
	var out [DomainTiles][]float64
	n := 2*steps + 2
	for i := 0; i < DomainTiles; i++ {
		if cap(scratch.table[i]) >= n {
			out[i] = scratch.table[i][:n]
			for k := range out[i] {
				out[i][k] = 0
			}
		} else {
			// First call (or a longer window): grow once, reuse forever.
			//parm:alloc
			out[i] = make([]float64, n)
			scratch.table[i] = out[i]
		}
		ld := c.loads[i]
		if ld.IAvg <= 0 {
			continue
		}
		// Oscillator states for the fundamental and (optionally) the 3rd
		// harmonic, advanced by rotation: sin/cos(θ+Δ) from sin/cos(θ).
		d1 := c.burstW[i] * h / 2
		s1, c1 := math.Sin(ld.Phase), math.Cos(ld.Phase)
		sd1, cd1 := math.Sin(d1), math.Cos(d1)
		s3, c3 := math.Sin(3*ld.Phase), math.Cos(3*ld.Phase)
		sd3, cd3 := math.Sin(3*d1), math.Cos(3*d1)
		for k := 0; k < n; k++ {
			s := s1
			if c.harm3rd {
				s += s3 / 3
			}
			out[i][k] = ld.IAvg * (1 + ld.Activity*s/1.155)
			s1, c1 = s1*cd1+c1*sd1, c1*cd1-s1*sd1
			s3, c3 = s3*cd3+c3*sd3, c3*cd3-s3*sd3
		}
	}
	return out
}

// state is the circuit state vector: inductor current, bump node voltage,
// and the four tile node voltages.
type state struct {
	il float64
	vb float64
	vt [DomainTiles]float64
}

// deriv computes the time derivative of the state, with tile currents given
// by cur (one value per tile, already evaluated at the step's time point).
//
//parm:hot
func (c *circuit) deriv(s state, cur *[DomainTiles]float64) state {
	var d state
	// Inductor: L di/dt = Vs - Rb*iL - vB
	d.il = (c.vs - c.rb*s.il - s.vb) / c.lb
	// Bump node: Cb dvB/dt = iL - sum_i (vB - vTi)/Rv
	sumV := 0.0
	for i := 0; i < DomainTiles; i++ {
		sumV += (s.vb - s.vt[i]) * c.gv
	}
	d.vb = (s.il - sumV) / c.cb
	// Tile nodes: Cd dvTi/dt = (vB-vTi)/Rv + sum_adj (vTj-vTi)/Rg - Ii(t)
	for i := 0; i < DomainTiles; i++ {
		sum := (s.vb - s.vt[i]) * c.gv
		for j := 0; j < DomainTiles; j++ {
			if domainAdjacency[i][j] {
				sum += (s.vt[j] - s.vt[i]) * c.gg
			}
		}
		sum -= cur[i]
		d.vt[i] = sum / c.cd
	}
	return d
}

// derivAt evaluates deriv with currents taken analytically at time t; used
// by tests to cross-check the tabulated fast path.
func (c *circuit) derivAt(s state, t float64) state {
	var cur [DomainTiles]float64
	for i := range cur {
		cur[i] = c.current(i, t)
	}
	return c.deriv(s, &cur)
}

//parm:hot
func addScaled(a state, b state, h float64) state {
	var out state
	out.il = a.il + h*b.il
	out.vb = a.vb + h*b.vb
	for i := range a.vt {
		out.vt[i] = a.vt[i] + h*b.vt[i]
	}
	return out
}

// dcOperatingPoint solves the resistive DC network with the average tile
// currents, giving an initial condition free of artificial start-up droop.
// The system lives entirely in scratch: matrix, right-hand side, and
// solution are reused buffers, so the warm path allocates nothing.
//
//parm:hot
func (c *circuit) dcOperatingPoint(scr *solverScratch) (state, error) {
	// Unknowns: x[0]=vB, x[1..4]=vT0..vT3. iL = total current.
	if scr.dcA[0] == nil {
		for i := range scr.dcA {
			scr.dcA[i] = scr.dcRows[i][:]
		}
	}
	a := scr.dcA[:]
	for i := range a {
		row := a[i]
		for j := range row {
			row[j] = 0
		}
	}
	b := scr.dcB[:]
	for i := range b {
		b[i] = 0
	}
	total := 0.0
	for i := 0; i < DomainTiles; i++ {
		total += c.loads[i].IAvg
	}
	// Bump node KCL: (Vs - vB)/Rb = sum_i (vB - vTi)/Rv
	a[0][0] = 1/c.rb + DomainTiles*c.gv
	for i := 0; i < DomainTiles; i++ {
		a[0][1+i] = -c.gv
	}
	b[0] = c.vs / c.rb
	// Tile node KCL.
	for i := 0; i < DomainTiles; i++ {
		r := 1 + i
		a[r][0] = -c.gv
		a[r][r] = c.gv
		for j := 0; j < DomainTiles; j++ {
			if domainAdjacency[i][j] {
				a[r][r] += c.gg
				a[r][1+j] -= c.gg
			}
		}
		b[r] = -c.loads[i].IAvg
	}
	x := scr.dcX[:]
	if err := solveLinearInto(x, a, b); err != nil {
		return state{}, err
	}
	st := state{il: total, vb: x[0]}
	for i := 0; i < DomainTiles; i++ {
		st.vt[i] = x[1+i]
	}
	return st, nil
}

// validate rejects non-physical configurations (non-positive Vdd or element
// values, out-of-range loads). cfg must already have defaults applied.
func validate(cfg Config, loads [DomainTiles]TileLoad) error {
	if cfg.Vdd <= 0 {
		return fmt.Errorf("pdn: non-positive Vdd %g", float64(cfg.Vdd))
	}
	p := cfg.Params
	if p.RBump <= 0 || p.LBump <= 0 || p.RGrid <= 0 || p.CDecap <= 0 {
		return fmt.Errorf("pdn: non-physical node parameters %+v", p)
	}
	if cfg.Mode > ModeRK4 {
		return fmt.Errorf("pdn: unknown solver mode %d", cfg.Mode)
	}
	for i, ld := range loads {
		if ld.IAvg < 0 || ld.Activity < 0 || ld.Activity > 1 {
			return fmt.Errorf("pdn: invalid load %d: %+v", i, ld)
		}
	}
	return nil
}

// SimulateDomain runs a transient simulation of one 4-tile domain and
// returns the observed PSN. It returns an error for non-physical
// configurations (non-positive Vdd or element values).
//
// This is the exact-input path used by the figure experiments; the runtime
// measurement pipeline goes through Solver.SimulateDomain, which quantizes
// the load signature and memoizes repeated solves.
func SimulateDomain(cfg Config, loads [DomainTiles]TileLoad) (Result, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg, loads); err != nil {
		return Result{}, err
	}
	return simulate(cfg, loads, &solverScratch{}, nil)
}

// simulate dispatches one validated, defaulted solve to the algorithm
// selected by cfg.Mode. scratch supplies the reusable buffers; caches (nil
// for the one-shot path) memoizes the load-independent electrical
// factorizations the phasor path reuses across solves.
func simulate(cfg Config, loads [DomainTiles]TileLoad, scratch *solverScratch, caches *ltiCaches) (Result, error) {
	if cfg.Mode == ModeRK4 {
		return simulateRK4(cfg, loads, scratch)
	}
	return simulatePhasor(cfg, loads, scratch, caches)
}

// simulateRK4 is the numerical-integration reference path: classic RK4
// over the tabulated current waveforms. The phasor path is cross-checked
// against it. cfg must have defaults applied and inputs validated.
//
//parm:hot
func simulateRK4(cfg Config, loads [DomainTiles]TileLoad, scratch *solverScratch) (Result, error) {
	c := newCircuit(cfg, loads)
	st, err := c.dcOperatingPoint(scratch)
	if err != nil {
		return Result{}, err
	}

	vdd := float64(cfg.Vdd)
	var res Result
	for i := range res.MinVoltage {
		res.MinVoltage[i] = cfg.Vdd
	}
	steps := int(cfg.Duration / cfg.Dt)
	if steps < 1 {
		steps = 1
	}
	// Skip a short settle window before recording, so the measurement
	// reflects steady switching noise rather than the modulation turn-on.
	settle := steps / 8
	var sumPSN [DomainTiles]float64
	recorded := 0

	h := float64(cfg.Dt)
	table := c.currentTable(h, steps, scratch)
	var cur0, curH, cur1 [DomainTiles]float64
	for n := 0; n < steps; n++ {
		for i := 0; i < DomainTiles; i++ {
			cur0[i] = table[i][2*n]
			curH[i] = table[i][2*n+1]
			cur1[i] = table[i][2*n+2]
		}
		// Classic RK4 step.
		k1 := c.deriv(st, &cur0)
		k2 := c.deriv(addScaled(st, k1, h/2), &curH)
		k3 := c.deriv(addScaled(st, k2, h/2), &curH)
		k4 := c.deriv(addScaled(st, k3, h), &cur1)
		st.il += h / 6 * (k1.il + 2*k2.il + 2*k3.il + k4.il)
		st.vb += h / 6 * (k1.vb + 2*k2.vb + 2*k3.vb + k4.vb)
		for i := range st.vt {
			st.vt[i] += h / 6 * (k1.vt[i] + 2*k2.vt[i] + 2*k3.vt[i] + k4.vt[i])
		}
		if n < settle {
			continue
		}
		recorded++
		for i := range st.vt {
			v := st.vt[i]
			if power.Volts(v) < res.MinVoltage[i] {
				res.MinVoltage[i] = power.Volts(v)
			}
			droop := (vdd - v) / vdd
			if droop < 0 {
				droop = 0 // overshoot above Vdd is not supply droop
			}
			sumPSN[i] += droop
			if droop > res.PeakPSN[i] {
				res.PeakPSN[i] = droop
			}
		}
	}
	for i := range sumPSN {
		if recorded > 0 {
			res.AvgPSN[i] = sumPSN[i] / float64(recorded)
		}
	}
	res.Steps = steps
	return res, nil
}
