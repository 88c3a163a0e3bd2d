// Package reliability is a Monte-Carlo harness over the engine's
// fault-injection machinery: it replays the same workload sequences under
// many seeded fault plans for each of the four routing schemes evaluated in
// the paper (deterministic XY, adaptive west-first, ICON and PANR) and
// reports per-scheme packet delivery rates, drop-recovery rates and
// application deadline-miss probabilities with Wilson 95% confidence
// intervals. Every trial runs the engine in VERollback mode with NoC packet
// fault injection (core.Config), so checkpoint/rollback costs and
// noise-induced packet losses both vary across trials while staying a
// deterministic function of the campaign seed: the same Config yields
// byte-identical Result JSON on every execution, regardless of worker
// count.
package reliability

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"

	"parm/internal/appmodel"
	"parm/internal/core"
	"parm/internal/obs"
	"parm/internal/power"
	"parm/internal/report"
)

// DefaultSchemes are the four routing schemes of the paper's evaluation.
var DefaultSchemes = []string{"XY", "WestFirst", "ICON", "PANR"}

// Config parameterizes a reliability campaign.
type Config struct {
	// Schemes lists the routing schemes to compare. Nil selects the four
	// evaluated ones.
	Schemes []string
	// Mapper names the mapping heuristic every scheme runs under. Empty
	// selects "PARM".
	Mapper string
	// Trials is the number of Monte-Carlo fault plans per scheme. Zero
	// selects 20. Trial t uses the same workload and fault seeds across
	// schemes, so per-scheme differences are paired.
	Trials int
	// NumApps and ArrivalGap shape each trial's workload. Zero selects 8
	// applications every 0.05 s (oversubscribed, so the PDN is stressed).
	NumApps    int
	ArrivalGap float64
	// Kind selects the benchmark pool (zero value is compute-intensive).
	Kind appmodel.WorkloadKind
	// Seed is the campaign seed. Zero selects 1.
	Seed int64
	// DropScale and DropCap parameterize the NoC packet-drop model (zero
	// selects the noc defaults, 0.5 and 0.75).
	DropScale, DropCap float64
	// Engine is the base engine configuration. The campaign overrides the
	// fault-injection knobs (VEModel, FaultSeed, NoCFaultInjection) and
	// forces SoftDeadlines, so deadline misses are observed rather than
	// turned into drops.
	Engine core.Config
	// Workers bounds the parallel trial runs. Zero selects GOMAXPROCS.
	// Results are aggregated in input order, so the worker count never
	// changes the output.
	Workers int
	// Telemetry, when non-nil, receives the campaign counters
	// (reliability/trials, reliability/dropped_packets) alongside each
	// engine's own instrumented metrics.
	Telemetry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Schemes == nil {
		c.Schemes = DefaultSchemes
	}
	if c.Mapper == "" {
		c.Mapper = "PARM"
	}
	if c.Trials <= 0 {
		c.Trials = 20
	}
	if c.NumApps <= 0 {
		c.NumApps = 8
	}
	if c.ArrivalGap <= 0 {
		c.ArrivalGap = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Interval is a proportion with its Wilson score confidence bounds.
type Interval struct {
	P  float64 `json:"p"`
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Wilson returns the Wilson score interval for successes out of total at
// critical value z (1.96 for 95%). Unlike the normal approximation it stays
// inside [0,1] and behaves at proportions near 0 and 1, where reliability
// rates live. A zero total yields the zero interval.
func Wilson(successes, total int, z float64) Interval {
	if total <= 0 {
		return Interval{}
	}
	n := float64(total)
	p := float64(successes) / n
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	lo, hi := center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Interval{P: p, Lo: lo, Hi: hi}
}

// SchemeStats aggregates one routing scheme's trials.
type SchemeStats struct {
	Scheme string `json:"scheme"`
	Trials int    `json:"trials"`

	// Packet counters summed over all trials' measurement windows.
	Delivered     int `json:"delivered"`
	Dropped       int `json:"dropped"`
	Retransmitted int `json:"retransmitted"`
	Recovered     int `json:"recovered"`
	Lost          int `json:"lost"`

	// Application counters summed over all trials.
	TotalApps     int `json:"total_apps"`
	CompletedApps int `json:"completed_apps"`
	DeadlinesMet  int `json:"deadlines_met"`

	// Rollback accounting summed over all trials.
	TotalVEs            int     `json:"total_ves"`
	TotalRollbacks      int     `json:"total_rollbacks"`
	TotalRollbackDelayS float64 `json:"total_rollback_delay_s"`

	// DeliveryRate is delivered/(delivered+lost): the fraction of packets
	// that ultimately arrived intact, retransmissions included.
	DeliveryRate Interval `json:"delivery_rate"`
	// RecoveryRate is recovered/dropped: the fraction of noise-corrupted
	// packets whose retransmission made it through.
	RecoveryRate Interval `json:"recovery_rate"`
	// DeadlineMissRate is the per-application probability of missing the
	// deadline (unfinished applications count as misses).
	DeadlineMissRate Interval `json:"deadline_miss_rate"`
}

// Result is one campaign's outcome, schemes in configuration order.
type Result struct {
	Mapper  string        `json:"mapper"`
	Trials  int           `json:"trials"`
	NumApps int           `json:"num_apps"`
	Seed    int64         `json:"seed"`
	Schemes []SchemeStats `json:"schemes"`
}

// z95 is the 95% two-sided normal critical value used for every interval.
const z95 = 1.96

// trialSeeds derives the workload and fault seeds of trial t. The strides
// are primes so the two streams never collide across trials; both depend
// only on (campaign seed, trial), never on the scheme, keeping per-scheme
// comparisons paired.
func (c Config) trialSeeds(t int) (workload, fault int64) {
	return c.Seed + int64(t)*7919, c.Seed + int64(t)*104729 + 13
}

// Run executes the campaign: Trials × len(Schemes) independent engine runs,
// each with its own seeded fault plan and packet-drop model, aggregated per
// scheme in input order.
func Run(c Config) (*Result, error) {
	c = c.withDefaults()
	var trialsCtr, droppedCtr *obs.Counter
	if c.Telemetry != nil {
		trialsCtr = c.Telemetry.Counter("reliability/trials")
		droppedCtr = c.Telemetry.Counter("reliability/dropped_packets")
	}

	node := c.Engine.Chip.Node
	if node.Node == 0 {
		node = power.MustParams(power.Node7)
	}

	type job struct{ scheme, trial int }
	jobs := make([]job, 0, len(c.Schemes)*c.Trials)
	for s := range c.Schemes {
		for t := 0; t < c.Trials; t++ {
			jobs = append(jobs, job{scheme: s, trial: t})
		}
	}

	runTrial := func(j job) (*core.Metrics, error) {
		wSeed, fSeed := c.trialSeeds(j.trial)
		w, err := appmodel.Generate(appmodel.WorkloadConfig{
			Kind: c.Kind, NumApps: c.NumApps, ArrivalGap: c.ArrivalGap,
			Node: node, Seed: wSeed,
		})
		if err != nil {
			return nil, err
		}
		fw, err := core.Combo(c.Mapper, c.Schemes[j.scheme])
		if err != nil {
			return nil, err
		}
		cfg := c.Engine
		cfg.SoftDeadlines = true
		cfg.VEModel = core.VERollback
		cfg.FaultSeed = fSeed
		cfg.NoCFaultInjection = true
		cfg.NoCDropScale = c.DropScale
		cfg.NoCDropCap = c.DropCap
		eng, err := core.NewEngine(cfg, fw)
		if err != nil {
			return nil, err
		}
		if c.Telemetry != nil {
			eng.EnableTelemetry(c.Telemetry)
		}
		return eng.Run(w)
	}

	type outcome struct {
		m   *core.Metrics
		err error
	}
	results := make([]outcome, len(jobs))
	sem := make(chan struct{}, c.Workers)
	done := make(chan int)
	for i := range jobs {
		go func(i int) {
			sem <- struct{}{}
			m, err := runTrial(jobs[i])
			results[i] = outcome{m: m, err: err}
			<-sem
			done <- i
		}(i)
	}
	for range jobs {
		<-done
	}

	res := &Result{Mapper: c.Mapper, Trials: c.Trials, NumApps: c.NumApps, Seed: c.Seed}
	for s, scheme := range c.Schemes {
		st := SchemeStats{Scheme: scheme, Trials: c.Trials}
		for t := 0; t < c.Trials; t++ {
			o := results[s*c.Trials+t]
			if o.err != nil {
				return nil, fmt.Errorf("reliability %s trial %d: %w", scheme, t, o.err)
			}
			m := o.m
			trialsCtr.Inc()
			if f := m.NoCFaults; f != nil {
				st.Delivered += f.Delivered
				st.Dropped += f.Dropped
				st.Retransmitted += f.Retransmitted
				st.Recovered += f.Recovered
				st.Lost += f.Lost
				droppedCtr.Add(uint64(f.Dropped))
			}
			st.TotalApps += len(m.Apps)
			st.CompletedApps += m.Completed
			for _, a := range m.Apps {
				if a.State == core.StateCompleted && a.DeadlineMet {
					st.DeadlinesMet++
				}
			}
			st.TotalVEs += m.TotalVEs
			st.TotalRollbacks += m.TotalRollbacks
			st.TotalRollbackDelayS += m.TotalRollbackDelayS
		}
		st.DeliveryRate = Wilson(st.Delivered, st.Delivered+st.Lost, z95)
		st.RecoveryRate = Wilson(st.Recovered, st.Dropped, z95)
		st.DeadlineMissRate = Wilson(st.TotalApps-st.DeadlinesMet, st.TotalApps, z95)
		res.Schemes = append(res.Schemes, st)
	}
	return res, nil
}

// Table renders the campaign as the experiments report table.
func (r *Result) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Reliability: %d seeded fault trials per scheme, %d apps, 95%% Wilson CI",
			r.Trials, r.NumApps),
		"scheme", "delivery", "dlo", "dhi", "recovery", "rlo", "rhi",
		"miss", "mlo", "mhi", "rollbacks", "rbDelay(s)")
	for _, s := range r.Schemes {
		t.AddRow(s.Scheme,
			s.DeliveryRate.P, s.DeliveryRate.Lo, s.DeliveryRate.Hi,
			s.RecoveryRate.P, s.RecoveryRate.Lo, s.RecoveryRate.Hi,
			s.DeadlineMissRate.P, s.DeadlineMissRate.Lo, s.DeadlineMissRate.Hi,
			s.TotalRollbacks, s.TotalRollbackDelayS)
	}
	return t
}

// WriteJSON emits the result as indented JSON. The document is a pure
// function of the Config, so byte-comparing two executions is a valid
// determinism check (the CI reliability smoke job does exactly that).
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
