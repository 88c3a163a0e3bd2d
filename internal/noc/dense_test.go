package noc

// This file holds the executable reference for the event-driven cycle loop:
// a dense sweep that accrues every flow and visits every router each cycle,
// as the pre-fast-path simulator did. It shares the per-tile micro-step
// helpers with Step, so the equivalence tests compare genuinely different
// sweep structures over identical building blocks.

// stepDense is the reference cycle: every flow accrues and every router is
// swept, whether or not it has work. It ignores the wakeup heap and the
// active sets (Step's scheduling state), which it never reads.
func (n *Network) stepDense() {
	for i := range n.flows {
		if n.flows[i].Src == n.flows[i].Dst {
			continue // local communication bypasses the NoC
		}
		n.advanceAccrual(i, n.cycle)
	}
	// One flit per cycle enters each source tile's local input port (only
	// tiles with flows can ever inject).
	for _, t := range n.srcTiles {
		n.injectAtTile(t)
	}
	for t := range n.routers {
		if n.routers[t].buffered == 0 {
			continue
		}
		n.routeComputeRouter(t)
	}
	arrivals := n.arrivalScratch[:0]
	for t := range n.routers {
		if n.routers[t].buffered == 0 {
			continue // no flits: arbitration and traversal are no-ops
		}
		arrivals = n.traverseRouter(t, arrivals)
	}
	n.applyArrivals(arrivals)
	n.arrivalScratch = arrivals[:0]
	n.foldRatesDense()
	n.cycle++
}

// foldRatesDense advances every router's incoming-rate EWMA eagerly, as the
// reference loop did each cycle.
func (n *Network) foldRatesDense() {
	alpha := n.cfg.RateEWMA
	for t := range n.routers {
		r := &n.routers[t]
		sample := 0.0
		if r.recvCycle == n.cycle {
			sample = float64(r.recvCount)
		}
		r.incomingRate = ewmaStep(r.incomingRate, alpha, sample)
		r.rateCycle = n.cycle + 1
	}
	n.rated = n.rated[:0]
}

// runDense is Run on the reference loop: every cycle is stepped, with no
// idle-stretch skipping.
func (n *Network) runDense(cycles int) {
	for end := n.cycle + cycles; n.cycle < end; {
		n.stepDense()
	}
}

// measureDense is Measure on the reference loop.
func (n *Network) measureDense(cycles int) *Result { return n.measure(cycles, n.runDense) }
