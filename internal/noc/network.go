package noc

import (
	"fmt"
	"math/bits"
	"sort"

	"parm/internal/geom"
)

// Config parameterizes the NoC simulation.
type Config struct {
	// Width and Height are the mesh dimensions. Zero selects 10x6.
	Width, Height int
	// BufferFlits is the input buffer capacity per port. Zero selects 8.
	BufferFlits int
	// FlitsPerPacket is the packet size. Zero selects 5 (head + 4 payload).
	FlitsPerPacket int
	// StagedPackets bounds the per-flow source queue; when full, demand is
	// counted as stalled cycles instead of growing without bound. Zero
	// selects 4.
	StagedPackets int
	// OccupancyThreshold is PANR's buffer-occupancy threshold B as a
	// fraction; zero selects 0.5 (paper §5.1).
	OccupancyThreshold float64
	// RateEWMA is the smoothing constant of the incoming-data-rate
	// estimator in (0,1]; zero selects 0.05, the value every recorded
	// experiment was calibrated against (TestConfigDefaults pins doc and
	// code together).
	RateEWMA float64
	// SatLinkLoad is the per-link offered load (flits per cycle, injection
	// and ejection ports included) above which AnalyticMeasure declares the
	// network congested and callers must fall back to cycle simulation.
	// Zero selects 0.6 (DESIGN.md §11 derives the value).
	SatLinkLoad float64
}

func (c Config) withDefaults() Config {
	// Each dimension defaults independently, so a config that sets only one
	// (e.g. Width: 8) gets a real mesh instead of a degenerate zero-tile one.
	if c.Width == 0 {
		c.Width = 10
	}
	if c.Height == 0 {
		c.Height = 6
	}
	if c.BufferFlits == 0 {
		c.BufferFlits = 8
	}
	if c.FlitsPerPacket == 0 {
		c.FlitsPerPacket = 5
	}
	if c.StagedPackets == 0 {
		c.StagedPackets = 4
	}
	if c.OccupancyThreshold == 0 {
		c.OccupancyThreshold = 0.5
	}
	if c.RateEWMA == 0 {
		c.RateEWMA = 0.05
	}
	if c.SatLinkLoad == 0 {
		c.SatLinkLoad = 0.6
	}
	return c
}

// Env is the cross-layer state adaptive routing reads: the latest quantized
// PSN sensor reading per tile (paper Algorithm 3 input). A nil or short
// slice reads as zero noise.
type Env struct {
	PSN []float64
}

// psnAt returns the sensor reading for tile t, or 0 when unavailable.
func (e *Env) psnAt(t geom.TileID) float64 {
	if e == nil || int(t) >= len(e.PSN) || t < 0 {
		return 0
	}
	return e.PSN[t]
}

// Network is one NoC simulation instance.
type Network struct {
	cfg     Config
	mesh    geom.Mesh
	alg     Algorithm
	env     *Env
	routers []router
	flows   []Flow
	stats   []FlowStats

	// per-flow injection state
	acc     []float64 // fractional flit credit accumulated from Rate
	staged  []int     // whole packets waiting at the source NIC
	nextSeq []int     // next packet sequence number
	// accCycle[i] is the last cycle whose demand accrual has been replayed
	// into acc[i]; Step advances it lazily at wakeups.
	accCycle []int
	// partial[t] tracks, per tile, the flow whose packet is mid-injection
	// and how many flits remain, so packets enter the local port contiguously.
	partialFlow []int
	partialLeft []int
	injectRR    []int // round-robin pointer over flows per source tile
	flowsBySrc  [][]int
	srcTiles    []int     // tiles with at least one flow source, ascending
	starts      []flowLog // per-flow packet-start log: seq -> head injection cycle

	// active-set stepping state: which routers hold flits, which tiles have
	// staged or mid-packet injection work, and when each dormant flow next
	// needs demand accrual.
	activeRouters tileSet
	activeTiles   tileSet
	stagedFlows   []int // per tile, count of flows with staged > 0
	wake          wakeHeap
	nextWake      []int // latest scheduled wake per flow; -1 when dormant
	rated         []int // tiles that received flits this cycle (deduplicated)

	// links[t*NumPorts+out] is where router t's output port out leads,
	// built once so traversal needs no mesh arithmetic per flit.
	links []link

	// per-cycle scratch, reused to avoid allocation in the hot loop: the
	// links whose far-end buffer holds a staged flit this cycle
	arrivalScratch []link

	// faults, when non-nil, injects noise-induced packet losses at ejection
	// (SetFaultModel). pendingRecovery[f] counts flow f's retransmissions
	// still owed a delivery; headNoise[f] parks the head flit's accumulated
	// path noise until the tail closes the packet (ejection is contiguous
	// per packet, so one slot per flow suffices).
	faults          FaultModel
	pendingRecovery []int
	headNoise       []float64

	cycle int
}

// NewNetwork builds a network for the given routing algorithm, flow set,
// and environment. It returns an error for non-positive mesh dimensions,
// or when a flow references a tile outside the mesh or has a negative rate.
func NewNetwork(cfg Config, alg Algorithm, flows []Flow, env *Env) (*Network, error) {
	cfg = cfg.withDefaults()
	if alg == nil {
		return nil, fmt.Errorf("noc: nil routing algorithm")
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("noc: non-positive mesh dimensions %dx%d", cfg.Width, cfg.Height)
	}
	mesh := geom.NewMesh(cfg.Width, cfg.Height)
	n := &Network{
		cfg:           cfg,
		mesh:          mesh,
		alg:           alg,
		env:           env,
		routers:       make([]router, mesh.NumTiles()),
		flows:         flows,
		stats:         make([]FlowStats, len(flows)),
		acc:           make([]float64, len(flows)),
		staged:        make([]int, len(flows)),
		nextSeq:       make([]int, len(flows)),
		accCycle:      make([]int, len(flows)),
		partialFlow:   make([]int, mesh.NumTiles()),
		partialLeft:   make([]int, mesh.NumTiles()),
		injectRR:      make([]int, mesh.NumTiles()),
		flowsBySrc:    make([][]int, mesh.NumTiles()),
		starts:        make([]flowLog, len(flows)),
		activeRouters: newTileSet(mesh.NumTiles()),
		activeTiles:   newTileSet(mesh.NumTiles()),
		stagedFlows:   make([]int, mesh.NumTiles()),
		nextWake:      make([]int, len(flows)),
		// Preallocated to their steady-state bounds so the cycle loop never
		// grows them: at most one arrival per (tile, port) per cycle, one
		// rated entry per tile per cycle, one live wakeup per flow.
		rated:          make([]int, 0, mesh.NumTiles()),
		wake:           make(wakeHeap, 0, len(flows)),
		arrivalScratch: make([]link, 0, mesh.NumTiles()*geom.NumPorts),
		links:          make([]link, mesh.NumTiles()*geom.NumPorts),
	}
	// One backing array for every input buffer keeps the rings contiguous.
	bufs := make([]flit, mesh.NumTiles()*geom.NumPorts*cfg.BufferFlits)
	for i := range n.routers {
		n.routers[i].tile = geom.TileID(i)
		n.routers[i].recvCycle = -1
		for p := range n.routers[i].owner {
			n.routers[i].owner[p] = noOwner
			off := (i*geom.NumPorts + p) * cfg.BufferFlits
			n.routers[i].inputs[p].buf = bufs[off : off+cfg.BufferFlits]
			l := link{to: -1}
			if d := indexDir[p]; d != geom.Local {
				if next, ok := mesh.Neighbor(geom.TileID(i), d); ok {
					l = link{to: int32(next), port: int32(dirIndex(d.Opposite()))}
				}
			}
			n.links[i*geom.NumPorts+p] = l
		}
		n.partialFlow[i] = -1
	}
	for i, f := range flows {
		if !mesh.ValidTile(f.Src) || !mesh.ValidTile(f.Dst) {
			return nil, fmt.Errorf("noc: flow %d endpoints (%d,%d) outside mesh", i, f.Src, f.Dst)
		}
		if f.Rate < 0 {
			return nil, fmt.Errorf("noc: flow %d has negative rate %g", i, f.Rate)
		}
		n.accCycle[i] = -1
		n.nextWake[i] = -1
		if f.Src != f.Dst {
			if len(n.flowsBySrc[f.Src]) == 0 {
				n.srcTiles = append(n.srcTiles, int(f.Src))
			}
			n.flowsBySrc[f.Src] = append(n.flowsBySrc[f.Src], i)
			n.scheduleWake(i)
		}
	}
	sort.Ints(n.srcTiles)
	return n, nil
}

// Mesh returns the mesh geometry.
func (n *Network) Mesh() geom.Mesh { return n.mesh }

// SetFaultModel installs fm as the network's packet-loss model: every
// packet reaching its destination is checked against the worst PSN sensor
// reading on its route, and dropped packets are retransmitted from the
// source NIC while its stage queue has room. Call before the first Step.
// A nil model (the default) delivers every packet and leaves the hot loop
// untouched.
func (n *Network) SetFaultModel(fm FaultModel) {
	n.faults = fm
	if fm != nil && n.pendingRecovery == nil {
		n.pendingRecovery = make([]int, len(n.flows))
		n.headNoise = make([]float64, len(n.flows))
	}
}

// IncomingRate returns the EWMA incoming flit rate of tile t's router,
// folding any pending idle-cycle decay first (see catchUpRate).
func (n *Network) IncomingRate(t geom.TileID) float64 {
	r := &n.routers[t]
	n.catchUpRate(r, n.cycle-1)
	return r.incomingRate
}

// SensorPSN returns the environment's PSN reading at tile t.
func (n *Network) SensorPSN(t geom.TileID) float64 { return n.env.psnAt(t) }

// Step advances the simulation by one cycle. It visits only tiles with
// injection work and routers holding flits, while dormant flows accrue
// demand via scheduled wakeups (DESIGN.md §11). Every micro-step it performs
// is identical, in the same ascending-tile order, to what a dense sweep of
// every flow and router would do (the executable reference in
// dense_test.go); the skipped tiles are exactly those for which the dense
// body is a no-op.
//
//parm:hot
func (n *Network) Step() {
	n.processWakeups()
	// Injection sweep over tiles with staged packets or a mid-packet worm.
	for wi, w := range n.activeTiles.words {
		base := wi << 6
		for w != 0 {
			n.injectAtTile(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	// Route compute, then switch traversal, over routers holding flits.
	// Traversal must sweep in ascending tile order: a downstream pop earlier
	// in the sweep frees a credit an upstream router sees the same cycle.
	for wi, w := range n.activeRouters.words {
		base := wi << 6
		for w != 0 {
			n.routeComputeRouter(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	arrivals := n.arrivalScratch[:0]
	for wi, w := range n.activeRouters.words {
		base := wi << 6
		for w != 0 {
			arrivals = n.traverseRouter(base+bits.TrailingZeros64(w), arrivals)
			w &= w - 1
		}
	}
	n.applyArrivals(arrivals)
	n.arrivalScratch = arrivals[:0]
	n.foldRates()
	n.cycle++
}

// Run advances the simulation by the given number of cycles. Stretches
// where no router holds a flit and no tile has injection work are skipped in
// one jump to the next flow wakeup: no per-cycle state changes in between
// (rate decay and demand accrual are lazy, credits are clear between
// cycles), so the jump is exact.
func (n *Network) Run(cycles int) {
	end := n.cycle + cycles
	for n.cycle < end {
		if n.activeRouters.empty() && n.activeTiles.empty() {
			next := end
			if len(n.wake) > 0 && n.wake[0].cycle < next {
				next = n.wake[0].cycle
			}
			if next > n.cycle {
				n.cycle = next
				continue
			}
		}
		n.Step()
	}
}

// processWakeups replays demand accrual for every flow whose wakeup is due,
// then books the next one. Wakeups are scheduled at or before each credit
// crossing, so accrual state is always current by the time it can matter.
//
//parm:hot
func (n *Network) processWakeups() {
	for len(n.wake) > 0 && n.wake[0].cycle <= n.cycle {
		w := n.wake.pop()
		if n.nextWake[w.flow] != w.cycle {
			continue // superseded booking
		}
		n.advanceAccrual(w.flow, n.cycle)
		n.scheduleWake(w.flow)
	}
}

// advanceAccrual replays flow i's per-cycle demand accrual up to and
// including cycle through, exactly as a per-cycle loop would have: one
// floating-point add per cycle, stagings and stall accounting at the
// precise crossing cycles. Replaying the adds (rather than closing the sum
// into k*rate) keeps the float trajectory bit-identical to the reference.
//
//parm:hot
func (n *Network) advanceAccrual(i, through int) {
	if through <= n.accCycle[i] {
		return
	}
	// Locals keep the replay loop in registers; the adds and compares are
	// the same float operations in the same order as the per-cycle form.
	rate := n.flows[i].Rate
	fpp := float64(n.cfg.FlitsPerPacket)
	acc := n.acc[i]
	for c := n.accCycle[i] + 1; c <= through; c++ {
		acc += rate
		for acc >= fpp {
			if n.staged[i] >= n.cfg.StagedPackets {
				n.stats[i].StalledCycles++
				// Drop the accrued packet's credit: the source is
				// backpressured and the demand is deferred.
				acc -= fpp
				break
			}
			acc -= fpp
			n.incStaged(i)
		}
	}
	n.acc[i] = acc
	n.accCycle[i] = through
}

// scheduleWake books flow i's next accrual wakeup: a conservative lower
// bound on its next credit crossing. Waking early is always safe (the flow
// advances and re-estimates); waking late would miss a staging cycle, so
// the estimate subtracts a margin covering the worst-case rounding drift of
// k replayed additions (O(k^2) ulps around the crossing) and falls back to
// geometric halving when the margin would swallow the whole estimate.
func (n *Network) scheduleWake(i int) {
	r := n.flows[i].Rate
	if r <= 0 {
		n.nextWake[i] = -1
		return
	}
	deficit := float64(n.cfg.FlitsPerPacket) - n.acc[i]
	est := deficit / r
	if est > 1<<50 {
		est = 1 << 50
	}
	k := int(est)
	margin := 2 + int(float64(k)*float64(k)*4e-15)
	step := k - margin
	if half := k / 2; step < half {
		step = half
	}
	if step < 1 {
		step = 1
	}
	wake := n.accCycle[i] + step
	n.nextWake[i] = wake
	n.wake.push(flowWake{cycle: wake, flow: i})
}

// incStaged stages one packet of flow fi and keeps the per-tile staged-flow
// count and injection active set in sync.
//
//parm:hot
func (n *Network) incStaged(fi int) {
	n.staged[fi]++
	if n.staged[fi] == 1 {
		src := int(n.flows[fi].Src)
		n.stagedFlows[src]++
		n.activeTiles.set(src)
	}
}

// decStaged consumes one staged packet of flow fi.
//
//parm:hot
func (n *Network) decStaged(fi int) {
	n.staged[fi]--
	if n.staged[fi] == 0 {
		src := int(n.flows[fi].Src)
		n.stagedFlows[src]--
		if n.stagedFlows[src] == 0 {
			n.updateTileActivity(src)
		}
	}
}

// updateTileActivity recomputes tile t's membership in the injection active
// set: it has work while a packet is mid-injection or any of its flows has
// staged packets.
//
//parm:hot
func (n *Network) updateTileActivity(t int) {
	if n.partialFlow[t] >= 0 || n.stagedFlows[t] > 0 {
		n.activeTiles.set(t)
	} else {
		n.activeTiles.clear(t)
	}
}

// injectAtTile moves at most one NIC flit into tile t's local input port.
//
//parm:hot
func (n *Network) injectAtTile(t int) {
	r := &n.routers[t]
	if r.inputs[localPort].len() >= n.cfg.BufferFlits {
		return
	}
	fi := n.pickInjection(t)
	if fi < 0 {
		return
	}
	k := n.flitToInject(t, fi)
	if n.faults != nil && k.isHead() {
		// Path-noise accounting starts at the injection router.
		k.noise = n.env.psnAt(geom.TileID(t))
	}
	r.inputs[localPort].stage(k)
	r.land(localPort)
	n.activeRouters.set(t)
	n.noteReceive(r, t)
	n.stats[fi].InjectedFlits++
}

// pickInjection selects which flow injects at tile t this cycle: the
// in-progress packet if any, else round-robin over staged flows.
//
//parm:hot
func (n *Network) pickInjection(t int) int {
	if n.partialFlow[t] >= 0 {
		return n.partialFlow[t]
	}
	flows := n.flowsBySrc[t]
	if len(flows) == 0 {
		return -1
	}
	for k := 0; k < len(flows); k++ {
		fi := flows[(n.injectRR[t]+k)%len(flows)]
		if n.staged[fi] > 0 {
			n.injectRR[t] = (n.injectRR[t] + k + 1) % len(flows)
			return fi
		}
	}
	return -1
}

// flitToInject produces the next flit of flow fi's current packet at tile t
// and updates the partial-packet bookkeeping.
//
//parm:hot
func (n *Network) flitToInject(t, fi int) flit {
	fpp := n.cfg.FlitsPerPacket
	if n.partialFlow[t] < 0 {
		// Start a new packet.
		seq := n.nextSeq[fi]
		n.nextSeq[fi]++
		n.decStaged(fi)
		n.starts[fi].record(seq, n.cycle)
		if fpp == 1 {
			return flit{kind: KindHeadTail, flow: fi, packet: seq}
		}
		n.partialFlow[t] = fi
		n.partialLeft[t] = fpp - 1
		n.activeTiles.set(t)
		return flit{kind: KindHead, flow: fi, packet: seq}
	}
	seq := n.nextSeq[fi] - 1
	n.partialLeft[t]--
	kind := KindBody
	if n.partialLeft[t] == 0 {
		kind = KindTail
		n.partialFlow[t] = -1
		n.updateTileActivity(t)
	}
	return flit{kind: kind, flow: fi, packet: seq}
}

// routeComputeRouter assigns output ports to the unrouted head flits at the
// front of router t's input buffers, in ascending port order.
//
//parm:hot
func (n *Network) routeComputeRouter(t int) {
	r := &n.routers[t]
	for m := r.unrouted; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		f := r.inputs[p].front()
		ctx := RouteCtx{
			Net:            n,
			At:             geom.TileID(t),
			Dst:            n.flows[f.flow].Dst,
			InDir:          indexDir[p],
			InputOccupancy: r.occupancy(p, n.cfg.BufferFlits),
		}
		r.reqPort[p] = int8(dirIndex(n.alg.Route(ctx)))
	}
	r.routed |= r.unrouted
	r.unrouted = 0
}

// traverseRouter performs output arbitration and moves at most one flit per
// output port of router t, appending link crossings to arrivals. When the
// router drains completely it leaves the active set.
//
//parm:hot
func (n *Network) traverseRouter(t int, arrivals []link) []link {
	r := &n.routers[t]
	r.arbitrate()
	// Traversal: each owned output forwards its input's front flit.
	links := n.links[t*geom.NumPorts : (t+1)*geom.NumPorts]
	for m := r.owned; m != 0; m &= m - 1 {
		out := bits.TrailingZeros8(m)
		in := r.owner[out]
		if r.inputs[in].len() == 0 {
			continue
		}
		if out == localPort {
			// Ejection: infinite sink.
			f := r.pop(in)
			r.forwarded++
			n.eject(f)
			if f.isTail() {
				r.release(out)
			}
			continue
		}
		l := links[out]
		if l.to < 0 {
			// Misrouting off-mesh cannot happen with a sane algorithm;
			// drop the channel to avoid wedging the port forever.
			r.release(out)
			continue
		}
		dq := &n.routers[l.to].inputs[l.port]
		if dq.n+dq.staged >= n.cfg.BufferFlits {
			continue // no downstream credit
		}
		f := r.pop(in)
		r.forwarded++
		if n.faults != nil && f.isHead() {
			if p := n.env.psnAt(geom.TileID(l.to)); p > f.noise {
				f.noise = p
			}
		}
		dq.stage(f)
		// Bounded by the scratch capacity NewNetwork preallocated: one
		// arrival per (tile, port) per cycle.
		//parm:alloc
		arrivals = append(arrivals, l)
		if f.isTail() {
			r.release(out)
		}
	}
	if r.buffered == 0 {
		n.activeRouters.clear(t)
	}
	return arrivals
}

// eject records delivery statistics for a flit leaving the network. With a
// fault model installed, the tail flit closes the packet with a corruption
// check against the head's accumulated path noise: a dropped packet is
// retransmitted from the source NIC while its stage queue has room, and a
// later delivery of the flow repays the debt as a recovery.
//
//parm:hot
func (n *Network) eject(f flit) {
	st := &n.stats[f.flow]
	st.DeliveredFlits++
	if n.faults != nil && f.kind == KindHead {
		// Park the head's path noise until the tail closes the packet. One
		// slot per flow suffices: the local output port's owner is held from
		// head to tail, so a flow's packets eject contiguously.
		n.headNoise[f.flow] = f.noise
	}
	if !f.isTail() {
		return
	}
	if n.faults != nil {
		noise := f.noise
		if f.kind == KindTail {
			noise = n.headNoise[f.flow]
		}
		if n.faults.DropPacket(noise) {
			st.DroppedPackets++
			n.starts[f.flow].take(f.packet)
			if n.staged[f.flow] < n.cfg.StagedPackets {
				n.incStaged(f.flow)
				n.pendingRecovery[f.flow]++
				st.RetransmittedPackets++
			} else {
				st.LostPackets++
			}
			return
		}
		if n.pendingRecovery[f.flow] > 0 {
			n.pendingRecovery[f.flow]--
			st.RecoveredPackets++
		}
	}
	st.DeliveredPackets++
	if born, ok := n.starts[f.flow].take(f.packet); ok {
		st.TotalPacketLatency += n.cycle - born + 1
	}
}

// applyArrivals lands the flits staged by this cycle's link crossings,
// which also returns their held credits.
//
//parm:hot
func (n *Network) applyArrivals(arrivals []link) {
	for _, a := range arrivals {
		to := int(a.to)
		r := &n.routers[to]
		r.land(int(a.port))
		n.activeRouters.set(to)
		n.noteReceive(r, to)
	}
}

// noteReceive counts a flit entering any of router r's input buffers this
// cycle and enrolls the tile in the per-cycle rated list (once).
//
//parm:hot
func (n *Network) noteReceive(r *router, t int) {
	if r.recvCycle != n.cycle {
		r.recvCycle = n.cycle
		r.recvCount = 0
		// Bounded by the rated capacity NewNetwork preallocated: one entry
		// per tile per cycle.
		//parm:alloc
		n.rated = append(n.rated, t)
	}
	r.recvCount++
}

// ewmaStep is the one incoming-rate update everybody shares. Keeping eager,
// lazy, and catch-up updates on this exact expression guarantees they round
// identically whether or not the compiler fuses the multiply-add.
//
//parm:hot
func ewmaStep(rate, alpha, sample float64) float64 {
	return (1-alpha)*rate + alpha*sample
}

// catchUpRate folds router r's pending idle-cycle rate decay through the
// given cycle. Every cycle with a receive is folded eagerly at its own end
// (foldRates), so all pending cycles here sampled zero flits; a zero rate
// then stays zero, which lets long-idle routers skip the replay outright.
//
//parm:hot
func (n *Network) catchUpRate(r *router, through int) {
	if r.rateCycle > through {
		return
	}
	// Exact shortcut, not a tolerance: ewmaStep(0, alpha, 0) == 0.
	//parm:floateq
	if r.incomingRate == 0 {
		r.rateCycle = through + 1
		return
	}
	alpha := n.cfg.RateEWMA
	rate := r.incomingRate
	for c := r.rateCycle; c <= through; c++ {
		next := ewmaStep(rate, alpha, 0)
		// Deep-subnormal rates reach a rounding fixed point where the decay
		// is exactly idempotent; the remaining replay is then a no-op. Exact
		// comparison, not a tolerance.
		//parm:floateq
		if next == rate {
			break
		}
		rate = next
	}
	r.incomingRate = rate
	r.rateCycle = through + 1
}

// foldRates advances the incoming-rate EWMA of every router that received
// flits this cycle (the rated list); routers that received nothing keep a
// pending decay that catchUpRate folds lazily on first read.
//
//parm:hot
func (n *Network) foldRates() {
	alpha := n.cfg.RateEWMA
	for _, t := range n.rated {
		r := &n.routers[t]
		n.catchUpRate(r, n.cycle-1)
		r.incomingRate = ewmaStep(r.incomingRate, alpha, float64(r.recvCount))
		r.rateCycle = n.cycle + 1
	}
	n.rated = n.rated[:0]
}

// Result summarizes a measurement window.
type Result struct {
	// Cycles is the window length.
	Cycles int
	// Flows holds per-flow statistics, parallel to the input flow slice.
	Flows []FlowStats
	// RouterForwarded counts crossbar traversals per tile.
	RouterForwarded []int
	// RouterUtil is forwarded flits per cycle per port, in [0,1].
	RouterUtil []float64
}

// Measure runs the network for the given number of cycles from its current
// state and returns aggregate statistics.
func (n *Network) Measure(cycles int) *Result { return n.measure(cycles, n.Run) }

// measure advances the network by cycles through run and returns the
// statistics accumulated in between.
func (n *Network) measure(cycles int, run func(cycles int)) *Result {
	startForwarded := make([]int, len(n.routers))
	for i := range n.routers {
		startForwarded[i] = n.routers[i].forwarded
	}
	startStats := make([]FlowStats, len(n.stats))
	copy(startStats, n.stats)

	run(cycles)

	res := &Result{
		Cycles:          cycles,
		Flows:           make([]FlowStats, len(n.stats)),
		RouterForwarded: make([]int, len(n.routers)),
		RouterUtil:      make([]float64, len(n.routers)),
	}
	for i := range n.stats {
		res.Flows[i] = FlowStats{
			InjectedFlits:        n.stats[i].InjectedFlits - startStats[i].InjectedFlits,
			DeliveredFlits:       n.stats[i].DeliveredFlits - startStats[i].DeliveredFlits,
			DeliveredPackets:     n.stats[i].DeliveredPackets - startStats[i].DeliveredPackets,
			TotalPacketLatency:   n.stats[i].TotalPacketLatency - startStats[i].TotalPacketLatency,
			StalledCycles:        n.stats[i].StalledCycles - startStats[i].StalledCycles,
			DroppedPackets:       n.stats[i].DroppedPackets - startStats[i].DroppedPackets,
			RetransmittedPackets: n.stats[i].RetransmittedPackets - startStats[i].RetransmittedPackets,
			RecoveredPackets:     n.stats[i].RecoveredPackets - startStats[i].RecoveredPackets,
			LostPackets:          n.stats[i].LostPackets - startStats[i].LostPackets,
		}
	}
	for i := range n.routers {
		fw := n.routers[i].forwarded - startForwarded[i]
		res.RouterForwarded[i] = fw
		res.RouterUtil[i] = float64(fw) / float64(cycles) / float64(geom.NumPorts)
	}
	return res
}
