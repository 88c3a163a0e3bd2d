package noc

import (
	"math/bits"

	"parm/internal/geom"
)

// noOwner marks an output port with no wormhole channel allocated.
const noOwner = -1

// localPort is the port index of the tile-internal (injection and
// ejection) port.
const localPort = geom.NumPorts - 1

// dirIndex maps a direction to its port index, East=0 … Local=4, or -1 for
// a direction with no port. It relies on geom's East=1 … Local=5 ordering,
// which TestDirIndexRoundTrip pins; the arbiter's request masks use bit
// dirIndex(d) for the port of direction d.
func dirIndex(d geom.Dir) int {
	i := int(d) - 1
	if uint(i) >= geom.NumPorts {
		return -1
	}
	return i
}

var indexDir = [geom.NumPorts]geom.Dir{geom.East, geom.West, geom.North, geom.South, geom.Local}

// fifo is one input buffer: a fixed-capacity ring of flits. A ring keeps the
// hot loop allocation-free — the slice-and-append FIFO it replaces leaked
// front capacity on every pop and forced a reallocation per packet.
//
// A flit entering the buffer is first staged: written into the slot past
// the visible tail, where pops cannot reach it, and counted as a held
// credit. land makes it visible. Link crossings stage during the switch
// sweep and land once every router has been stepped, so a flit moves at
// most one hop per cycle while being copied only once.
type fifo struct {
	buf    []flit
	head   int
	n      int // visible flits
	staged int // flits staged past the tail, not yet landed (0 or 1)
}

func (q *fifo) len() int { return q.n }

// front returns the flit at the head of the queue; the caller must have
// checked len() > 0. The pointer stays valid until the next pop.
func (q *fifo) front() *flit { return &q.buf[q.head] }

// stage writes f into the slot just past the tail. The slot index head+n
// is unchanged by pops, so the downstream router may pop in the same
// sweep; the caller must have checked the buffer has a free slot.
func (q *fifo) stage(f flit) {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = f
	q.staged++
}

func (q *fifo) pop() flit {
	f := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return f
}

// router is one 5-port input-buffered wormhole router.
type router struct {
	tile geom.TileID

	// inputs[p] is the FIFO of flits waiting at input port p.
	inputs [geom.NumPorts]fifo
	// buffered is the total flit count across all input ports; a router
	// with buffered == 0 has no routing or switching work this cycle.
	buffered int
	// owner[p] is the input port that holds the wormhole channel to output
	// port p, or noOwner; bit p of owned is set exactly when it is not
	// noOwner.
	owner [geom.NumPorts]int
	owned uint8
	// rrPtr[p] is the round-robin arbitration pointer of output port p.
	rrPtr [geom.NumPorts]int
	// unrouted and routed partition the input ports whose front flit is a
	// head: bit p of unrouted marks a head awaiting route computation, bit p
	// of routed one whose output port index is reqPort[p] (-1 when the
	// algorithm returned a direction with no port). Only a front flit is
	// ever routed, so land and pop keep both masks exact (DESIGN.md §11).
	unrouted uint8
	routed   uint8
	reqPort  [geom.NumPorts]int8

	// forwarded counts flits that traversed the crossbar (all outputs).
	forwarded int
	// recvCycle/recvCount sample flits written into any input buffer during
	// one cycle (noteReceive); recvCycle is -1 until the first receive.
	recvCycle int
	recvCount int
	// incomingRate is an exponentially weighted moving average of received
	// flits per cycle; adaptive routing reads it from neighbors. rateCycle
	// is the first cycle not yet folded into it — idle-cycle decay is
	// applied lazily (catchUpRate).
	incomingRate float64
	rateCycle    int
}

// land makes input port p's staged flit visible. A head landing at the
// front of an empty buffer awaits route computation.
//
//parm:hot
func (r *router) land(p int) {
	q := &r.inputs[p]
	q.staged--
	q.n++
	if q.n == 1 && q.front().isHead() {
		r.unrouted |= 1 << uint(p)
	}
	r.buffered++
}

// pop removes input port p's front flit, and with it that flit's routing
// state. A head that becomes the new front awaits route computation.
//
//parm:hot
func (r *router) pop(p int) flit {
	q := &r.inputs[p]
	f := q.pop()
	r.buffered--
	r.unrouted &^= 1 << uint(p)
	r.routed &^= 1 << uint(p)
	if q.n > 0 && q.front().isHead() {
		r.unrouted |= 1 << uint(p)
	}
	return f
}

// arbitrate grants each free output port to the first input at or after
// its round-robin pointer whose routed front head requests it, and advances
// the pointer past the winner. One pass over the routed fronts builds a
// request mask per output; rotating the mask right by the pointer turns
// "first requester in round-robin order" into a trailing-zero count. The
// winners equal those of the probe-every-input scan in = (rrPtr+k) % 5,
// k = 0..4, kept as the test reference arbitrateScan (FuzzArbitrate).
//
//parm:hot
func (r *router) arbitrate() {
	var req [geom.NumPorts]uint8
	var outs uint8 // outputs with at least one requester
	for m := r.routed; m != 0; m &= m - 1 {
		in := bits.TrailingZeros8(m)
		if out := r.reqPort[in]; out >= 0 {
			req[out] |= 1 << uint(in)
			outs |= 1 << uint(out)
		}
	}
	for outs &^= r.owned; outs != 0; outs &= outs - 1 {
		out := bits.TrailingZeros8(outs)
		m := req[out]
		ptr := uint(r.rrPtr[out])
		rot := (m>>ptr | m<<(geom.NumPorts-ptr)) & (1<<geom.NumPorts - 1)
		in := int(ptr) + bits.TrailingZeros8(rot)
		if in >= geom.NumPorts {
			in -= geom.NumPorts
		}
		r.owner[out] = in
		r.owned |= 1 << uint(out)
		if in++; in == geom.NumPorts {
			in = 0
		}
		r.rrPtr[out] = in
	}
}

// release frees output port out's wormhole channel.
//
//parm:hot
func (r *router) release(out int) {
	r.owner[out] = noOwner
	r.owned &^= 1 << uint(out)
}

// occupancy returns the fill fraction of input port p's buffer.
func (r *router) occupancy(p int, capacity int) float64 {
	if capacity <= 0 {
		return 0
	}
	return float64(r.inputs[p].len()) / float64(capacity)
}

// link is the far end of one router output: the downstream router and the
// input port a flit lands in. to < 0 marks an output leaving the mesh (and
// the Local port, which ejects instead).
type link struct {
	to, port int32
}
