package noc

import (
	"math/rand"
	"testing"

	"parm/internal/geom"
)

// arbitrateScan is the reference switch allocator the mask arbiter
// replaced: every free output probes all five inputs in round-robin order
// from its pointer, (rrPtr+k) % 5 for k = 0..4, and grants the first whose
// routed front head requests it.
func arbitrateScan(r *router) {
	for out := 0; out < geom.NumPorts; out++ {
		if r.owner[out] != noOwner {
			continue
		}
		for k := 0; k < geom.NumPorts; k++ {
			in := (r.rrPtr[out] + k) % geom.NumPorts
			if r.inputs[in].len() == 0 {
				continue
			}
			if r.routed&(1<<uint(in)) == 0 || int(r.reqPort[in]) != out {
				continue
			}
			r.owner[out] = in
			r.rrPtr[out] = (in + 1) % geom.NumPorts
			break
		}
	}
}

// arbiterState decodes a router from two words. Per input, 8 bits of
// inputs: bits 0-1 queue length, bit 2 front is a head, bit 3 the head is
// routed, bits 4-7 its output direction as a geom.Dir (invalid values
// included). Per output, 6 bits of outputs: bits 0-2 owner (5-7 free),
// bits 3-5 the round-robin pointer mod 5. The masks obey the router's
// invariants: only a nonempty buffer's head front is routed or unrouted,
// and owned mirrors owner.
func arbiterState(inputs uint64, outputs uint32) *router {
	r := &router{}
	for in := 0; in < geom.NumPorts; in++ {
		b := inputs >> (8 * uint(in))
		q := &r.inputs[in]
		q.buf = make([]flit, 4)
		q.n = int(b & 3)
		q.buf[0].kind = KindBody
		if b&4 != 0 {
			q.buf[0].kind = KindHead
		}
		if q.n == 0 || !q.front().isHead() {
			continue
		}
		if b&8 != 0 {
			r.routed |= 1 << uint(in)
			r.reqPort[in] = int8(dirIndex(geom.Dir(b >> 4 & 15)))
		} else {
			r.unrouted |= 1 << uint(in)
		}
	}
	for out := 0; out < geom.NumPorts; out++ {
		b := outputs >> (6 * uint(out))
		r.owner[out] = noOwner
		if o := int(b & 7); o < geom.NumPorts {
			r.owner[out] = o
			r.owned |= 1 << uint(out)
		}
		r.rrPtr[out] = int(b>>3&7) % geom.NumPorts
	}
	return r
}

func checkArbitrate(t *testing.T, inputs uint64, outputs uint32) {
	t.Helper()
	got, want := arbiterState(inputs, outputs), arbiterState(inputs, outputs)
	got.arbitrate()
	arbitrateScan(want)
	if got.owner != want.owner || got.rrPtr != want.rrPtr {
		t.Fatalf("state (%#x, %#x): mask arbiter owner=%v rrPtr=%v, scan owner=%v rrPtr=%v",
			inputs, outputs, got.owner, got.rrPtr, want.owner, want.rrPtr)
	}
	for out, in := range got.owner {
		if owned := got.owned&(1<<uint(out)) != 0; owned != (in != noOwner) {
			t.Fatalf("state (%#x, %#x): output %d owned bit %v, owner %d", inputs, outputs, out, owned, in)
		}
	}
}

// FuzzArbitrate checks the mask arbiter against the reference scan over
// arbitrary router states: fronts routed or unrouted with any output
// direction, partially owned outputs, any round-robin pointers.
func FuzzArbitrate(f *testing.F) {
	f.Add(uint64(0), uint32(0))
	f.Add(uint64(0x5d5d5d5d5d), uint32(0x71c71c7))  // every input requests Local, all outputs free
	f.Add(uint64(0x5d4d3d2d1d), uint32(0x277d73c7)) // one request per output, pointers spread
	f.Add(uint64(0x3d3d3d3d3d), uint32(0x1702729f)) // all want North, some outputs owned
	f.Add(uint64(0xfd0d7d8d6d), uint32(0x279e79e7)) // invalid directions mixed in
	f.Fuzz(checkArbitrate)
}

// TestArbitrateRandomStates runs the fuzz property over a fixed stream of
// random states, so plain go test covers it without the fuzzing engine.
func TestArbitrateRandomStates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		checkArbitrate(t, rng.Uint64(), rng.Uint32())
	}
}
