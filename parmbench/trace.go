package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"parm/internal/appmodel"
	"parm/internal/chip"
	"parm/internal/geom"
	"parm/internal/mapping"
	"parm/internal/noc"
	"parm/internal/obs"
)

// spanLog keeps the traced pass's spans (setup, cell > Map) in memory on a
// host-clock timeline measured from the pass start; it is written out as a
// Chrome trace when the run ends.
type spanLog struct {
	tl    *obs.Timeline
	start time.Time
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{tl: obs.NewTimeline(capacity), start: time.Now()}
}

func (s *spanLog) now() float64 { return time.Since(s.start).Seconds() }

func (s *spanLog) begin(name string) obs.SpanID { return s.tl.StartSpan(name, s.now(), -1) }

func (s *spanLog) end(id obs.SpanID) { s.tl.EndSpan(id, s.now()) }

// tracedMapper wraps Framework.Mapper with a span and a host timer around
// each Map call.
type tracedMapper struct {
	inner  mapping.Mapper
	spans  *spanLog
	calls  *int
	placed *int
	busy   *time.Duration
}

func (m tracedMapper) Name() string { return m.inner.Name() }

func (m tracedMapper) Map(c *chip.Chip, g *appmodel.APG) (*mapping.Placement, bool) {
	id := m.spans.begin("Map")
	t0 := time.Now()
	p, ok := m.inner.Map(c, g)
	*m.busy += time.Since(t0)
	m.spans.end(id)
	*m.calls++
	if ok {
		*m.placed++
	}
	return p, ok
}

// countingRouting wraps Framework.Routing with a call counter and no timer.
// The counter is atomic so the wrapper stays correct whichever goroutine
// routes.
type countingRouting struct {
	inner noc.Algorithm
	calls *atomic.Uint64
}

func (r countingRouting) Name() string { return r.inner.Name() }

func (r countingRouting) Route(ctx noc.RouteCtx) geom.Dir {
	r.calls.Add(1)
	return r.inner.Route(ctx)
}

// layers lists the rows of the per-layer breakdown in print order.
var layers = []string{"noc", "core", "chip", "pdn", "mapping", "sched", "appmodel", "runtime", "other"}

// layerOf maps a Go package path to its layer. ok is false for packages that
// belong to their caller's layer (the standard library, geom, power).
func layerOf(pkg string) (layer string, ok bool) {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime", true
	case pkg == "main" || pkg == "parm/internal/obs":
		return "other", true
	case strings.HasPrefix(pkg, "parm/internal/"):
		name := strings.TrimPrefix(pkg, "parm/internal/")
		for _, l := range layers {
			if l == name {
				return l, true
			}
		}
	}
	return "", false
}

// funcPackage extracts the package path from a fully qualified Go function
// name such as "parm/internal/noc.(*Network).Step".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attributeProfile sums a gzipped pprof CPU profile's CPU time by layer.
// Each sample goes to the layer of its innermost frame that has one (frames
// from the standard library, geom and power count toward their caller), or
// to "other".
func attributeProfile(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(layers))
	for _, s := range p.samples {
		layer := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l, ok := layerOf(funcPackage(fn)); ok {
					layer = l
					break frames
				}
			}
		}
		out[layer] += float64(s.value) / 1e9
	}
	return out, nil
}

// profile is the subset of a pprof profile the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds
}

// parseProfile decodes the gzipped protobuf runtime/pprof writes: the
// sample, location, function and string tables (profile.proto fields 2, 4,
// 5 and 6). The sample value used is the one whose type is "cpu".
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids
		funcNames   = map[uint64]int64{}    // function id -> name string index
		strs        []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, v, pb)
				case 2:
					for _, u := range pbAppendUints(nil, v, pb) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(lb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t[0]) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	p := &profile{locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locFuncs[id] = names
	}
	for _, s := range samples {
		if cpu < len(s.values) {
			p.samples = append(p.samples, sample{locs: s.locs, value: s.values[cpu]})
		}
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends a repeated varint field that arrived either as one
// unpacked value (packed == nil) or as a packed run.
func pbAppendUints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}
