package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// leafShares reads a CPU profile written by runtime/pprof and returns
// each layer's share of the sampled CPU time, attributing every sample
// to its leaf frame (the innermost function, inlined ones included).
// Layers are the repository's packages by last path element
// (repro/internal/router → "router"); runtime memory management and
// garbage collection count as "gc"; everything else as "other".
func leafShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		name := ""
		if loc, ok := p.locs[s.locs[0]]; ok && len(loc) > 0 {
			name = p.strs[p.funcs[loc[0]]]
		}
		byLayer[layerOf(name)] += v
		total += v
	}
	if total > 0 {
		for k := range byLayer {
			byLayer[k] /= total
		}
	}
	return byLayer, nil
}

// layerOf maps a function name to the layer it belongs to.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/"); ok {
		pkg := rest
		if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
			pkg = pkg[slash+1:]
		}
		if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
			pkg = pkg[:dot]
		}
		return pkg
	}
	if strings.HasPrefix(fn, "runtime.") {
		for _, k := range []string{"malloc", "gc", "GC", "scan", "grey", "mark", "sweep", "span", "heap",
			"mcache", "mcentral", "growslice", "memclr", "wbBuf", "Barrier", "newobject", "makeslice",
			"nextFree", "findObject", "typePointers"} {
			if strings.Contains(fn, k) {
				return "gc"
			}
		}
	}
	return "other"
}

// profile is the part of a pprof protobuf the shares need.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id → function ids, leaf first
	funcs   map[uint64]int64    // function id → name (string table index)
	strs    []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed profile")

// decodeProfile decodes the fields of profile.proto it needs:
// Profile.sample (2), .location (4), .function (5), .string_table (6);
// Sample.location_id (1), .value (2); Location.id (1), .line (4);
// Line.function_id (1); Function.id (1), .name (2).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := fields(b, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(msg, func(num, wire int, v uint64, m []byte) error {
				switch num {
				case 1:
					return ints(wire, v, m, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return ints(wire, v, m, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(msg, func(num, wire int, v uint64, m []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(m, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(msg, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcs {
		if idx < 0 || idx >= int64(len(p.strs)) {
			return nil, errProto
		}
	}
	return p, nil
}

// fields walks the fields of one protobuf message, handing varints in v
// and length-delimited payloads in msg.
func fields(b []byte, f func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := f(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// ints reads a repeated integer field, packed or not.
func ints(wire int, v uint64, msg []byte, put func(uint64)) error {
	if wire == 0 {
		put(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		put(x)
		msg = msg[n:]
	}
	return nil
}
