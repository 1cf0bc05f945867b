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

// layers are the repo modules host time is attributed to, in report
// order. Each internal package belongs to exactly one layer (layerOfPkg);
// "other" takes the remaining module code (the facade, kvstore, pixels,
// query and gsperf itself) and "runtime" the samples with no module frame
// at all, such as the garbage collector's background workers.
var layers = []string{
	"sim", "cpu", "cache", "memsys", "memctrl", "dram", "gsdram", "machine",
	"imdb", "gemm", "graph", "fastsim", "sample", "telemetry", "bench",
	"farm", "refmodel", "other", "runtime",
}

// layerOfPkg maps gsdram/internal/<pkg> to its layer.
var layerOfPkg = map[string]string{
	"sim": "sim", "cpu": "cpu", "cache": "cache",
	"memsys": "memsys", "prefetch": "memsys", "autopatt": "memsys",
	"memctrl": "memctrl", "dram": "dram", "gsdram": "gsdram",
	"machine": "machine", "vm": "machine", "addrmap": "machine",
	"imdb": "imdb", "gemm": "gemm", "graph": "graph", "fastsim": "fastsim",
	"sample": "sample", "ckpt": "sample",
	"telemetry": "telemetry", "metrics": "telemetry", "latency": "telemetry",
	"flight": "telemetry", "trace": "telemetry",
	"bench": "bench", "spec": "bench", "runner": "bench", "energy": "bench", "stats": "bench",
	"farm": "farm", "resultcache": "farm",
	"refmodel": "refmodel", "stress": "refmodel",
}

// funcPackage returns the import path of a Go symbol name such as
// "gsdram/internal/sim.(*EventQueue).Run" or "container/heap.Pop".
// Generic instantiations ("pkg.F[pkg2.T]") are cut at the bracket, whose
// contents may hold slashes of their own.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOfFunc returns the layer of a module function, or "" for a frame
// outside the module (standard library, runtime), which is charged to
// its nearest module caller instead.
func layerOfFunc(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "gsdram/internal/"); ok {
		if l, ok := layerOfPkg[rest]; ok {
			return l
		}
		return "other"
	}
	if pkg == "gsdram" || pkg == "main" || strings.HasPrefix(pkg, "gsdram/") {
		return "other"
	}
	return ""
}

// layerSamples is a CPU profile's sample count per layer.
type layerSamples map[string]int64

// total sums the counts.
func (s layerSamples) total() int64 {
	var n int64
	for _, v := range s {
		n += v
	}
	return n
}

// shares returns each layer's fraction of all samples; every layer is
// present and the fractions sum to 1 when there is at least one sample.
func (s layerSamples) shares() map[string]float64 {
	out := make(map[string]float64, len(layers))
	total := float64(s.total())
	for _, l := range layers {
		out[l] = ratio(float64(s[l]), total)
	}
	return out
}

// attributeProfile decodes a gzipped pprof CPU profile and charges every
// sample to the layer of its innermost module frame. Stacks are walked
// leaf first, and within a location the inlined frames innermost first
// (the order pprof stores its lines in), so a standard-library call such
// as container/heap.Push made from internal/sim counts as sim.
func attributeProfile(gz []byte) (layerSamples, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	funcLayer := make(map[uint64]string, len(p.funcName))
	for id, nameIdx := range p.funcName {
		if nameIdx < 0 || int(nameIdx) >= len(p.strings) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, nameIdx, len(p.strings))
		}
		funcLayer[id] = layerOfFunc(p.strings[nameIdx])
	}
	out := layerSamples{}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		layer := "runtime"
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locFuncs[loc] {
				if l := funcLayer[fn]; l != "" {
					layer = l
					break stack
				}
			}
		}
		out[layer] += s.values[0]
	}
	return out, nil
}

// profile is the subset of profile.proto (github.com/google/pprof) that
// attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// Field numbers of profile.proto.
const (
	profileSample      = 2
	profileLocation    = 4
	profileFunction    = 5
	profileStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case profileSample:
			var s profSample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case sampleLocationID:
					ids, err := uvarints(wire, v, data)
					s.locations = append(s.locations, ids...)
					return err
				case sampleValue:
					vals, err := uvarints(wire, v, data)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case profileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profileStringTable:
			if wire != wireBytes {
				return errBadWire
			}
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var (
	errTruncated = errors.New("truncated protobuf")
	errBadWire   = errors.New("unexpected protobuf wire type")
)

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or its length-delimited
// payload.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errBadWire
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// uvarints decodes a repeated varint field, packed or not.
func uvarints(wire int, v uint64, data []byte) ([]uint64, error) {
	switch wire {
	case wireVarint:
		return []uint64{v}, nil
	case wireBytes:
		var out []uint64
		for len(data) > 0 {
			x, n := binary.Uvarint(data)
			if n <= 0 {
				return nil, errTruncated
			}
			out = append(out, x)
			data = data[n:]
		}
		return out, nil
	}
	return nil, errBadWire
}
