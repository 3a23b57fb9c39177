package main

// CPU-profile attribution: a minimal reader for the gzip-compressed
// profile.proto that runtime/pprof writes, and the grouping of each
// sample's self (leaf) function into one simulator layer. The reader
// decodes only the fields attribution needs (samples, locations,
// functions, the string table), so the benchmark needs no module
// outside the standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers lists every attribution bucket. Each sample lands in exactly
// one of them, so their shares sum to 1.
var layers = []string{
	"sim", "cpu", "workload", "cache", "noc", "memctrl", "dram",
	"system", "experiments", "parallel", "runtime", "other",
}

// simLayers maps microbank/internal/<pkg> to its layer. addr is the
// controller's address decoder, so it counts as controller work.
var simLayers = map[string]string{
	"sim": "sim", "cpu": "cpu", "workload": "workload", "cache": "cache",
	"noc": "noc", "memctrl": "memctrl", "addr": "memctrl", "dram": "dram",
	"system": "system", "experiments": "experiments", "parallel": "parallel",
}

// funcPackage returns the import path of the package that defines the
// named function, e.g. "math/rand" for "math/rand.(*Rand).Int63". Type
// arguments of generic functions may contain dots and slashes, so the
// path is read only from the part of the name before the first '['.
func funcPackage(name string) string {
	head := name
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

// layerOf maps a package import path to its attribution layer. The
// synthetic workload generators draw from math/rand, so that package
// counts as workload time.
func layerOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math/rand":
		return "workload"
	case strings.HasPrefix(pkg, "microbank/internal/"):
		elem, _, _ := strings.Cut(strings.TrimPrefix(pkg, "microbank/internal/"), "/")
		if l, ok := simLayers[elem]; ok {
			return l
		}
	}
	return "other"
}

// profileShares parses a gzip-compressed CPU profile and returns each
// layer's share of self CPU time, plus the number of samples read. Every
// layer in layers appears in the map.
func profileShares(gz []byte) (map[string]float64, int, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := "other"
		if fn, ok := p.leafFunc(s.loc); ok {
			layer = layerOf(funcPackage(fn))
		}
		byLayer[layer] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(byLayer[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, len(p.samples), nil
}

type sample struct {
	loc   uint64 // leaf location id
	value int64  // CPU nanoseconds (or the sample count if absent)
}

type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string-table index
	strings  []string
}

// leafFunc returns the name of the innermost function at a location.
// With inlining a location lists several lines; the first is the
// inlined callee where the sample was taken.
func (p *profile) leafFunc(loc uint64) (string, bool) {
	fid, ok := p.locFunc[loc]
	if !ok {
		return "", false
	}
	si, ok := p.funcName[fid]
	if !ok || si < 0 || si >= int64(len(p.strings)) {
		return "", false
	}
	return p.strings[si], true
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2:
			return p.addSample(b)
		case num == 4 && wire == 2:
			return p.addLocation(b)
		case num == 5 && wire == 2:
			return p.addFunction(b)
		case num == 6 && wire == 2:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	return p, nil
}

func (p *profile) addSample(b []byte) error {
	var locs []uint64
	var vals []int64
	err := fields(b, func(num, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			return packed(wire, v, sub, func(x uint64) { locs = append(locs, x) })
		case 2:
			return packed(wire, v, sub, func(x uint64) { vals = append(vals, int64(x)) })
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(locs) == 0 || len(vals) == 0 {
		return nil
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds].
	p.samples = append(p.samples, sample{loc: locs[0], value: vals[len(vals)-1]})
	return nil
}

func (p *profile) addLocation(b []byte) error {
	var id, fn uint64
	haveLine := false
	err := fields(b, func(num, wire int, v uint64, sub []byte) error {
		switch {
		case num == 1 && wire == 0:
			id = v
		case num == 4 && wire == 2 && !haveLine:
			haveLine = true
			return fields(sub, func(n, w int, x uint64, _ []byte) error {
				if n == 1 && w == 0 {
					fn = x
				}
				return nil
			})
		}
		return nil
	})
	if err == nil && haveLine {
		p.locFunc[id] = fn
	}
	return err
}

func (p *profile) addFunction(b []byte) error {
	var id uint64
	var name int64
	err := fields(b, func(num, wire int, v uint64, _ []byte) error {
		if wire == 0 {
			switch num {
			case 1:
				id = v
			case 2:
				name = int64(v)
			}
		}
		return nil
	})
	if err == nil {
		p.funcName[id] = name
	}
	return err
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the top-level fields of one protobuf message, handing
// varints as v and length-delimited payloads as b.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// packed delivers a repeated scalar field written either packed (one
// length-delimited run of varints) or as a single varint.
func packed(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
