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

// profSample is one decoded profile sample: its call stack as function
// names, leaf first with inlined frames expanded, its values in the order
// of the profile's sample types, and its pprof labels.
type profSample struct {
	frames []string
	values []int64
	labels map[string]string
}

// under reports whether fn is on the sample's stack.
func (s profSample) under(fn string) bool {
	for _, f := range s.frames {
		if f == fn {
			return true
		}
	}
	return false
}

// leafPkg is the package of the function the sample was taken in.
func (s profSample) leafPkg() string {
	if len(s.frames) == 0 {
		return ""
	}
	return pkgOf(s.frames[0])
}

// pkgOf returns the import path of a fully qualified Go function name, as
// runtime/pprof writes it ("iroram/internal/core.(*Controller).access",
// "crypto/md5.block", "runtime.mallocgc").
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes.
// It reads only what the benchmark folds: sample types, samples, locations,
// functions and the string table.
func parseProfile(data []byte) ([]string, []profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]uint64 // key, value string indices
	}
	var (
		strs      []string
		typeIdx   []uint64
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name string index
	)
	err = eachField(raw, func(field, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type = 1}
			return eachField(b, func(f, w int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample: {location_id = 1, value = 2, label = 3}
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					vs, err := varints(w, v, b)
					s.locs = append(s.locs, vs...)
					return err
				case 2:
					vs, err := varints(w, v, b)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
					return err
				case 3: // Label{key = 1, str = 2}
					var kv [2]uint64
					err := eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: {id = 1, line = 4: Line{function_id = 1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: {id = 1, name = 2}
			var id, name uint64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
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
		return nil, nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	types := make([]string, len(typeIdx))
	for i, t := range typeIdx {
		types[i] = str(t)
	}
	out := make([]profSample, len(samples))
	for i, s := range samples {
		ps := profSample{values: s.values}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.frames = append(ps.frames, str(funcNames[fn]))
			}
		}
		if len(s.labels) > 0 {
			ps.labels = make(map[string]string, len(s.labels))
			for _, kv := range s.labels {
				ps.labels[str(kv[0])] = str(kv[1])
			}
		}
		out[i] = ps
	}
	return types, out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited field.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field, which runtime/pprof writes
// either packed (wire type 2) or one varint per field.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
