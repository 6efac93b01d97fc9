package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// In-situ self time per layer comes from the Go CPU profiler: the traced
// run samples its own measured window and charges every sample to the
// layer (package) of the innermost frame that belongs to the program
// under test. That needs nothing inside the program and, unlike spans at
// the exported hook points, it sees the layers that have no hook — the
// event engine and the link model, where the simulated workloads spend
// most of their time.

// layerProfile is CPU time by layer over one profiled window.
type layerProfile struct {
	ns    map[string]int64 // layer -> sampled CPU nanoseconds
	total int64
}

// profileWindow runs fn under the CPU profiler and attributes the samples.
func profileWindow(fn func()) (*layerProfile, error) {
	var buf bytes.Buffer
	// The default 100 Hz, on purpose: a faster rate is silently capped by
	// the kernel's tick (250 Hz on the reference host) while every sample
	// is still billed at the requested period, which under-counts.
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return attributeProfile(buf.Bytes())
}

// layerOf maps a function name to the layer that owns it, or "" for code
// outside the repository (runtime, standard library).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "tango/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if pkg == "transport/udp" {
			return "udp"
		}
		if i := strings.IndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "tango/benchmark.") {
		return "benchmark"
	}
	return ""
}

// runtimeLayer classifies a stack with no repository frame at all.
func runtimeLayer(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.Contains(fn, "gcBgMarkWorker"), strings.Contains(fn, "gcDrain"),
			strings.Contains(fn, "bgsweep"), strings.Contains(fn, "bgscavenge"),
			strings.Contains(fn, "gcAssistAlloc"):
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

// attributeProfile parses a gzipped pprof CPU profile and sums the CPU
// value of each sample under its layer.
func attributeProfile(gz []byte) (*layerProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := &layerProfile{ns: map[string]int64{}}
	var stack []string
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu/nanoseconds is the last sample type
		stack = stack[:0]
		layer := ""
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				name := p.strings[p.funcName[fid]]
				stack = append(stack, name)
				if layer == "" {
					layer = layerOf(name)
				}
			}
		}
		if layer == "" {
			layer = runtimeLayer(stack)
		}
		out.ns[layer] += v
		out.total += v
	}
	return out, nil
}

// The rest of this file is the small part of the protobuf wire format and
// of pprof's profile.proto that the attribution needs; the standard
// library writes profiles but exports no reader.

type profSample struct {
	locs   []uint64
	values []int64
}

type profData struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = fmt.Errorf("cpu profile: varint overflow")
	return 0
}

func (r *pbReader) bytes() []byte {
	n := r.varint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// next reads one field header and returns its number, wire type and, for
// length-delimited fields, the payload; scalar fields return their value.
func (r *pbReader) next() (field int, wire int, scalar uint64, payload []byte) {
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		scalar = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = io.ErrUnexpectedEOF
			return
		}
		r.b = r.b[8:]
	case 2:
		payload = r.bytes()
	case 5:
		if len(r.b) < 4 {
			r.err = io.ErrUnexpectedEOF
			return
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("cpu profile: wire type %d", wire)
	}
	return
}

// repeatedVarints appends a repeated integer field, packed or not.
func repeatedVarints(dst []uint64, wire int, scalar uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, scalar), nil
	}
	r := pbReader{b: payload}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

func parseProfile(raw []byte) (*profData, error) {
	p := &profData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := pbReader{b: raw}
	for len(r.b) > 0 && r.err == nil {
		field, _, _, payload := r.next()
		switch field {
		case 2:
			s, err := parseSample(payload)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			id, funcs, err := parseLocation(payload)
			if err != nil {
				return nil, err
			}
			p.locFuncs[id] = funcs
		case 5:
			fr := pbReader{b: payload}
			var id uint64
			var name int64
			for len(fr.b) > 0 && fr.err == nil {
				f, _, v, _ := fr.next()
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			if fr.err != nil {
				return nil, fr.err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(payload))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, fmt.Errorf("cpu profile: function name index %d out of range", idx)
		}
	}
	return p, nil
}

func parseSample(b []byte) (profSample, error) {
	var s profSample
	r := pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		field, wire, v, payload := r.next()
		var err error
		switch field {
		case 1:
			s.locs, err = repeatedVarints(s.locs, wire, v, payload)
		case 2:
			var vals []uint64
			vals, err = repeatedVarints(nil, wire, v, payload)
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
		}
		if err != nil {
			return s, err
		}
	}
	return s, r.err
}

func parseLocation(b []byte) (id uint64, funcs []uint64, err error) {
	r := pbReader{b: b}
	for len(r.b) > 0 && r.err == nil {
		field, _, v, payload := r.next()
		switch field {
		case 1:
			id = v
		case 4:
			lr := pbReader{b: payload}
			for len(lr.b) > 0 && lr.err == nil {
				f, _, lv, _ := lr.next()
				if f == 1 {
					funcs = append(funcs, lv)
				}
			}
			if lr.err != nil {
				return 0, nil, lr.err
			}
		}
	}
	return id, funcs, r.err
}
