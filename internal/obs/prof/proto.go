// pprof profile.proto decoder, hand-rolled so the repo stays free of
// module dependencies. It reads what the attribution, folded and diff
// reports read: sample types, samples with location stacks and string
// labels, locations with (possibly inlined) lines, functions and the
// string table. Every other field (mappings, addresses, numeric
// labels, the period and time scalars) is skipped like an unknown
// one — attribution works on symbolized frames, which Go profiles
// always carry. Writing and merging profile files is `go tool
// pprof`'s job.
//
// Like internal/wire, the reader is sticky: the first malformed byte
// latches an error and every later read is a cheap no-op, so decode
// paths need exactly one error check. Unlike internal/wire this is
// standard protobuf, so non-canonical varints are accepted (other
// writers may emit them).
package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
)

// maxDecompressedBytes bounds gunzip output so a tiny malicious input
// cannot balloon into unbounded memory (the fuzz target feeds the
// decoder arbitrary bytes).
const maxDecompressedBytes = 64 << 20

// ValueType names one sample dimension, e.g. {cpu, nanoseconds}.
type ValueType struct {
	Type string
	Unit string
}

// Frame is one resolved stack entry. Inlined calls expand to one
// frame per line record, innermost first.
type Frame struct {
	Function string
	File     string
	Line     int64
}

// Label is one string label of a sample, e.g. {rank, 3}.
type Label struct {
	Key string
	Str string
}

// Sample is one profile record: a leaf-first stack, one value per
// sample type, and its string labels in the order the file lists them.
type Sample struct {
	Stack  []Frame
	Values []int64
	Labels []Label
}

// Label returns the sample's string label for key ("" if absent).
func (s *Sample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Str
		}
	}
	return ""
}

// Profile is a decoded pprof profile with every ID indirection
// resolved: samples reference frames and strings directly.
type Profile struct {
	SampleTypes []ValueType
	Samples     []Sample
}

// ValueIndex returns the index of the sample type named typ, or -1.
func (p *Profile) ValueIndex(typ string) int {
	for i, st := range p.SampleTypes {
		if st.Type == typ {
			return i
		}
	}
	return -1
}

// valueIndex is ValueIndex falling back to the last sample type
// (pprof's default) when none is named typ; -1 only for a profile with
// no sample types.
func (p *Profile) valueIndex(typ string) int {
	if i := p.ValueIndex(typ); i >= 0 {
		return i
	}
	return len(p.SampleTypes) - 1
}

// protobuf wire types (the only ones protobuf defines that matter
// here; groups are obsolete and rejected).
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// reader is a sticky-error protobuf wire walker over one message's
// bytes. Every method is safe to call after a failure; the first
// malformed byte exhausts the buffer so loops terminate.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("prof: "+format, args...)
	}
	r.off = len(r.b)
}

func (r *reader) more() bool { return r.err == nil && r.off < len(r.b) }

// varint reads one base-128 varint (up to 10 bytes, as protobuf
// allows for negative int64s).
func (r *reader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.off >= len(r.b) {
			r.fail("truncated varint")
			return 0
		}
		c := r.b[r.off]
		r.off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			if shift == 63 && c > 1 {
				r.fail("varint overflows uint64")
				return 0
			}
			return v
		}
	}
	r.fail("varint longer than 10 bytes")
	return 0
}

func (r *reader) int64() int64 { return int64(r.varint()) }

// tag reads one field tag, returning (fieldNumber, wireType).
func (r *reader) tag() (int, int) {
	v := r.varint()
	field, wire := int(v>>3), int(v&7)
	if r.err == nil && field == 0 {
		r.fail("field number 0")
	}
	return field, wire
}

// bytesField reads one length-delimited payload, bounds-checked
// against the remaining buffer (the same overflow-safe comparison
// internal/wire uses).
func (r *reader) bytesField() []byte {
	n := int(r.varint())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("length %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// skip advances past one field of the given wire type.
func (r *reader) skip(wire int) {
	switch wire {
	case wireVarint:
		r.varint()
	case wireFixed64:
		if len(r.b)-r.off < 8 {
			r.fail("truncated fixed64")
			return
		}
		r.off += 8
	case wireBytes:
		r.bytesField()
	case wireFixed32:
		if len(r.b)-r.off < 4 {
			r.fail("truncated fixed32")
			return
		}
		r.off += 4
	default:
		r.fail("unsupported wire type %d", wire)
	}
}

// packedInt64s decodes field contents that may be packed (wire type
// 2) or a single varint (wire type 0), appending to dst.
func (r *reader) packedInt64s(wire int, dst []int64) []int64 {
	if wire == wireVarint {
		return append(dst, r.int64())
	}
	if wire != wireBytes {
		r.fail("repeated int64 field has wire type %d", wire)
		return dst
	}
	p := &reader{b: r.bytesField()}
	if r.err != nil {
		return dst
	}
	for p.more() {
		dst = append(dst, p.int64())
	}
	if p.err != nil {
		r.fail("packed int64s: %v", p.err)
	}
	return dst
}

func (r *reader) packedUint64s(wire int, dst []uint64) []uint64 {
	if wire == wireVarint {
		return append(dst, r.varint())
	}
	if wire != wireBytes {
		r.fail("repeated uint64 field has wire type %d", wire)
		return dst
	}
	p := &reader{b: r.bytesField()}
	if r.err != nil {
		return dst
	}
	for p.more() {
		dst = append(dst, p.varint())
	}
	if p.err != nil {
		r.fail("packed uint64s: %v", p.err)
	}
	return dst
}

// Raw (unresolved) message forms — IDs and string-table indices are
// resolved only after the whole top-level walk, because protobuf
// fields may arrive in any order (Go writes the string table last).
type rawValueType struct{ typ, unit int64 }

type rawLabel struct{ key, str int64 }

type rawSample struct {
	locs   []uint64
	vals   []int64
	labels []rawLabel
}

type rawLine struct {
	fn   uint64
	line int64
}

type rawLocation struct {
	id    uint64
	lines []rawLine
}

type rawFunction struct {
	id         uint64
	name, file int64
}

func parseValueType(b []byte) (rawValueType, error) {
	r := &reader{b: b}
	var vt rawValueType
	for r.more() {
		field, wire := r.tag()
		switch field {
		case 1:
			vt.typ = r.int64()
		case 2:
			vt.unit = r.int64()
		default:
			r.skip(wire)
		}
	}
	return vt, r.err
}

func parseLabel(b []byte) (rawLabel, error) {
	r := &reader{b: b}
	var l rawLabel
	for r.more() {
		field, wire := r.tag()
		switch field {
		case 1:
			l.key = r.int64()
		case 2:
			l.str = r.int64()
		default:
			r.skip(wire)
		}
	}
	return l, r.err
}

func parseSample(b []byte) (rawSample, error) {
	r := &reader{b: b}
	var s rawSample
	for r.more() {
		field, wire := r.tag()
		switch field {
		case 1:
			s.locs = r.packedUint64s(wire, s.locs)
		case 2:
			s.vals = r.packedInt64s(wire, s.vals)
		case 3:
			lb := r.bytesField()
			if r.err == nil {
				l, err := parseLabel(lb)
				if err != nil {
					return s, err
				}
				s.labels = append(s.labels, l)
			}
		default:
			r.skip(wire)
		}
	}
	return s, r.err
}

func parseLine(b []byte) (rawLine, error) {
	r := &reader{b: b}
	var ln rawLine
	for r.more() {
		field, wire := r.tag()
		switch field {
		case 1:
			ln.fn = r.varint()
		case 2:
			ln.line = r.int64()
		default:
			r.skip(wire)
		}
	}
	return ln, r.err
}

func parseLocation(b []byte) (rawLocation, error) {
	r := &reader{b: b}
	var loc rawLocation
	for r.more() {
		field, wire := r.tag()
		switch field {
		case 1:
			loc.id = r.varint()
		case 4:
			lb := r.bytesField()
			if r.err == nil {
				ln, err := parseLine(lb)
				if err != nil {
					return loc, err
				}
				loc.lines = append(loc.lines, ln)
			}
		default:
			r.skip(wire)
		}
	}
	return loc, r.err
}

func parseFunction(b []byte) (rawFunction, error) {
	r := &reader{b: b}
	var fn rawFunction
	for r.more() {
		field, wire := r.tag()
		switch field {
		case 1:
			fn.id = r.varint()
		case 2:
			fn.name = r.int64()
		case 4:
			fn.file = r.int64()
		default:
			r.skip(wire)
		}
	}
	return fn, r.err
}

// Parse decodes one pprof profile, transparently gunzipping (every
// profile the Go runtime writes is gzip-wrapped).
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, maxDecompressedBytes+1))
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		if len(raw) > maxDecompressedBytes {
			return nil, fmt.Errorf("prof: decompressed profile exceeds %d bytes", maxDecompressedBytes)
		}
		data = raw
	}
	return parseUncompressed(data)
}

// ParseFile reads and decodes one .pb.gz artifact.
func ParseFile(path string) (*Profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func parseUncompressed(data []byte) (*Profile, error) {
	r := &reader{b: data}
	var (
		sampleTypes []rawValueType
		samples     []rawSample
		locations   = map[uint64][]rawLine{}
		functions   = map[uint64]rawFunction{}
		strtab      []string
		p           = &Profile{}
	)
	for r.more() {
		field, wire := r.tag()
		switch field {
		case 1: // sample_type
			b := r.bytesField()
			if r.err == nil {
				vt, err := parseValueType(b)
				if err != nil {
					return nil, err
				}
				sampleTypes = append(sampleTypes, vt)
			}
		case 2: // sample
			b := r.bytesField()
			if r.err == nil {
				s, err := parseSample(b)
				if err != nil {
					return nil, err
				}
				samples = append(samples, s)
			}
		case 4: // location
			b := r.bytesField()
			if r.err == nil {
				loc, err := parseLocation(b)
				if err != nil {
					return nil, err
				}
				if _, dup := locations[loc.id]; dup {
					return nil, fmt.Errorf("prof: duplicate location id %d", loc.id)
				}
				locations[loc.id] = loc.lines
			}
		case 5: // function
			b := r.bytesField()
			if r.err == nil {
				fn, err := parseFunction(b)
				if err != nil {
					return nil, err
				}
				if _, dup := functions[fn.id]; dup {
					return nil, fmt.Errorf("prof: duplicate function id %d", fn.id)
				}
				functions[fn.id] = fn
			}
		case 6: // string_table
			b := r.bytesField()
			if r.err == nil {
				strtab = append(strtab, string(b))
			}
		default:
			r.skip(wire)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	// Every profile the runtime writes names its sample types; an empty
	// message is what a SIGKILLed CPU stream leaves (runtime/pprof
	// writes the whole profile only at StopCPUProfile).
	if len(sampleTypes) == 0 {
		return nil, fmt.Errorf("prof: profile has no sample types")
	}
	if len(strtab) > 0 && strtab[0] != "" {
		return nil, fmt.Errorf("prof: string table must start with the empty string")
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strtab)) {
			if i == 0 {
				return "", nil // empty table, index 0: the empty string
			}
			return "", fmt.Errorf("prof: string index %d outside table of %d", i, len(strtab))
		}
		return strtab[i], nil
	}
	for _, vt := range sampleTypes {
		t, err := str(vt.typ)
		if err != nil {
			return nil, err
		}
		u, err := str(vt.unit)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: t, Unit: u})
	}

	// Resolve each unique frame once; stacks share the Frame values.
	frames := map[uint64][]Frame{}
	for id, lines := range locations {
		fs := make([]Frame, 0, len(lines))
		for _, ln := range lines {
			fn, ok := functions[ln.fn]
			if !ok && ln.fn != 0 {
				return nil, fmt.Errorf("prof: line references unknown function %d", ln.fn)
			}
			name, err := str(fn.name)
			if err != nil {
				return nil, err
			}
			file, err := str(fn.file)
			if err != nil {
				return nil, err
			}
			fs = append(fs, Frame{Function: name, File: file, Line: ln.line})
		}
		frames[id] = fs
	}

	for _, rs := range samples {
		if len(rs.vals) != len(p.SampleTypes) {
			return nil, fmt.Errorf("prof: sample has %d values, profile has %d sample types", len(rs.vals), len(p.SampleTypes))
		}
		s := Sample{Values: rs.vals}
		for _, id := range rs.locs {
			fs, ok := frames[id]
			if !ok {
				return nil, fmt.Errorf("prof: sample references unknown location %d", id)
			}
			s.Stack = append(s.Stack, fs...)
		}
		for _, rl := range rs.labels {
			if rl.str == 0 {
				continue // a numeric label, or an empty string value
			}
			key, err := str(rl.key)
			if err != nil {
				return nil, err
			}
			sv, err := str(rl.str)
			if err != nil {
				return nil, err
			}
			s.Labels = append(s.Labels, Label{Key: key, Str: sv})
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}
