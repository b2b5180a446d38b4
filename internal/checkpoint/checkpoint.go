// Package checkpoint defines the versioned, deterministic binary
// encoding used to serialize simulator state. A checkpoint blob is a
// sequence of named, individually-versioned sections, each protected by
// a CRC-64 checksum recorded in a manifest, so a resumed run can detect
// truncation and corruption before touching any simulator state.
//
// The encoding is deliberately primitive: fixed-width little-endian
// integers, IEEE-754 bit patterns for floats, and length-prefixed
// byte strings. There is no reflection and no schema negotiation —
// every layer writes its durable fields in a fixed order and reads them
// back in the same order, which is exactly the determinism contract the
// rest of the repository already lives by (DESIGN.md §7). Scratch state
// (pooled buffers, per-epoch accumulators that are empty at epoch
// boundaries, rebuildable indices) is never serialized; each layer's
// Restore reconstructs it.
//
// Decoders never panic on malformed input: every read is bounds-checked
// and the first failure latches a sticky error that all later reads
// observe. Writers compose sections through an Encoder; readers verify
// the manifest eagerly in NewReader and hand out per-section Decoders.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
)

// Magic identifies a checkpoint blob; Version is the container format
// version (sections carry their own versions on top).
const (
	Magic   = "VLCNCKPT"
	Version = 1
)

// maxSectionName bounds section-name lengths so a corrupt length prefix
// cannot drive a huge allocation.
const maxSectionName = 256

// crcTable is the ECMA polynomial table shared by writer and reader.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Snapshotter is the uniform per-layer contract: Snapshot appends the
// type's durable state to e; Restore reads it back in the same order,
// mutating the receiver in place (so aliases held by other layers stay
// wired). Restore returns the decoder's sticky error, if any.
type Snapshotter interface {
	Snapshot(e *Encoder)
	Restore(d *Decoder) error
}

// Encoder appends fixed-width little-endian primitives to a buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends the IEEE-754 bit pattern of v. NaN payloads and signed
// zeros round-trip exactly, which the byte-identity contract requires.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes64 appends a length-prefixed byte string.
func (e *Encoder) Bytes64(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads primitives back in write order. The first malformed
// read latches a sticky error; all subsequent reads return zero values.
// Construct with NewDecoder or Reader.Section.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for reading.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the sticky decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) || d.off+n < d.off {
		d.fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded with Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool; any byte other than 0 or 1 is an error.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool byte at offset %d", d.off-1)
		return false
	}
}

// Bytes64 reads a length-prefixed byte string. The returned slice
// aliases the decoder's buffer; callers that retain it must copy.
func (d *Decoder) Bytes64() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("byte string of %d exceeds remaining %d", n, d.Remaining())
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes64()) }

// Length reads a count written with Encoder.Int and validates it as a
// collection length: non-negative and no larger than the remaining
// payload divided by elemBytes (the minimum encoded size of one
// element), so corrupt counts fail instead of driving huge allocations.
func (d *Decoder) Length(elemBytes int) int {
	n := d.I64()
	if d.err != nil {
		return 0
	}
	if n < 0 {
		d.fail("negative length %d", n)
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if n > int64(d.Remaining()/elemBytes) {
		d.fail("length %d exceeds remaining payload (%d bytes)", n, d.Remaining())
		return 0
	}
	return int(n)
}

// section is one named unit of a checkpoint blob.
type section struct {
	name    string
	version uint32
	enc     *Encoder
}

// Writer composes named sections into one checkpoint blob.
type Writer struct {
	sections []*section
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Section starts a new section and returns its encoder. Section names
// must be unique within a blob; a duplicate panics (writer-side bug,
// not input corruption).
func (w *Writer) Section(name string, version uint32) *Encoder {
	if name == "" || len(name) > maxSectionName {
		panic(fmt.Sprintf("checkpoint: bad section name %q", name))
	}
	for _, s := range w.sections {
		if s.name == name {
			panic(fmt.Sprintf("checkpoint: duplicate section %q", name))
		}
	}
	s := &section{name: name, version: version, enc: &Encoder{}}
	w.sections = append(w.sections, s)
	return s.enc
}

// WriteTo serializes the blob: header, section count, then each
// section as (name, version, payload length, payload, CRC-64). The
// inline (name, version, length, checksum) tuples are the manifest.
// WriteTo implements io.WriterTo. A trailing CRC-64 over the whole
// body protects the manifest itself (names, versions, lengths) — the
// per-section checksums only cover payloads.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var e Encoder
	e.buf = append(e.buf, Magic...)
	e.U32(Version)
	e.U32(uint32(len(w.sections)))
	for _, s := range w.sections {
		e.String(s.name)
		e.U32(s.version)
		e.Bytes64(s.enc.buf)
		e.U64(crc64.Checksum(s.enc.buf, crcTable))
	}
	e.U64(crc64.Checksum(e.buf, crcTable))
	n, err := out.Write(e.buf)
	return int64(n), err
}

// Reader parses a checkpoint blob, verifying the container version and
// every section checksum up front.
type Reader struct {
	payloads map[string][]byte
	versions map[string]uint32
}

// NewReader reads the whole blob from r and validates it: magic, the
// whole-body checksum, the container version, then every section
// checksum.
func NewReader(r io.Reader) (*Reader, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading blob: %w", err)
	}
	if len(blob) < len(Magic)+8 || string(blob[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic (not a checkpoint blob)")
	}
	body, trailer := blob[:len(blob)-8], blob[len(blob)-8:]
	if crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(trailer) {
		return nil, fmt.Errorf("checkpoint: body checksum mismatch (corrupt or truncated blob)")
	}
	d := NewDecoder(body)
	d.take(len(Magic))
	if v := d.U32(); d.err == nil && v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported format version %d (want %d)", v, Version)
	}
	n := d.U32()
	if d.err == nil && uint64(n) > uint64(d.Remaining()) {
		d.fail("section count %d exceeds blob size", n)
	}
	rd := &Reader{
		payloads: make(map[string][]byte),
		versions: make(map[string]uint32),
	}
	for i := 0; d.err == nil && i < int(n); i++ {
		nameLen := d.U64()
		if d.err == nil && nameLen > maxSectionName {
			d.fail("section name length %d exceeds limit", nameLen)
			break
		}
		name := string(d.take(int(nameLen)))
		version := d.U32()
		payload := d.Bytes64()
		sum := d.U64()
		if d.err != nil {
			break
		}
		if _, dup := rd.payloads[name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate section %q", name)
		}
		if got := crc64.Checksum(payload, crcTable); got != sum {
			return nil, fmt.Errorf("checkpoint: section %q checksum mismatch (corrupt blob)", name)
		}
		rd.payloads[name] = payload
		rd.versions[name] = version
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after last section", d.Remaining())
	}
	return rd, nil
}

// Has reports whether the blob contains a section.
func (r *Reader) Has(name string) bool {
	_, ok := r.payloads[name]
	return ok
}

// Section returns a decoder over the named section's payload. It errors
// when the section is missing or its recorded version differs from
// want: sections are versioned independently so a layer can evolve its
// encoding without invalidating every other layer's.
func (r *Reader) Section(name string, want uint32) (*Decoder, error) {
	p, ok := r.payloads[name]
	if !ok {
		return nil, fmt.Errorf("checkpoint: missing section %q", name)
	}
	if v := r.versions[name]; v != want {
		return nil, fmt.Errorf("checkpoint: section %q version %d (want %d)", name, v, want)
	}
	return NewDecoder(p), nil
}

// Close verifies a fully-consumed section: a Restore that leaves
// unread bytes (or hit a sticky error) indicates an encode/decode
// mismatch and must not be trusted.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("checkpoint: %d unread bytes at section end", d.Remaining())
	}
	return nil
}
