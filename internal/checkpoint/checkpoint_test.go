package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"strings"
	"testing"
)

// buildBlob writes a two-section blob used by the decode tests.
func buildBlob(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	e := w.Section("alpha", 1)
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-42)
	e.F64(math.Pi)
	e.Bool(true)
	e.String("hello")
	e.Bytes64([]byte{1, 2, 3})
	e2 := w.Section("beta", 3)
	e2.Int(12345)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	blob := buildBlob(t)
	r, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if !r.Has("alpha") || !r.Has("beta") || r.Has("gamma") {
		t.Fatal("Has() wrong")
	}
	d, err := r.Section("alpha", 1)
	if err != nil {
		t.Fatalf("Section alpha: %v", err)
	}
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.Bool(); got != true {
		t.Errorf("Bool = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes64(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes64 = %v", got)
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	d2, err := r.Section("beta", 3)
	if err != nil {
		t.Fatalf("Section beta: %v", err)
	}
	if got := d2.Int(); got != 12345 {
		t.Errorf("Int = %d", got)
	}
	if err := d2.Close(); err != nil {
		t.Errorf("Close beta: %v", err)
	}
}

func TestFloatBitPatternsRoundTrip(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-308}
	var e Encoder
	for _, v := range vals {
		e.F64(v)
	}
	d := NewDecoder(e.Bytes())
	for i, want := range vals {
		got := d.F64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("val %d: bits %#x != %#x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
}

func TestSectionVersionMismatch(t *testing.T) {
	blob := buildBlob(t)
	r, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := r.Section("alpha", 2); err == nil {
		t.Fatal("version mismatch not detected")
	}
	if _, err := r.Section("missing", 1); err == nil {
		t.Fatal("missing section not detected")
	}
}

func TestBadMagic(t *testing.T) {
	blob := buildBlob(t)
	blob[0] ^= 0xff
	if _, err := NewReader(bytes.NewReader(blob)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWrongContainerVersion(t *testing.T) {
	blob := buildBlob(t)
	// Patch the container version (the u32 right after the magic) and
	// recompute the body checksum, simulating a well-formed blob from a
	// future format.
	blob[len(Magic)] = 99
	body := blob[:len(blob)-8]
	binary.LittleEndian.PutUint64(blob[len(blob)-8:], crc64.Checksum(body, crcTable))
	_, err := NewReader(bytes.NewReader(blob))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version not detected: %v", err)
	}
}

// TestTruncationNeverPanics feeds every prefix of a valid blob to the
// reader: each must error or parse, never panic.
func TestTruncationNeverPanics(t *testing.T) {
	blob := buildBlob(t)
	for n := 0; n < len(blob); n++ {
		if _, err := NewReader(bytes.NewReader(blob[:n])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", n, len(blob))
		}
	}
}

// TestCorruptionDetected flips each byte of the blob in turn; every
// mutant must be rejected (checksum, magic, or structural error) —
// and none may panic.
func TestCorruptionDetected(t *testing.T) {
	blob := buildBlob(t)
	for i := range blob {
		mut := bytes.Clone(blob)
		mut[i] ^= 0x5a
		if _, err := NewReader(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

func TestDecoderStickyError(t *testing.T) {
	var e Encoder
	e.U32(5)
	d := NewDecoder(e.Bytes())
	_ = d.U64() // needs 8 bytes, only 4 available
	if d.Err() == nil {
		t.Fatal("truncated read not detected")
	}
	// All subsequent reads observe the sticky error and return zeros.
	if got := d.U32(); got != 0 {
		t.Errorf("post-error U32 = %d", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("post-error String = %q", got)
	}
	if err := d.Close(); err == nil {
		t.Error("Close after error returned nil")
	}
}

func TestBadBoolByte(t *testing.T) {
	d := NewDecoder([]byte{2})
	_ = d.Bool()
	if d.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestLengthGuards(t *testing.T) {
	var e Encoder
	e.Int(-1)
	d := NewDecoder(e.Bytes())
	if n := d.Length(1); n != 0 || d.Err() == nil {
		t.Fatalf("negative length accepted: n=%d err=%v", n, d.Err())
	}

	var e2 Encoder
	e2.Int(1 << 40) // absurd element count for an empty payload
	d2 := NewDecoder(e2.Bytes())
	if n := d2.Length(8); n != 0 || d2.Err() == nil {
		t.Fatalf("oversized length accepted: n=%d err=%v", n, d2.Err())
	}
}

func TestCloseDetectsUnreadBytes(t *testing.T) {
	var e Encoder
	e.U64(1)
	e.U64(2)
	d := NewDecoder(e.Bytes())
	_ = d.U64()
	if err := d.Close(); err == nil {
		t.Fatal("unread trailing bytes accepted")
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	blob := append(buildBlob(t), 0xab)
	if _, err := NewReader(bytes.NewReader(blob)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDuplicateSectionPanicsOnWrite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate section name did not panic")
		}
	}()
	w := NewWriter()
	w.Section("x", 1)
	w.Section("x", 1)
}
