// Package binio provides sticky-error little-endian binary encoding with
// running CRC-32 checksums, used by the table and cube persistence
// formats. Writers and readers carry the first error; callers check once
// at the end instead of after every field.
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// MaxStringLen bounds length-prefixed strings, as a corruption guard.
const MaxStringLen = 1 << 20

// Writer encodes values to an underlying io.Writer.
type Writer struct {
	w   *bufio.Writer
	crc hash.Hash32
	err error
	buf [8]byte
	n   int64
	// str is String's scratch copy: the CRC and the buffered writer take
	// byte slices, and reusing one buffer keeps each string allocation-free.
	str []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), crc: crc32.NewIEEE()}
}

// Err returns the first write error.
func (w *Writer) Err() error { return w.err }

// Written returns bytes written so far (pre-flush accounting).
func (w *Writer) Written() int64 { return w.n }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(p); err != nil {
		w.err = err
		return
	}
	w.crc.Write(p)
	w.n += int64(len(p))
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf[0] = v; w.write(w.buf[:1]) }

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) { binary.LittleEndian.PutUint16(w.buf[:2], v); w.write(w.buf[:2]) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { binary.LittleEndian.PutUint32(w.buf[:4], v); w.write(w.buf[:4]) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { binary.LittleEndian.PutUint64(w.buf[:8], v); w.write(w.buf[:8]) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes an IEEE-754 float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	if len(s) > MaxStringLen {
		w.fail(fmt.Errorf("binio: string of %d bytes exceeds limit", len(s)))
		return
	}
	w.U32(uint32(len(s)))
	w.str = append(w.str[:0], s...)
	w.write(w.str)
}

// U32s writes a uint32 slice (length-prefixed).
func (w *Writer) U32s(v []uint32) {
	w.U64(uint64(len(v)))
	for _, x := range v {
		w.U32(x)
	}
}

// F64s writes a float64 slice (length-prefixed).
func (w *Writer) F64s(v []float64) {
	w.U64(uint64(len(v)))
	for _, x := range v {
		w.F64(x)
	}
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Sum writes the running CRC-32 and flushes. Call exactly once, last.
func (w *Writer) Sum() error {
	if w.err != nil {
		return w.err
	}
	sum := w.crc.Sum32()
	binary.LittleEndian.PutUint32(w.buf[:4], sum)
	if _, err := w.w.Write(w.buf[:4]); err != nil {
		w.err = err
		return err
	}
	return w.w.Flush()
}

// Reader decodes values written by Writer.
type Reader struct {
	r   *bufio.Reader
	crc hash.Hash32
	err error
	buf [8]byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16), crc: crc32.NewIEEE()}
}

// Err returns the first read error.
func (r *Reader) Err() error { return r.err }

func (r *Reader) read(p []byte) {
	if r.err != nil {
		for i := range p {
			p[i] = 0
		}
		return
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		r.err = fmt.Errorf("binio: short read: %w", err)
		for i := range p {
			p[i] = 0
		}
		return
	}
	r.crc.Write(p)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { r.read(r.buf[:1]); return r.buf[0] }

// U16 reads a uint16.
func (r *Reader) U16() uint16 { r.read(r.buf[:2]); return binary.LittleEndian.Uint16(r.buf[:2]) }

// U32 reads a uint32.
func (r *Reader) U32() uint32 { r.read(r.buf[:4]); return binary.LittleEndian.Uint32(r.buf[:4]) }

// U64 reads a uint64.
func (r *Reader) U64() uint64 { r.read(r.buf[:8]); return binary.LittleEndian.Uint64(r.buf[:8]) }

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	if n > MaxStringLen {
		r.fail(fmt.Errorf("binio: string length %d exceeds limit", n))
		return ""
	}
	p := make([]byte, n)
	r.read(p)
	return string(p)
}

// Len reads a length prefix bounded by max (corruption guard).
func (r *Reader) Len(max int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(max) {
		r.fail(fmt.Errorf("binio: length %d exceeds limit %d", n, max))
		return 0
	}
	return int(n)
}

// U32s reads a uint32 slice bounded by max elements.
func (r *Reader) U32s(max int) []uint32 {
	n := r.Len(max)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.U32()
	}
	return out
}

// F64s reads a float64 slice bounded by max elements.
func (r *Reader) F64s(max int) []float64 {
	n := r.Len(max)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// CheckSum reads the trailing CRC-32 and verifies it against everything
// decoded so far. Call exactly once, last.
func (r *Reader) CheckSum() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc.Sum32()
	var p [4]byte
	if _, err := io.ReadFull(r.r, p[:]); err != nil {
		return fmt.Errorf("binio: reading checksum: %w", err)
	}
	got := binary.LittleEndian.Uint32(p[:])
	if got != want {
		return fmt.Errorf("binio: checksum mismatch: file %08x, computed %08x", got, want)
	}
	return nil
}
