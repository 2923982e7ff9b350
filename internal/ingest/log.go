// Package ingest is the streaming write path of the hybrid OLAP system:
// row batches arrive with typed measures and raw text dimension values,
// land in a crash-recoverable binary append log, are materialized into
// immutable delta stripes against the live append-only dictionaries, and
// become visible atomically under the table registry's epoch protocol. A
// background compactor folds accumulated delta stripes into base-format
// stripes, pacing itself through the scheduler's CPU partition queue so
// query placement stays honest while maintenance runs.
package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"hybridolap/internal/binio"
	"hybridolap/internal/table"
)

// Batch is one ingested set of rows. Rows use the offline builder's tuple
// shape: finest-level integer coordinates per dimension, one float per
// measure, one raw string per text column.
type Batch struct {
	Rows []table.Row
}

// maxBatchColumns bounds per-row column counts during WAL decode, purely
// as a corruption guard (no real schema approaches it).
const maxBatchColumns = 1 << 10

// maxBatchRows bounds a single WAL record's row count during decode.
const maxBatchRows = 1 << 24

// encodeBatch marshals a batch as one self-contained binio payload with
// its own trailing CRC-32. Coordinates are written in place in U32s'
// layout and the buffer is sized up front, so the cost per row is writes,
// not allocations.
func encodeBatch(b *Batch) ([]byte, error) {
	size := 8 + 4 // row count, CRC
	for i := range b.Rows {
		r := &b.Rows[i]
		size += 8 + 4*len(r.Coords) + 8 + 8*len(r.Measures) + 8
		for _, s := range r.Texts {
			size += 4 + len(s)
		}
	}
	var buf bytes.Buffer
	buf.Grow(size)
	w := binio.NewWriter(&buf)
	w.U64(uint64(len(b.Rows)))
	for i := range b.Rows {
		r := &b.Rows[i]
		w.U64(uint64(len(r.Coords)))
		for _, c := range r.Coords {
			if c < 0 {
				return nil, fmt.Errorf("ingest: negative coordinate %d", c)
			}
			w.U32(uint32(c))
		}
		w.F64s(r.Measures)
		w.U64(uint64(len(r.Texts)))
		for _, s := range r.Texts {
			w.String(s)
		}
	}
	if err := w.Sum(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeBatch unmarshals one WAL payload, verifying its CRC.
func decodeBatch(p []byte) (*Batch, error) {
	r := binio.NewReader(bytes.NewReader(p))
	n := r.Len(maxBatchRows)
	b := &Batch{Rows: make([]table.Row, 0, n)}
	for i := 0; i < n && r.Err() == nil; i++ {
		var row table.Row
		coords := r.U32s(maxBatchColumns)
		row.Coords = make([]int, len(coords))
		for d, c := range coords {
			row.Coords[d] = int(c)
		}
		row.Measures = r.F64s(maxBatchColumns)
		nt := r.Len(maxBatchColumns)
		for t := 0; t < nt && r.Err() == nil; t++ {
			row.Texts = append(row.Texts, r.String())
		}
		b.Rows = append(b.Rows, row)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := r.CheckSum(); err != nil {
		return nil, err
	}
	return b, nil
}

// Log is the write-ahead append log: length-prefixed framed records, each
// a self-contained checksummed batch. Appends are serialised; a torn or
// corrupted tail (a crash mid-write) is detected on open, truncated away,
// and every intact prefix record is replayed.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	records int64
	bytes   int64
	closed  bool
}

// OpenLog opens (creating if absent) the append log at path, replays
// every intact record and positions the log for appending. A corrupt or
// torn tail is truncated; the error return is reserved for I/O failures.
func OpenLog(path string) (*Log, []*Batch, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: opening log: %w", err)
	}
	l := &Log{f: f, path: path}
	batches, good, err := replay(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("ingest: stat log: %w", err)
	}
	if fi.Size() > good {
		// Torn tail from a crash mid-append: drop it so the next append
		// starts at a record boundary.
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("ingest: truncating torn log tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("ingest: seeking log end: %w", err)
	}
	l.records = int64(len(batches))
	l.bytes = good
	return l, batches, nil
}

// replay reads intact records from the start of f, returning the decoded
// batches and the offset just past the last intact record.
func replay(f *os.File) (batches []*Batch, good int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("ingest: seeking log start: %w", err)
	}
	var hdr [4]byte
	off := int64(0)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			// EOF here is the clean end; a partial header is a torn tail.
			return batches, off, nil
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > 1<<30 {
			return batches, off, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return batches, off, nil
		}
		b, err := decodeBatch(payload)
		if err != nil {
			// Corrupted record: everything from here on is suspect.
			return batches, off, nil
		}
		off += 4 + int64(n)
		batches = append(batches, b)
	}
}

// Append frames and writes one batch record. The record is handed to the
// OS before Append returns; Sync forces it to stable storage.
func (l *Log) Append(b *Batch) error {
	payload, err := encodeBatch(b)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("ingest: log is closed")
	}
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("ingest: appending log record: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return fmt.Errorf("ingest: appending log record: %w", err)
	}
	l.records++
	l.bytes += 4 + int64(len(payload))
	return nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.f.Sync()
}

// Records returns the number of records appended or replayed.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// SizeBytes returns the log's on-disk size.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Close syncs and closes the log file. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	serr := l.f.Sync()
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
