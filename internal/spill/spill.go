// Package spill implements the compressed spill files the execution
// engine writes when an operator's state outgrows its memory budget:
// chunked, CRC-framed, columnar row spools whose value columns are
// enc-compressed streams and whose string columns carry chunk-local
// heaps (the paper's thesis — lightweight encodings make data cheap to
// move — applied to operator state instead of base tables).
//
// All I/O flows through iofault.FS, so torn writes, ENOSPC, read errors
// and bit flips are injectable; every failure maps to a typed error:
// *IOError (matching ErrSpill) for I/O, corrupt.Err for any byte-level
// damage found while decoding, and whatever the disk-budget hook
// returns when a write would exceed QueryOptions.SpillBudget.
//
// File layout (little-endian):
//
//	file  := chunk*
//	chunk := "SPCH" | u32 payloadLen | u32 crc32(payload) | payload
//	payload := u32 rows | u16 cols | col*
//	col(scalar) := 0x00 | u32 streamLen | enc.Stream bytes
//	col(string) := 0x01 | u8 collation | u32 heapCount | u32 heapLen |
//	               heap bytes | u32 streamLen | enc.Stream of tokens
//
// String tokens are chunk-local (re-interned into a per-chunk heap at
// append time), so a chunk decodes standalone: a reader never needs
// state from earlier chunks, and a torn tail loses only the last chunk.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tde/internal/corrupt"
	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/iofault"
	"tde/internal/types"
)

// Prefix names every spill temp directory, so orphans left by a crashed
// process are recognizable and sweepable.
const Prefix = "tde-spill-"

// ChunkRows is the row capacity of one chunk. It is deliberately smaller
// than the engine's execution block so per-partition write buffers stay
// small when an operator fans out over many partitions.
const ChunkRows = 256

const chunkMagic = "SPCH"

// maxPayload bounds a chunk frame so a corrupt length field cannot make
// the reader allocate gigabytes.
const maxPayload = 64 << 20

// ErrSpill is the sentinel matched (errors.Is) by every spill I/O
// failure; the concrete *IOError carries the operation and path.
var ErrSpill = errors.New("spill: I/O failure")

// IOError is a typed spill I/O failure. It matches both ErrSpill and the
// underlying OS error (so errors.Is(err, syscall.ENOSPC) works).
type IOError struct {
	Op   string // "create", "write", "open", "read", "remove"
	Path string
	Err  error
}

func (e *IOError) Error() string {
	return fmt.Sprintf("spill: %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *IOError) Unwrap() []error { return []error{e.Err, ErrSpill} }

// ColSpec describes one column of a spill file's rows.
type ColSpec struct {
	// Str marks a string column: values are heap tokens, resolved through
	// the caller's heap at append time and re-interned per chunk.
	Str bool
	// Signed selects signed range statistics for the encoder.
	Signed bool
	// Sentinel is the column's NULL bit pattern.
	Sentinel uint64
	// Collation governs the chunk heaps of a string column.
	Collation types.Collation
}

// Stats counts one operator's spill I/O; all fields are updated
// atomically so parallel workers can share one.
type Stats struct {
	Files        int64
	Chunks       int64
	BytesWritten int64
	BytesRead    int64
}

func (s *Stats) addWrite(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.Chunks, 1)
	atomic.AddInt64(&s.BytesWritten, n)
}

func (s *Stats) addRead(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.BytesRead, n)
}

// Manager owns one query's spill state: a lazily created temp directory,
// the files inside it, and the disk-budget accounting hooks. All methods
// are safe for concurrent use (parallel aggregation workers share one).
type Manager struct {
	fs   iofault.FS
	base string
	// charge/release account spill bytes against the query's disk budget;
	// nil hooks mean unaccounted.
	charge  func(n int) error
	release func(n int)

	mu     sync.Mutex
	dir    string
	files  map[string]int64 // path -> charged bytes
	closed bool
}

// NewManager builds a manager writing under baseDir ("" = os.TempDir())
// through fs (nil = iofault.OS), charging written bytes through the
// hooks.
func NewManager(fs iofault.FS, baseDir string, charge func(n int) error, release func(n int)) *Manager {
	if fs == nil {
		fs = iofault.OS
	}
	if baseDir == "" {
		baseDir = os.TempDir()
	}
	return &Manager{fs: fs, base: baseDir, charge: charge, release: release, files: map[string]int64{}}
}

// Dir returns the query's spill directory, creating it on first use.
func (m *Manager) Dir() (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", &IOError{Op: "create", Path: m.base, Err: errors.New("spill manager closed")}
	}
	if m.dir == "" {
		dir, err := m.fs.MkdirTemp(m.base, Prefix+"*")
		if err != nil {
			return "", &IOError{Op: "create", Path: m.base, Err: err}
		}
		m.dir = dir
	}
	return m.dir, nil
}

// Remove deletes one spill file and returns its bytes to the disk
// budget. Operators call it as soon as a partition or run is consumed,
// so disk usage shrinks while a query degrades — the first rung of the
// ENOSPC ladder.
func (m *Manager) Remove(path string) error {
	m.mu.Lock()
	charged, ok := m.files[path]
	delete(m.files, path)
	m.mu.Unlock()
	if !ok {
		return nil
	}
	if m.release != nil {
		m.release(int(charged))
	}
	if err := m.fs.Remove(path); err != nil {
		return &IOError{Op: "remove", Path: path, Err: err}
	}
	return nil
}

// Cleanup removes every remaining spill file and the directory itself.
// Idempotent; called from the query's Close/cancel/panic paths.
func (m *Manager) Cleanup() {
	m.mu.Lock()
	files := m.files
	dir := m.dir
	m.files = map[string]int64{}
	m.dir = ""
	m.closed = true
	m.mu.Unlock()
	for path, charged := range files {
		if m.release != nil {
			m.release(int(charged))
		}
		_ = m.fs.Remove(path)
	}
	if dir != "" {
		_ = m.fs.Remove(dir)
	}
}

// track records a file's charged size (under mu).
func (m *Manager) track(path string, n int64) {
	m.mu.Lock()
	m.files[path] += n
	m.mu.Unlock()
}

// Writer appends rows to one spill file, buffering ChunkRows at a time
// and writing each buffer as a self-contained compressed chunk.
type Writer struct {
	m     *Manager
	f     iofault.File
	path  string
	specs []ColSpec
	stats *Stats

	rows  int
	total int64
	cols  [][]uint64
	heaps []*heap.Heap
	accs  []*heap.Accelerator
}

// NewWriter creates a new spill file in the manager's directory.
func (m *Manager) NewWriter(specs []ColSpec, stats *Stats) (*Writer, error) {
	dir, err := m.Dir()
	if err != nil {
		return nil, err
	}
	f, err := m.fs.CreateTemp(dir, "part*")
	if err != nil {
		return nil, &IOError{Op: "create", Path: dir, Err: err}
	}
	// Track the file from birth: a writer abandoned before its first
	// flush (failed charge, torn write) must still be swept by Cleanup.
	m.track(f.Name(), 0)
	if stats != nil {
		atomic.AddInt64(&stats.Files, 1)
	}
	w := &Writer{m: m, f: f, path: f.Name(), specs: specs, stats: stats,
		cols: make([][]uint64, len(specs)), heaps: make([]*heap.Heap, len(specs)),
		accs: make([]*heap.Accelerator, len(specs))}
	w.resetChunk()
	return w, nil
}

func (w *Writer) resetChunk() {
	w.rows = 0
	for c, spec := range w.specs {
		w.cols[c] = w.cols[c][:0]
		if spec.Str {
			w.heaps[c] = heap.New(spec.Collation)
			w.accs[c] = heap.NewAccelerator(w.heaps[c], 0)
		}
	}
}

// Path returns the file's path.
func (w *Writer) Path() string { return w.path }

// Rows returns the total rows appended so far (buffered included).
func (w *Writer) Rows() int64 { return w.total + int64(w.rows) }

// Append adds one row. For string columns, row[c] is a token into
// heaps[c] (NullToken passes through); the string content is re-interned
// into the chunk's local heap immediately, so heaps may be per-block
// scratch heaps that do not outlive the call.
func (w *Writer) Append(row []uint64, heaps []*heap.Heap) error {
	for c, spec := range w.specs {
		v := row[c]
		if spec.Str && v != types.NullToken {
			// Not a heap.Translator, unlike the exec re-intern sites: the
			// writer has no query budget to charge the memos to.
			v = w.accs[c].Intern(heaps[c].Get(v))
		}
		w.cols[c] = append(w.cols[c], v)
	}
	w.rows++
	if w.rows >= ChunkRows {
		return w.Flush()
	}
	return nil
}

// Flush writes the buffered rows as one chunk.
func (w *Writer) Flush() error {
	if w.rows == 0 {
		return nil
	}
	payload := w.encodePayload()
	frame := make([]byte, 0, len(payload)+12)
	frame = append(frame, chunkMagic...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if w.m.charge != nil {
		if err := w.m.charge(len(frame)); err != nil {
			return err
		}
	}
	w.m.track(w.path, int64(len(frame)))
	if _, err := w.f.Write(frame); err != nil {
		return &IOError{Op: "write", Path: w.path, Err: err}
	}
	w.stats.addWrite(int64(len(frame)))
	w.total += int64(w.rows)
	w.resetChunk()
	return nil
}

func (w *Writer) encodePayload() []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(w.rows))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w.specs)))
	for c, spec := range w.specs {
		if spec.Str {
			buf = append(buf, 1, byte(spec.Collation))
			hb := w.heaps[c].Bytes()
			buf = binary.LittleEndian.AppendUint32(buf, uint32(w.heaps[c].Len()))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hb)))
			buf = append(buf, hb...)
		} else {
			buf = append(buf, 0)
		}
		sb := encodeStream(w.cols[c], spec)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sb)))
		buf = append(buf, sb...)
	}
	return buf
}

// encodeStream runs the dynamic encoder over one chunk column.
func encodeStream(vals []uint64, spec ColSpec) []byte {
	ew := enc.NewWriter(enc.WriterConfig{
		Signed:         spec.Signed && !spec.Str,
		Sentinel:       spec.Sentinel,
		HasSentinel:    true,
		PreferDict:     spec.Str,
		ConvertOptimal: true,
	})
	ew.Append(vals)
	return ew.Finish().Bytes()
}

// Close flushes and closes the file, which stays on disk for reading.
func (w *Writer) Close() error {
	if err := w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return &IOError{Op: "write", Path: w.path, Err: err}
	}
	return nil
}

// Chunk is one decoded chunk of rows.
type Chunk struct {
	Rows int
	Cols []Col
}

// Col is one decoded chunk column: full-width values, plus the chunk
// heap resolving tokens for string columns (nil for scalars).
type Col struct {
	Values []uint64
	Heap   *heap.Heap
}

// Bytes approximates the chunk's decoded in-memory footprint, the unit
// readers charge against the memory budget while merging.
func (ch *Chunk) Bytes() int {
	n := 0
	for i := range ch.Cols {
		n += len(ch.Cols[i].Values) * 8
		if ch.Cols[i].Heap != nil {
			n += ch.Cols[i].Heap.Size()
		}
	}
	return n
}

// Reader decodes a spill file chunk by chunk. Any structural damage —
// bad magic, truncated frame, CRC mismatch, invalid stream or heap —
// surfaces as an error wrapping corrupt.Err, never a panic.
type Reader struct {
	r      io.ReaderAt
	off    int64
	stats  *Stats
	closer io.Closer
	path   string
}

// OpenReader opens a spill file written by a Writer from this manager.
func (m *Manager) OpenReader(path string, stats *Stats) (*Reader, error) {
	f, err := m.fs.Open(path)
	if err != nil {
		return nil, &IOError{Op: "open", Path: path, Err: err}
	}
	return &Reader{r: f, closer: f, path: path, stats: stats}, nil
}

// NewReader decodes spill bytes from any io.ReaderAt; the fuzz harness
// drives it over raw byte slices.
func NewReader(r io.ReaderAt) *Reader {
	return &Reader{r: r}
}

// Close closes the underlying file (the file itself stays on disk; use
// Manager.Remove to delete it and return its budget).
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

func (r *Reader) corruptf(format string, args ...any) error {
	where := r.path
	if where == "" {
		where = "spill"
	}
	return corrupt.Wrap(fmt.Errorf("%s@%d: %s", where, r.off, fmt.Sprintf(format, args...)))
}

// readFull reads exactly len(p) bytes at off. Returns (false, nil) on a
// clean end-of-file with zero bytes, a corruption error on a short tail,
// and an *IOError on a real read failure.
func (r *Reader) readFull(p []byte, off int64) (bool, error) {
	n, err := r.r.ReadAt(p, off)
	r.stats.addRead(int64(n))
	if n == len(p) {
		return true, nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		if n == 0 {
			return false, nil
		}
		return false, r.corruptf("truncated chunk: %d of %d bytes", n, len(p))
	}
	return false, &IOError{Op: "read", Path: r.path, Err: err}
}

// Next returns the next chunk, or (nil, io.EOF) at the end of the file.
func (r *Reader) Next() (ch *Chunk, err error) {
	// The decoders below validate every length and offset, but these are
	// untrusted bytes (a torn write, a flipped bit, a fuzzer): one last
	// containment layer turns any residual decoder panic into a
	// corruption error instead of killing the process.
	defer func() {
		if rec := recover(); rec != nil {
			ch, err = nil, r.corruptf("panic decoding chunk: %v", rec)
		}
	}()
	var hdr [12]byte
	ok, err := r.readFull(hdr[:], r.off)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, io.EOF
	}
	if string(hdr[:4]) != chunkMagic {
		return nil, r.corruptf("bad chunk magic %q", hdr[:4])
	}
	plen := binary.LittleEndian.Uint32(hdr[4:8])
	want := binary.LittleEndian.Uint32(hdr[8:12])
	if plen == 0 || plen > maxPayload {
		return nil, r.corruptf("implausible payload length %d", plen)
	}
	payload := make([]byte, plen)
	ok, err = r.readFull(payload, r.off+12)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, r.corruptf("truncated chunk payload (0 of %d bytes)", plen)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, r.corruptf("chunk checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	ch, err = r.decodePayload(payload)
	if err != nil {
		return nil, err
	}
	r.off += 12 + int64(plen)
	return ch, nil
}

func (r *Reader) decodePayload(p []byte) (*Chunk, error) {
	if len(p) < 6 {
		return nil, r.corruptf("payload too short (%d bytes)", len(p))
	}
	rows := int(binary.LittleEndian.Uint32(p))
	cols := int(binary.LittleEndian.Uint16(p[4:]))
	if rows <= 0 || rows > maxPayload/8 {
		return nil, r.corruptf("implausible row count %d", rows)
	}
	ch := &Chunk{Rows: rows, Cols: make([]Col, cols)}
	at := 6
	take := func(n int, what string) ([]byte, error) {
		if n < 0 || at+n > len(p) {
			return nil, r.corruptf("%s overruns payload (%d bytes claimed at %d of %d)", what, n, at, len(p))
		}
		b := p[at : at+n]
		at += n
		return b, nil
	}
	for c := 0; c < cols; c++ {
		kind, err := take(1, "column kind")
		if err != nil {
			return nil, err
		}
		var hp *heap.Heap
		switch kind[0] {
		case 1:
			hdr, err := take(9, "heap header")
			if err != nil {
				return nil, err
			}
			coll := types.Collation(hdr[0])
			if coll > types.CollateEN {
				return nil, r.corruptf("unknown collation %d", hdr[0])
			}
			count := int(binary.LittleEndian.Uint32(hdr[1:5]))
			hlen := int(binary.LittleEndian.Uint32(hdr[5:9]))
			hb, err := take(hlen, "heap bytes")
			if err != nil {
				return nil, err
			}
			hp, err = heap.FromBytes(append([]byte(nil), hb...), count, coll, false)
			if err != nil {
				return nil, err // already wraps corrupt.Err
			}
		case 0:
		default:
			return nil, r.corruptf("unknown column kind %d", kind[0])
		}
		slenb, err := take(4, "stream length")
		if err != nil {
			return nil, err
		}
		sb, err := take(int(binary.LittleEndian.Uint32(slenb)), "stream bytes")
		if err != nil {
			return nil, err
		}
		stream, err := enc.FromBytes(append([]byte(nil), sb...))
		if err != nil {
			return nil, err // already wraps corrupt.Err
		}
		if stream.Len() != rows {
			return nil, r.corruptf("column %d holds %d values, chunk says %d rows", c, stream.Len(), rows)
		}
		vals := make([]uint64, rows)
		enc.NewReader(stream).Read(0, rows, vals)
		ch.Cols[c] = Col{Values: vals, Heap: hp}
	}
	if at != len(p) {
		return nil, r.corruptf("%d trailing bytes after last column", len(p)-at)
	}
	return ch, nil
}

// Sweep removes orphaned spill directories under dir: entries matching
// the tde-spill-* naming scheme whose modification time is older than
// olderThan (guarding live queries of other processes). It reports how
// many orphans it removed; errors reading the directory are returned,
// per-entry removal errors are ignored (another sweep will retry).
func Sweep(dir string, olderThan time.Duration) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), Prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.RemoveAll(filepath.Join(dir, e.Name())) == nil {
			removed++
		}
	}
	return removed, nil
}
