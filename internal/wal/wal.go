// Package wal is the per-database write-ahead log that makes the delta
// store durable (DESIGN.md §11). The log is a sidecar file next to the
// database ("db.tde.wal"): a 24-byte header binding it to one exact base
// image, followed by CRC32-framed records — begin / insert / delete /
// commit — appended through the iofault FS abstraction so the crash
// harness can kill a commit at every numbered operation.
//
// Layout (all integers little-endian):
//
//	header   "TDEWAL1\n" | version u32 | baseLen u64 | baseCRC u32
//	record   payloadLen u32 | crc32(payload) u32 | payload
//	payload  kind u8 | txid u64 | body
//	  begin/commit: empty body
//	  insert: tableLen u16 | table | ncols u16 | ncols × value
//	          value: tag u8 (0 scalar | 1 string | 2 null string)
//	                 scalar → bits u64; string → len u32 | bytes
//	  delete: tableLen u16 | table | rowID u64
//
// Each record is appended with a single write call, so a torn write tears
// exactly one frame; Commit is the only fsync point. Records of different
// transactions may interleave freely (keyed by txid) — the group-commit
// writer appends each transaction's whole run contiguously, but recovery
// does not rely on that. Parse replays committed transactions in commit
// order and classifies the tail: clean, uncommitted (valid frames after
// the last terminator — a crash mid-transaction), or corrupt (a torn or
// bit-flipped frame). Either dirty tail is logically truncated at the
// last terminator byte; truncating there can never lose a committed
// transaction, because every record of a committed transaction precedes
// its commit frame, which precedes (or is) the last terminator. RepairTail
// makes that truncation physical before the log is appended to again.
//
// The base binding (length + CRC32 of the exact base file image) is what
// keeps recovery single-sourced: after a merge rewrites the base, the old
// log no longer matches and is ignored as stale instead of being replayed
// onto data that already contains its effects.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tde/internal/corrupt"
	"tde/internal/delta"
	"tde/internal/iofault"
	"tde/internal/types"
)

const (
	magic      = "TDEWAL1\n"
	version    = 1
	headerLen  = 8 + 4 + 8 + 4
	frameLen   = 4 + 4
	maxPayload = 1 << 28 // structural sanity bound for untrusted lengths

	recBegin  = 1
	recInsert = 2
	recDelete = 3
	recCommit = 4
	recAbort  = 5

	// TempPrefix marks the log's temp files (created next to the database
	// for atomic rename); SweepTemps removes orphans.
	TempPrefix = ".tde-wal-"
	// saveTempPrefix is the storage layer's save temp prefix, swept
	// together with ours: both are merge/commit artifacts of this database
	// directory.
	saveTempPrefix = ".tde-save-"
)

// Path returns the log path for a database path.
func Path(dbPath string) string { return dbPath + ".wal" }

// Binding ties a log to one exact base file image.
type Binding struct {
	BaseLen uint64
	BaseCRC uint32
}

// Bind computes the binding for a base file image.
func Bind(image []byte) Binding {
	return Binding{BaseLen: uint64(len(image)), BaseCRC: crc32.ChecksumIEEE(image)}
}

// CorruptError reports structural damage in a log file; it matches
// corrupt.Err under errors.Is.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s: corrupt at byte %d: %s", e.Path, e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return corrupt.Err }

// TailState classifies what follows the last committed transaction.
type TailState int

const (
	// TailClean: the log ends exactly at a committed transaction.
	TailClean TailState = iota
	// TailUncommitted: valid frames of an unfinished transaction follow —
	// the normal artifact of a crash (or rollback) mid-transaction.
	TailUncommitted
	// TailCorrupt: a torn or damaged frame follows — the artifact of a
	// crash mid-append (or disk damage); Err holds the detail.
	TailCorrupt
)

func (s TailState) String() string {
	switch s {
	case TailClean:
		return "clean"
	case TailUncommitted:
		return "uncommitted"
	case TailCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("tail(%d)", int(s))
}

// Txn is one committed transaction recovered from the log.
type Txn struct {
	ID  uint64
	Ops []delta.Op
}

// Replay is the result of parsing a log file.
type Replay struct {
	Binding Binding
	// Txns are the committed transactions in commit order.
	Txns []Txn
	// CleanLen is the byte offset just past the last committed
	// transaction — the truncation point for tail repair.
	CleanLen int64
	Tail     TailState
	// Err details a TailCorrupt tail (it matches corrupt.Err); nil
	// otherwise. A dirty tail does not fail Parse: the committed prefix
	// is the recovered state.
	Err error
	// NextTx is one past the highest transaction ID seen (committed or
	// not), so a writer never reuses an ID already in the log.
	NextTx uint64
}

// Parse decodes a log image. Header-level damage (short, bad magic, bad
// version) fails outright with an error matching corrupt.Err; record-level
// damage is confined to the tail classification so the committed prefix
// can always be recovered.
func Parse(path string, raw []byte) (*Replay, error) {
	bad := func(off int64, reason string, args ...any) *CorruptError {
		return &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf(reason, args...)}
	}
	if len(raw) < headerLen {
		return nil, bad(0, "header truncated: %d bytes", len(raw))
	}
	if string(raw[:8]) != magic {
		return nil, bad(0, "bad magic")
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != version {
		return nil, bad(8, "unsupported log version %d", v)
	}
	rp := &Replay{
		Binding: Binding{
			BaseLen: binary.LittleEndian.Uint64(raw[12:]),
			BaseCRC: binary.LittleEndian.Uint32(raw[20:]),
		},
		CleanLen: headerLen,
		NextTx:   1,
	}
	// open accumulates each in-flight transaction's ops, keyed by txid —
	// concurrent committers may interleave their record runs arbitrarily.
	// A transaction ID lives at most once in the log: re-beginning an open
	// or already-terminated transaction is structural corruption.
	open := map[uint64]*[]delta.Op{}
	seen := map[uint64]bool{}
	off := int64(headerLen)
	fail := func(err *CorruptError) (*Replay, error) {
		rp.Tail = TailCorrupt
		rp.Err = err
		return rp, nil
	}
	for off < int64(len(raw)) {
		if int64(len(raw))-off < frameLen {
			return fail(bad(off, "torn frame header: %d trailing bytes", int64(len(raw))-off))
		}
		plen := binary.LittleEndian.Uint32(raw[off:])
		want := binary.LittleEndian.Uint32(raw[off+4:])
		if plen == 0 || plen > maxPayload {
			return fail(bad(off, "implausible payload length %d", plen))
		}
		if off+frameLen+int64(plen) > int64(len(raw)) {
			return fail(bad(off, "torn payload: %d of %d bytes", int64(len(raw))-off-frameLen, plen))
		}
		payload := raw[off+frameLen : off+frameLen+int64(plen)]
		if got := crc32.ChecksumIEEE(payload); got != want {
			return fail(bad(off, "frame checksum mismatch: %08x != %08x", got, want))
		}
		kind, txid, body, err := splitPayload(payload)
		if err != nil {
			return fail(bad(off, "%v", err))
		}
		if txid >= rp.NextTx {
			rp.NextTx = txid + 1
		}
		switch kind {
		case recBegin:
			if seen[txid] {
				return fail(bad(off, "re-begin of tx %d", txid))
			}
			if len(body) != 0 {
				return fail(bad(off, "begin record carries a body"))
			}
			seen[txid] = true
			open[txid] = new([]delta.Op)
		case recInsert, recDelete:
			ops := open[txid]
			if ops == nil {
				return fail(bad(off, "row op of tx %d outside an open transaction", txid))
			}
			op, err := decodeOp(kind, body)
			if err != nil {
				return fail(bad(off, "%v", err))
			}
			*ops = append(*ops, op)
		case recCommit:
			ops := open[txid]
			if ops == nil {
				return fail(bad(off, "commit of tx %d outside an open transaction", txid))
			}
			if len(body) != 0 {
				return fail(bad(off, "commit record carries a body"))
			}
			rp.Txns = append(rp.Txns, Txn{ID: txid, Ops: *ops})
			delete(open, txid)
			rp.CleanLen = off + frameLen + int64(plen)
		case recAbort:
			// An explicit rollback: the transaction's records are dropped,
			// and the log region ends cleanly (the tail after it is intact).
			if open[txid] == nil {
				return fail(bad(off, "abort of tx %d outside an open transaction", txid))
			}
			if len(body) != 0 {
				return fail(bad(off, "abort record carries a body"))
			}
			delete(open, txid)
			rp.CleanLen = off + frameLen + int64(plen)
		default:
			return fail(bad(off, "unknown record kind %d", kind))
		}
		off += frameLen + int64(plen)
	}
	if rp.CleanLen != int64(len(raw)) {
		// Valid frames follow the last terminator: an unfinished
		// transaction's partial run. (Transactions left open but fully
		// before the last terminator are dead records, not a dirty tail —
		// truncating at CleanLen is what repair does, and it already ends
		// there.)
		rp.Tail = TailUncommitted
	}
	return rp, nil
}

func splitPayload(p []byte) (kind byte, txid uint64, body []byte, err error) {
	if len(p) < 9 {
		return 0, 0, nil, errors.New("payload shorter than kind+txid")
	}
	return p[0], binary.LittleEndian.Uint64(p[1:]), p[9:], nil
}

// decodeOp decodes an insert or delete record body.
func decodeOp(kind byte, body []byte) (delta.Op, error) {
	var op delta.Op
	table, rest, err := takeString16(body)
	if err != nil {
		return op, fmt.Errorf("row op table name: %v", err)
	}
	op.Table = table
	if kind == recDelete {
		op.Kind = delta.OpDelete
		if len(rest) != 8 {
			return op, fmt.Errorf("delete body has %d trailing bytes, want 8", len(rest))
		}
		op.RowID = binary.LittleEndian.Uint64(rest)
		return op, nil
	}
	op.Kind = delta.OpInsert
	if len(rest) < 2 {
		return op, errors.New("insert body missing column count")
	}
	ncols := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	op.Row = make([]delta.Value, 0, ncols)
	for i := 0; i < ncols; i++ {
		if len(rest) < 1 {
			return op, fmt.Errorf("insert value %d truncated", i)
		}
		tag := rest[0]
		rest = rest[1:]
		switch tag {
		case 0:
			if len(rest) < 8 {
				return op, fmt.Errorf("insert scalar %d truncated", i)
			}
			op.Row = append(op.Row, delta.Scalar(binary.LittleEndian.Uint64(rest)))
			rest = rest[8:]
		case 1:
			var s string
			s, rest, err = takeString32(rest)
			if err != nil {
				return op, fmt.Errorf("insert string %d: %v", i, err)
			}
			op.Row = append(op.Row, delta.String(s))
		case 2:
			op.Row = append(op.Row, delta.Value{Bits: types.NullToken})
		default:
			return op, fmt.Errorf("insert value %d has unknown tag %d", i, tag)
		}
	}
	if len(rest) != 0 {
		return op, fmt.Errorf("insert body has %d trailing bytes", len(rest))
	}
	return op, nil
}

func takeString16(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errors.New("length truncated")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("content truncated: %d of %d bytes", len(b), n)
	}
	return string(b[:n]), b[n:], nil
}

func takeString32(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, errors.New("length truncated")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > maxPayload {
		return "", nil, fmt.Errorf("implausible length %d", n)
	}
	b = b[4:]
	if len(b) < n {
		return "", nil, fmt.Errorf("content truncated: %d of %d bytes", len(b), n)
	}
	return string(b[:n]), b[n:], nil
}

// ReadFile reads and parses a log file. A missing file returns
// (nil, nil, fs error satisfying os.IsNotExist).
func ReadFile(fs iofault.FS, path string) (*Replay, []byte, error) {
	raw, err := fs.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	rp, err := Parse(path, raw)
	if err != nil {
		return nil, raw, err
	}
	return rp, raw, nil
}

// Create writes a fresh, empty log bound to the given base image,
// atomically (temp + rename + dir sync) so a crash never leaves a
// half-written header behind.
func Create(fs iofault.FS, path string, b Binding) error {
	hdr := make([]byte, headerLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint64(hdr[12:], b.BaseLen)
	binary.LittleEndian.PutUint32(hdr[20:], b.BaseCRC)
	return writeAtomic(fs, path, hdr)
}

// RepairTail physically truncates a log to its committed prefix by
// rewriting it atomically. raw is the full current image, cleanLen the
// offset Parse reported.
func RepairTail(fs iofault.FS, path string, raw []byte, cleanLen int64) error {
	if cleanLen > int64(len(raw)) {
		return fmt.Errorf("wal: repair length %d beyond file size %d", cleanLen, len(raw))
	}
	return writeAtomic(fs, path, raw[:cleanLen])
}

// writeAtomic is the log's crash-safe whole-file write: temp file in the
// destination directory, write, fsync, close, rename, directory sync.
func writeAtomic(fs iofault.FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := fs.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(dir)
}

// Log is the append handle of a live database's write path. It is safe
// for concurrent use: appends serialize under an internal mutex, and
// SyncTo implements group commit — concurrent committers waiting for
// durability share one fsync issued by whichever of them gets there
// first. It is sticky on error: after any failed append or sync every
// further call fails with the same error, because a log whose tail state
// is unknown must not be appended to again (the next open repairs it).
type Log struct {
	fs   iofault.FS
	path string

	mu      sync.Mutex
	f       iofault.File
	err     error
	written int64 // bytes appended since open
	synced  int64 // bytes known durable since open
	syncing bool
	// syncDone is closed (and replaced) when a sync round finishes, waking
	// the committers that batched behind the leader.
	syncDone chan struct{}
}

// OpenWriter opens the log for appending. The caller has already created
// the file (Create) and repaired any dirty tail (RepairTail).
func OpenWriter(fs iofault.FS, path string) (*Log, error) {
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &Log{fs: fs, path: path, f: f, syncDone: make(chan struct{})}, nil
}

// Err returns the sticky error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close closes the append handle. The log stays valid on disk.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if l.err == nil {
		l.err = errors.New("wal: log closed")
	}
	return err
}

// append frames and writes one record in a single write call. Caller
// holds l.mu.
func (l *Log) append(payload []byte) error {
	if l.err != nil {
		return l.err
	}
	rec := appendFrame(make([]byte, 0, frameLen+len(payload)), payload)
	return l.writeLocked(rec)
}

// writeLocked appends pre-framed bytes. Caller holds l.mu.
func (l *Log) writeLocked(rec []byte) error {
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(rec); err != nil {
		l.err = fmt.Errorf("wal: append failed, log requires reopen: %w", err)
		return l.err
	}
	l.written += int64(len(rec))
	return nil
}

func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// AppendTxn appends one committed transaction's entire record run —
// begin, every operation, commit — as a single write call, and returns
// the log offset (relative to OpenWriter) the caller must pass to SyncTo
// to make the transaction durable. Writing the run contiguously means a
// torn write can only tear the run's own tail, never split another
// transaction's records. stringCols maps a table name to its
// string-column mask (as Log.Insert's stringCol parameter).
func (l *Log) AppendTxn(txid uint64, ops []delta.Op, stringCols func(table string) []bool) (int64, error) {
	var buf []byte
	buf = appendFrame(buf, payloadHeader(recBegin, txid, 0))
	for _, op := range ops {
		switch op.Kind {
		case delta.OpInsert:
			buf = appendFrame(buf, insertPayload(txid, op.Table, op.Row, stringCols(op.Table)))
		case delta.OpDelete:
			buf = appendFrame(buf, deletePayload(txid, op.Table, op.RowID))
		default:
			return 0, fmt.Errorf("wal: unknown op kind %d", op.Kind)
		}
	}
	buf = appendFrame(buf, payloadHeader(recCommit, txid, 0))
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeLocked(buf); err != nil {
		return 0, err
	}
	return l.written, nil
}

// SyncTo blocks until every byte up to offset off (as returned by
// AppendTxn) is durable, sharing fsyncs between concurrent committers:
// if a sync is already in flight the caller waits for it and re-checks,
// and otherwise it becomes the leader and syncs on behalf of everyone
// appended so far. A sync failure poisons the log for all waiters —
// their transactions' durability is unknown.
func (l *Log) SyncTo(off int64) error {
	l.mu.Lock()
	for {
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		if l.synced >= off {
			l.mu.Unlock()
			return nil
		}
		if l.syncing {
			ch := l.syncDone
			l.mu.Unlock()
			<-ch
			l.mu.Lock()
			continue
		}
		l.syncing = true
		target := l.written
		f := l.f
		l.mu.Unlock()
		serr := f.Sync()
		l.mu.Lock()
		l.syncing = false
		if serr != nil {
			l.err = fmt.Errorf("wal: commit sync failed, log requires reopen: %w", serr)
		} else if target > l.synced {
			l.synced = target
		}
		close(l.syncDone)
		l.syncDone = make(chan struct{})
	}
}

func payloadHeader(kind byte, txid uint64, bodyCap int) []byte {
	p := make([]byte, 9, 9+bodyCap)
	p[0] = kind
	binary.LittleEndian.PutUint64(p[1:], txid)
	return p
}

func insertPayload(txid uint64, table string, row []delta.Value, stringCol []bool) []byte {
	p := payloadHeader(recInsert, txid, 2+len(table)+2+len(row)*9)
	p = appendString16(p, table)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(row)))
	for i, v := range row {
		switch {
		case stringCol[i] && v.IsNullString():
			p = append(p, 2)
		case stringCol[i]:
			p = append(p, 1)
			p = binary.LittleEndian.AppendUint32(p, uint32(len(v.Str)))
			p = append(p, v.Str...)
		default:
			p = append(p, 0)
			p = binary.LittleEndian.AppendUint64(p, v.Bits)
		}
	}
	return p
}

func deletePayload(txid uint64, table string, rowID uint64) []byte {
	p := payloadHeader(recDelete, txid, 2+len(table)+8)
	p = appendString16(p, table)
	p = binary.LittleEndian.AppendUint64(p, rowID)
	return p
}

// Begin appends a begin record.
func (l *Log) Begin(txid uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(payloadHeader(recBegin, txid, 0))
}

// Insert appends an insert record.
func (l *Log) Insert(txid uint64, table string, row []delta.Value, stringCol []bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(insertPayload(txid, table, row, stringCol))
}

// Delete appends a delete record.
func (l *Log) Delete(txid uint64, table string, rowID uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(deletePayload(txid, table, rowID))
}

// Abort appends an abort record, explicitly terminating a transaction's
// record run without committing it. No fsync: an abort that fails to
// reach disk is indistinguishable from a crash mid-transaction, and both
// recover to the same (rolled back) state.
func (l *Log) Abort(txid uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(payloadHeader(recAbort, txid, 0))
}

// Commit appends the commit record and fsyncs — the transaction's
// durability point. (The single-writer path; concurrent committers use
// AppendTxn + SyncTo instead.)
func (l *Log) Commit(txid uint64) error {
	l.mu.Lock()
	if err := l.append(payloadHeader(recCommit, txid, 0)); err != nil {
		l.mu.Unlock()
		return err
	}
	off := l.written
	l.mu.Unlock()
	return l.SyncTo(off)
}

func appendString16(p []byte, s string) []byte {
	p = binary.LittleEndian.AppendUint16(p, uint16(len(s)))
	return append(p, s...)
}

// SweepTemps removes orphaned WAL and merge temp files (the TempPrefix
// and .tde-save- artifacts a crashed commit or merge leaves behind) in
// dir that are older than olderThan, mirroring spill.Sweep. It returns
// how many entries it removed.
func SweepTemps(dir string, olderThan time.Duration) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, TempPrefix) && !strings.HasPrefix(name, saveTempPrefix) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		removed++
	}
	return removed, firstErr
}
