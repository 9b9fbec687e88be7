package exec

import (
	"fmt"

	"tde/internal/delta"
	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// RowIDColumn names the hidden row-address column every table scan can
// read like a stored one: a base row's position, an inserted row's ID.
// The write path targets UPDATE/DELETE through it; SQL cannot name it,
// because no identifier starts with '$'.
const RowIDColumn = "$rowid"

// Scan is the scan flow operator: it reads a column source — the selected
// columns of a stored table, or a Built table's — one decompression block
// at a time (one decode call per iteration block, Sect. 3.1). Dictionary-
// compressed columns and string columns emit tokens, preserving the
// invisible-join opportunity; plain scalars emit resolved full-width
// values.
//
// A block passes through optional stages, each selected by what the
// source is rather than by an option:
//
//   - zone pruning, when the source is a table with zone maps and the
//     planner attached filters (Prune): a refuted block is a cursor bump;
//   - the decode cache, when the query has one and the column is a stored
//     table's block-structured stream (a Built's streams die with the
//     query, and run-length streams have no blocks);
//   - run emission, when EmitRuns is set and the source is a single scalar
//     run-length column with no overlay;
//   - the overlay, when the source is a delta.View (below).
//
// A stored table's scan may select RowIDColumn among its columns: it has
// no stream, and its reader stamps each row's position.
//
// Over a view the scan merges the table's compressed base rows with the
// snapshot — dropping deleted base rows and appending the visible
// insertions as tail blocks — so every downstream operator sees one
// consistent stream. That stream speaks values: dictionary tokens are
// resolved for every base block and the schema advertises Dict: nil,
// because aggregation and join hash raw block values as keys and inserted
// rows have no dictionary. String columns still emit heap tokens, but
// against two heaps: base blocks carry the stored heap, tail blocks a
// per-open heap holding the inserted strings (string operators already
// handle mixed-heap streams by content). Derived metadata (min/max,
// sortedness) describes only the base rows, so the schema carries neutral
// metadata and tactical upgrades fall back to their general routines.
// Zone maps likewise describe only base rows: pruning applies to base
// blocks, and the insertions are emitted after them regardless.
type Scan struct {
	OpInstr
	src *Built // the column source: what every stage reads
	// table is the stored table src selects from (nil over a Built): it
	// names the scan and binds the planner's zone filters, which index
	// stored columns whether or not the scan selects them.
	table *storage.Table
	view  *delta.View // the write overlay; nil when the source is clean
	// insIdxs[i] is where src.Cols[i]'s value sits in an inserted row
	// (-1 for $rowid).
	insIdxs []int
	schema  []ColInfo

	// EmitRuns, set by the planner when encoded execution is on, lets the
	// scan emit a run-length column as run-encoded blocks
	// (vec.Vector.Runs) instead of expanding it row-by-row. Only
	// single-column scans of a scalar RLE column qualify (EmitsRuns):
	// multi-column blocks would need run alignment across columns, and
	// string columns resolve through heaps.
	EmitRuns bool
	// Prune holds the planner's sargable zone filters (DESIGN.md §15);
	// blocks they prove empty are skipped without decoding.
	Prune []ZoneFilter

	qc     *QueryCtx
	cols   []colReader
	cache  *DecodeCache // the query's decode cache over a stored table
	pruner zonePruner
	at     int // next base row
	runs   bool

	// overlay state: surviving row offsets of the current base block, the
	// next insertion, and the inserted strings interned per selected
	// string column (nil entries for scalars).
	keep     []int
	insAt    int
	insHeaps []*heap.Heap
	insToks  [][]uint64
}

// NewScan scans the named columns of t (all columns when names is nil);
// RowIDColumn names the row-position column.
func NewScan(t *storage.Table, names ...string) (*Scan, error) {
	s := &Scan{table: t, src: &Built{Rows: t.Rows()}}
	if len(names) == 0 {
		for _, c := range t.Columns {
			names = append(names, c.Name)
		}
	}
	for _, n := range names {
		c, idx, err := tableColumn(t, n)
		if err != nil {
			return nil, err
		}
		s.src.Cols = append(s.src.Cols, c)
		s.insIdxs = append(s.insIdxs, idx)
	}
	s.schema = s.src.Schema()
	return s, nil
}

// tableColumn describes column name of t as a scan source column and
// returns its storage position; RowIDColumn has no stream and position -1.
func tableColumn(t *storage.Table, name string) (BuiltColumn, int, error) {
	if name == RowIDColumn {
		return BuiltColumn{Info: ColInfo{Name: RowIDColumn, Type: types.Integer}}, -1, nil
	}
	idx := t.ColumnIndex(name)
	if idx < 0 {
		return BuiltColumn{}, -1, fmt.Errorf("exec: table %q has no column %q", t.Name, name)
	}
	c := t.Columns[idx]
	return BuiltColumn{Data: c.Data, Zones: c.Zones, Info: ColInfo{
		Name: c.Name, Type: c.Type, Collation: c.Collation,
		Heap: c.Heap, StoredHeap: c.Heap != nil, Dict: c.Dict, Meta: c.Meta,
	}}, idx, nil
}

// NewViewScan scans the named columns of v's table as the snapshot sees
// them (all columns when names is nil); RowIDColumn carries each row's
// stable row address.
func NewViewScan(v *delta.View, names ...string) (*Scan, error) {
	s, err := NewScan(v.Table, names...)
	if err != nil {
		return nil, err
	}
	s.view = v
	meta := enc.Metadata{RowCount: v.VisibleRows()}
	for i := range s.schema {
		// Inserted strings come in heaps of their own.
		s.schema[i].Dict, s.schema[i].Meta, s.schema[i].StoredHeap = nil, meta, false
	}
	return s, nil
}

// NewBuiltScan scans bt (the output of FlowTable and the pseudo-table
// operators).
func NewBuiltScan(bt *Built) *Scan {
	return &Scan{src: bt, schema: bt.Schema()}
}

// Schema implements Operator.
func (s *Scan) Schema() []ColInfo { return s.schema }

// OpKind implements Instrumented: the plan names the source — "Scan" of a
// table, "DeltaScan" of a view, "BuiltScan" of a Built.
func (s *Scan) OpKind() string {
	switch {
	case s.view != nil:
		return "DeltaScan"
	case s.table != nil:
		return "Scan"
	}
	return "BuiltScan"
}

// OpLabel implements Instrumented.
func (s *Scan) OpLabel() string {
	switch {
	case s.view != nil:
		return fmt.Sprintf("%s +%d -%d", s.table.Name, len(s.view.Ins), s.view.DeletedRows)
	case s.table != nil:
		return s.table.Name
	}
	return ""
}

// Open implements Operator.
func (s *Scan) Open(qc *QueryCtx) error {
	start := s.beginOpen(qc, s.OpKind())
	defer s.endOpen(start)
	s.qc = qc
	s.at, s.insAt = 0, 0
	s.cache = nil
	if s.table != nil {
		s.cache = qc.Cache()
		s.pruner = newZonePruner(s.table, s.Prune)
	}
	s.cols = s.newReaders()
	routine := encRoutine(s.src.Cols)
	if s.view != nil {
		s.internInsertions()
		routine = fmt.Sprintf("base+delta(ins=%d dels=%d epoch=%d)", len(s.view.Ins), s.view.DeletedRows, s.view.Epoch)
	}
	if s.pruner.active() {
		routine += "+zoneskip"
	}
	if s.runs = s.EmitsRuns(); s.runs {
		routine += "(runs)"
	}
	s.st.SetRoutine(routine)
	return nil
}

// newReaders returns a fresh column reader per selected column: the
// scan's own, or a parallel consumer's (morsels).
func (s *Scan) newReaders() []colReader {
	cols := make([]colReader, len(s.src.Cols))
	for i := range s.src.Cols {
		c := &s.src.Cols[i]
		cols[i] = newColReader(c.Info, c.Data, s.cache)
	}
	return cols
}

// claimable reports whether parallel consumers may decode the opened
// scan's blocks themselves: a clean source whose every block is the
// plain rows [at, at+BlockSize) — no overlay to merge, no runs to emit.
func (s *Scan) claimable() bool { return s.view == nil && !s.runs }

// fillBlock decodes the plain rows of the block starting at row at into
// b through cols.
func (s *Scan) fillBlock(cols []colReader, b *vec.Block, at int) error {
	n := min(s.src.Rows-at, vec.BlockSize)
	ensureVecs(b, len(s.schema))
	for i := range cols {
		if err := cols[i].fill(s.st, &b.Vecs[i], 0, at, n); err != nil {
			return err
		}
	}
	b.N = n
	return nil
}

// EmitsRuns reports whether the scan will hand its column downstream as
// runs: EmitRuns is set and the source is one scalar run-length column
// with no overlay (inserted rows have no runs, and deleted ones split
// them).
func (s *Scan) EmitsRuns() bool {
	if !s.EmitRuns || s.view != nil || len(s.src.Cols) != 1 {
		return false
	}
	c := &s.src.Cols[0]
	return c.Data != nil && c.Data.Kind() == enc.RunLength && c.Info.Heap == nil && c.Info.Type != types.String
}

// internInsertions interns the visible inserted strings into per-open
// heaps, one per selected string column; tail blocks carry these heaps.
func (s *Scan) internInsertions() {
	s.insHeaps = make([]*heap.Heap, len(s.src.Cols))
	s.insToks = make([][]uint64, len(s.src.Cols))
	for i, idx := range s.insIdxs {
		info := &s.src.Cols[i].Info
		if info.Type != types.String {
			continue
		}
		h := heap.New(info.Collation)
		toks := make([]uint64, len(s.view.Ins))
		for r, ins := range s.view.Ins {
			if v := ins.Vals[idx]; v.IsNullString() {
				toks[r] = types.NullToken
			} else {
				toks[r] = h.Append(v.Str)
			}
		}
		s.insHeaps[i], s.insToks[i] = h, toks
	}
}

// Next implements Operator.
func (s *Scan) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := s.next(b)
	s.endNext(start, b, ok && err == nil)
	return ok, err
}

func (s *Scan) next(b *vec.Block) (bool, error) {
	if err := s.qc.Err(); err != nil {
		return false, err
	}
	// The cursor is always vec.BlockSize-aligned, so a block the zone
	// filters prove empty advances it without decoding anything — no
	// reader call, no decode-cache charge.
	for s.at < s.src.Rows {
		at, n := s.at, s.src.Rows-s.at
		if n > vec.BlockSize {
			n = vec.BlockSize
		}
		s.at += n
		if s.pruner.skip(at / vec.BlockSize) {
			s.st.AddBlocksSkipped(1)
			continue
		}
		if s.view != nil && !s.survivors(at, n) {
			continue // whole block deleted: nothing to decode
		}
		if s.runs {
			// Runs are read into the buffer the caller's block already
			// owns, never one of the scan's: parallel consumers each hold
			// a block while the next is being filled.
			var runBuf []enc.Run
			if len(b.Vecs) > 0 {
				runBuf = b.Vecs[0].Runs[:0]
			}
			ensureVecs(b, len(s.schema))
			if err := s.fillRuns(&b.Vecs[0], runBuf, at, n); err != nil {
				return false, err
			}
			b.N = n
		} else if err := s.fillBlock(s.cols, b, at); err != nil {
			return false, err
		}
		if s.view != nil {
			s.overlayBase(b, at, n)
		}
		return true, nil
	}
	if s.view != nil && s.insAt < len(s.view.Ins) {
		s.nextInserted(b)
		return true, nil
	}
	return false, nil
}

// fillRuns hands the column's runs downstream instead of expanding them
// (compressed execution). Bytes scanned counts one value per run — the
// decode work actually done.
func (s *Scan) fillRuns(v *vec.Vector, buf []enc.Run, at, n int) error {
	c := &s.cols[0]
	runs, covered := c.r.ReadRuns(at, n, buf)
	if covered != n {
		return fmt.Errorf("exec: short run read of column %q: %d of %d rows at %d", c.info.Name, covered, n, at)
	}
	w := c.data.Width()
	for j := range runs {
		runs[j].Value = resolveRaw(runs[j].Value, w, &c.info)
	}
	v.Type, v.Heap, v.Dict = c.info.Type, c.info.Heap, c.info.Dict
	v.Runs = runs
	s.st.AddBytesScanned(int64(len(runs) * w))
	return nil
}

// survivors collects into s.keep the offsets of base rows [at, at+n) the
// view has not deleted, reporting whether any survive.
func (s *Scan) survivors(at, n int) bool {
	s.keep = s.keep[:0]
	for i := 0; i < n; i++ {
		if !s.view.BaseDeleted(at + i) {
			s.keep = append(s.keep, i)
		}
	}
	if dead := n - len(s.keep); dead > 0 {
		s.st.AddDeletedRows(int64(dead))
	}
	return len(s.keep) > 0
}

// overlayBase turns a filled base block into the view's: dictionary
// tokens become values (the merged stream must speak values, because
// inserted rows have no dictionary) and deleted rows are compacted away,
// $rowid's positions with the rest.
func (s *Scan) overlayBase(b *vec.Block, at, n int) {
	for i := range s.cols {
		v := &b.Vecs[i]
		if dict := v.Dict; dict != nil {
			null := types.NullBits(v.Type)
			for j, tok := range v.Data[:n] {
				if tok == types.NullToken {
					v.Data[j] = null
				} else {
					v.Data[j] = dict[tok]
				}
			}
			v.Dict = nil
		}
		if len(s.keep) != n {
			for j, src := range s.keep {
				v.Data[j] = v.Data[src]
			}
		}
	}
	b.N = len(s.keep)
}

// nextInserted emits one tail block of visible inserted rows.
func (s *Scan) nextInserted(b *vec.Block) {
	ins := s.view.Ins[s.insAt:]
	if len(ins) > vec.BlockSize {
		ins = ins[:vec.BlockSize]
	}
	ensureVecs(b, len(s.schema))
	for i, idx := range s.insIdxs {
		v := &b.Vecs[i]
		v.Type, v.Heap, v.Dict = s.schema[i].Type, s.insHeaps[i], nil
		switch toks := s.insToks[i]; {
		case toks != nil:
			copy(v.Data, toks[s.insAt:s.insAt+len(ins)])
		case idx < 0:
			for j := range ins {
				v.Data[j] = ins[j].ID
			}
		default:
			for j := range ins {
				v.Data[j] = ins[j].Vals[idx].Bits
			}
		}
	}
	b.N = len(ins)
	s.insAt += len(ins)
	s.st.AddDeltaRows(int64(len(ins)))
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.cols, s.cache, s.insHeaps, s.insToks = nil, nil, nil, nil
	return nil
}

// colReader fills block vectors from one column of a scan source. Scan
// and IndexedScan both read through it, so every source gets the same
// short-read check, widening, vector info and bytes_scanned accounting.
// A reader without a stream is $rowid's: it stamps row positions.
type colReader struct {
	info  ColInfo
	data  *enc.Stream
	r     *enc.Reader
	cache *DecodeCache // nil: decode straight from the stream
}

// newColReader reads a column through cache when there is one and the stream
// has the block structure the cache is keyed on.
func newColReader(info ColInfo, data *enc.Stream, cache *DecodeCache) colReader {
	if data == nil {
		return colReader{info: info}
	}
	if data.Kind() == enc.RunLength {
		cache = nil
	}
	return colReader{info: info, data: data, r: enc.NewReader(data), cache: cache}
}

// fill reads rows [at, at+n) into v.Data[off:off+n] as full-width bits
// and stamps v with the column's type, heap and dictionary. A stream that
// ends early fails the query: the rows it promised would otherwise be
// whatever the reused block held before.
func (c *colReader) fill(st *OpStats, v *vec.Vector, off, at, n int) error {
	dst := v.Data[off : off+n]
	v.Type, v.Heap, v.Dict = c.info.Type, c.info.Heap, c.info.Dict
	if c.data == nil {
		for j := range dst {
			dst[j] = uint64(at + j)
		}
		return nil
	}
	var got int
	if c.cache != nil {
		var hits, misses int64
		got, hits, misses = cacheRead(c.cache, c.data, at, n, dst)
		st.AddCacheHits(hits)
		st.AddCacheMisses(misses)
	} else {
		got = c.r.Read(at, n, dst)
	}
	if got != n {
		return fmt.Errorf("exec: short read of column %q: %d of %d rows at %d", c.info.Name, got, n, at)
	}
	w := c.data.Width()
	widenInPlace(dst, w, &c.info)
	st.AddBytesScanned(int64(n * w))
	return nil
}

// cacheRead copies n values starting at logical index start of stream st
// into out through the shared decode cache, one block lookup at a time,
// returning values copied and blocks hit/missed.
func cacheRead(c *DecodeCache, st *enc.Stream, start, n int, out []uint64) (copied int, hits, misses int64) {
	total := st.Len()
	if start >= total {
		return 0, 0, 0
	}
	if start+n > total {
		n = total - start
	}
	bs := st.BlockSize()
	for copied < n {
		idx := start + copied
		data, hit := c.ReadBlock(st, idx/bs)
		if hit {
			hits++
		} else {
			misses++
		}
		k := copy(out[copied:n], data[idx%bs:])
		if k == 0 {
			break
		}
		copied += k
	}
	return copied, hits, misses
}

// encRoutine renders the deduplicated encoding kinds of a table's columns
// in first-seen order, e.g. "dict+rle+raw".
func encRoutine(cols []BuiltColumn) string {
	var out string
	seen := map[enc.Kind]bool{}
	for i := range cols {
		if cols[i].Data == nil {
			continue // $rowid
		}
		k := cols[i].Data.Kind()
		if seen[k] {
			continue
		}
		seen[k] = true
		if out != "" {
			out += "+"
		}
		out += k.String()
	}
	return out
}

// ensureVecs sizes a block for n columns. Vectors come back plain (Runs
// cleared): producers that emit encoded blocks set Runs afterwards, so a
// reused output block never leaks a previous block's encoding.
func ensureVecs(b *vec.Block, n int) {
	for len(b.Vecs) < n {
		b.Vecs = append(b.Vecs, vec.Vector{Data: make([]uint64, vec.BlockSize)})
	}
	b.Vecs = b.Vecs[:n]
	for i := range b.Vecs {
		if cap(b.Vecs[i].Data) < vec.BlockSize {
			b.Vecs[i].Data = make([]uint64, vec.BlockSize)
		}
		b.Vecs[i].Data = b.Vecs[i].Data[:vec.BlockSize]
		b.Vecs[i].Runs = nil
	}
}
