package exec

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

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
// compressed columns and string columns emit tokens, so a filter can
// test them through a per-token truth table (Sect. 4.1); plain scalars
// emit resolved full-width values.
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
//     run-length column;
//   - the overlay, when the source is a delta.View (below).
//
// A stored table's scan may select RowIDColumn among its columns: it has
// no stream, and its reader stamps each row's position.
//
// Over a view the scan hands out the table's base blocks exactly as a
// clean scan does — dictionary tokens, stored-heap tokens, runs, zone
// pruning, the decode cache — minus the rows the view deleted, which are
// compacted out a bitmap word at a time (a run shrinks by its deleted
// rows). The visible insertions follow as tail blocks, resolved once, at
// construction, into each column's own domain: a string to its
// stored-heap token, a dictionary value to its token. A value the base
// lacks extends the domain — one extended heap or dictionary per scan,
// which every block of the column carries, base tokens keeping their
// numbers — so direct grouping and the token filters see one domain. A
// string column whose heap exceeds heapOrdinalLimit instead gives its
// tail a heap of its own and clears StoredHeap. The schema's metadata is
// the base's restated for the visible rows (viewMeta). Zone maps
// describe only base rows: pruning applies to base blocks, and the tail
// is emitted after them regardless.
//
// A range scan (ReadRanges) reads only the row ranges an index yields,
// in the index's order, instead of the whole table: Sect. 4.2's rank
// join as range skipping. Its morsels pack ranges instead of blocks, and
// a view's deleted rows and tail apply to them as to blocks.
type Scan struct {
	OpInstr
	src *Built // the column source: what every stage reads
	// table is the stored table src selects from (nil over a Built): it
	// names the scan and binds the planner's zone filters, which index
	// stored columns whether or not the scan selects them.
	table *storage.Table
	view  *delta.View // the write overlay; nil when the source is clean
	// tail[i] holds src.Cols[i]'s visible inserted values in the column's
	// domain, and tailHeap[i] the heap its string tokens index; tailNote
	// says how the token columns' tails resolved, for EXPLAIN.
	tail     [][]uint64
	tailHeap []*heap.Heap
	tailNote string
	schema   []ColInfo
	alias    string // the join alias As qualified the schema with

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

	// index yields a range scan's ranges (ReadRanges). Open drains it
	// into ranges, split so that none crosses a morsel; morsel m is
	// ranges[morsel[m]:morsel[m+1]], and charged is what they hold.
	index   Operator
	ranges  []rowRange
	morsel  []int
	charged int

	qc      *QueryCtx
	cols    []colReader
	cache   *DecodeCache // the query's decode cache over a stored table
	pruner  zonePruner
	at      int // next morsel
	base    int // base morsels: table blocks, or packed ranges
	nblocks int // base morsels, then tail blocks
	runs    bool
}

// rowRange is count base rows from start.
type rowRange struct{ start, count int }

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
		c, err := tableColumn(t, n)
		if err != nil {
			return nil, err
		}
		s.src.Cols = append(s.src.Cols, c)
	}
	s.schema = s.src.Schema()
	return s, nil
}

// tableColumn describes column name of t as a scan source column;
// RowIDColumn has no stream.
func tableColumn(t *storage.Table, name string) (BuiltColumn, error) {
	if name == RowIDColumn {
		return BuiltColumn{Info: ColInfo{Name: RowIDColumn, Type: types.Integer}}, nil
	}
	idx := t.ColumnIndex(name)
	if idx < 0 {
		return BuiltColumn{}, fmt.Errorf("exec: table %q has no column %q", t.Name, name)
	}
	c := t.Columns[idx]
	return BuiltColumn{Data: c.Data, Zones: c.Zones, Info: ColInfo{
		Name: c.Name, Type: c.Type, Collation: c.Collation,
		Heap: c.Heap, StoredHeap: c.Heap != nil, Dict: c.Dict, Meta: c.Meta,
	}}, nil
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
	s.tail = make([][]uint64, len(s.src.Cols))
	s.tailHeap = make([]*heap.Heap, len(s.src.Cols))
	var notes [3][]string // token columns whose tail is stored, extended, in a heap of its own
	for i := range s.src.Cols {
		info := &s.src.Cols[i].Info
		grown := s.resolveTail(i, v.Table.ColumnIndex(info.Name))
		info.Meta = viewMeta(info.Meta, info, v, s.tail[i], grown)
		switch {
		case len(v.Ins) == 0 || info.Dict == nil && info.Type != types.String:
		case s.tailHeap[i] != info.Heap:
			notes[2] = append(notes[2], info.Name)
		case grown > 0:
			notes[1] = append(notes[1], fmt.Sprintf("%s+%d", info.Name, grown))
		default:
			notes[0] = append(notes[0], info.Name)
		}
	}
	for k, kind := range []string{"stored", "extended", "heap"} {
		if len(notes[k]) > 0 {
			s.tailNote += fmt.Sprintf(" tail=%s(%s)", kind, strings.Join(notes[k], ","))
		}
	}
	s.schema = s.src.Schema()
	return s, nil
}

// resolveTail resolves the view's inserted values of selected column i
// (stored at idx, -1 for $rowid) into s.tail[i], extending the column's
// heap or dictionary with the values it lacks, and returns how many
// entries it added.
func (s *Scan) resolveTail(i, idx int) int {
	ins, info := s.view.Ins, &s.src.Cols[i].Info
	tail := make([]uint64, len(ins))
	s.tail[i], s.tailHeap[i] = tail, info.Heap
	switch {
	case len(ins) == 0:
	case idx < 0:
		for r := range ins {
			tail[r] = ins[r].ID
		}
	case info.Type == types.String && (info.Heap == nil || info.Heap.Size() > heapOrdinalLimit):
		h := heap.New(info.Collation)
		for r := range ins {
			if tail[r] = types.NullToken; !ins[r].Vals[idx].IsNullString() {
				tail[r] = h.Append(ins[r].Vals[idx].Str)
			}
		}
		s.tailHeap[i], info.StoredHeap = h, false
	case info.Type == types.String:
		toks := map[string]uint64{} // NullToken until located or appended
		for r := range ins {
			if v := ins[r].Vals[idx]; !v.IsNullString() {
				toks[v.Str] = types.NullToken
			}
		}
		info.Heap.Locate(toks)
		added := 0
		for r := range ins {
			v := ins[r].Vals[idx]
			if tail[r] = types.NullToken; v.IsNullString() {
				continue
			}
			if toks[v.Str] == types.NullToken {
				if added == 0 {
					info.Heap = info.Heap.Extend()
				}
				toks[v.Str] = info.Heap.Append(v.Str)
				added++
			}
			tail[r] = toks[v.Str]
		}
		s.tailHeap[i] = info.Heap
		return added
	case info.Dict != nil:
		dict, order := info.Dict[:len(info.Dict):len(info.Dict)], dictOrder(signedType(info.Type))
		added := map[uint64]uint64{}
		for r := range ins {
			bits := ins[r].Vals[idx].Bits
			at, ok := slices.BinarySearchFunc(info.Dict, bits, order)
			tok, seen := added[bits]
			switch {
			case ok:
				tok = uint64(at)
			case types.IsNull(info.Type, bits):
				tok = types.NullToken
			case !seen:
				tok = uint64(len(dict))
				dict, added[bits] = append(dict, bits), tok
			}
			tail[r] = tok
		}
		info.Dict = dict
		return len(added)
	default:
		for r := range ins {
			tail[r] = ins[r].Vals[idx].Bits
		}
	}
	return 0
}

// dictOrder orders scalar dictionary entries as the column's values
// compare; a stored dictionary is sorted by it.
func dictOrder(signed bool) func(a, b uint64) int {
	if signed {
		return func(a, b uint64) int { return cmp.Compare(int64(a), int64(b)) }
	}
	return cmp.Compare[uint64]
}

// viewMeta restates base metadata md for a view's visible rows: tail
// holds the inserted values in the column's domain (tokens for a
// dictionary or string column), and grown counts the entries they added
// to that domain. Deletions keep order, uniqueness and the domain, but
// surviving rows may no longer reach the extremes or be consecutive;
// insertions widen the range and keep sortedness only when they sort
// after the base.
func viewMeta(md enc.Metadata, info *ColInfo, v *delta.View, tail []uint64, grown int) enc.Metadata {
	md.RowCount = v.VisibleRows()
	tokens := info.Dict != nil || info.Type == types.String
	if v.DeletedRows > 0 {
		md = subsetMeta(md, info)
	}
	if len(tail) == 0 {
		return md
	}
	md.Dense, md.Unique, md.IsAffine = false, false, false
	if grown > 0 {
		md.EntriesSorted = false
	}
	order, null := dictOrder(signedType(info.Type) && !tokens), types.NullBits(info.Type)
	if tokens {
		null = types.NullToken
	}
	sorted, prev := md.HasRange, uint64(md.Max)
	for _, x := range tail {
		if x == null {
			md.HasNulls = md.HasNulls || md.NullsKnown
			sorted = false
			continue
		}
		if md.HasRange && order(x, uint64(md.Min)) < 0 {
			md.Min = int64(x)
		}
		if md.HasRange && order(uint64(md.Max), x) < 0 {
			md.Max = int64(x)
		}
		sorted = sorted && order(x, prev) >= 0
		prev = x
	}
	if md.SortedAsc && !sorted {
		md.SortedKnown, md.SortedAsc = false, false
	}
	if !tokens {
		grown = len(tail) // at most this many new values
		md.CardinalityExact = false
	}
	if md.CardinalityExact {
		md.Cardinality += grown
	}
	if md.CardinalityUpper > 0 {
		md.CardinalityUpper += grown
	}
	return md
}

// subsetMeta restates md for a subset of the column's rows, in their
// order: order, uniqueness, bounds and a token domain hold, but the rows
// may no longer reach the extremes or be consecutive.
func subsetMeta(md enc.Metadata, info *ColInfo) enc.Metadata {
	md.RangeExact, md.Dense, md.IsAffine = false, false, false
	md.CardinalityExact = md.CardinalityExact && (info.Dict != nil || info.Type == types.String)
	return md
}

// ReadRanges makes s a range scan: it reads only the base rows of the
// ranges index yields, in index order. index runs over an IndexTable
// (plan.IndexTable: value, $count, $start), filtered and possibly sorted
// on the value; Open drains it. The schema keeps what a subset of the
// rows keeps: a column stays sorted when the ranges come in row order
// ($start ascending), and the value column comes out sorted when the
// index is sorted on it and no tail follows (Sect. 4.2.2's ordered
// retrieval).
func (s *Scan) ReadRanges(index Operator) {
	s.index = index
	is := index.Schema()
	rowOrder := is[2].Meta.SortedKnown && is[2].Meta.SortedAsc
	valueOrder := is[0].Meta.SortedKnown && is[0].Meta.SortedAsc && (s.view == nil || len(s.view.Ins) == 0)
	for i := range s.schema {
		md := subsetMeta(s.schema[i].Meta, &s.schema[i])
		switch {
		case valueOrder && s.schema[i].Name == is[0].Name:
			md.SortedKnown, md.SortedAsc = true, true
		case !rowOrder:
			md.SortedKnown, md.SortedAsc = false, false
		}
		s.schema[i].Meta = md
	}
}

// BuildTable implements TableSource for a clean table scan: a join reads
// the stored columns in place, under the scan's column names, with their
// stored metadata and heaps. Like a scan's source they are not charged;
// the join charges what it decodes of them.
func (s *Scan) BuildTable(qc *QueryCtx) (*Built, error) {
	if s.table == nil || s.view != nil || s.index != nil {
		return nil, fmt.Errorf("exec: %s(%s) is not a stored table", s.OpKind(), s.OpLabel())
	}
	start := s.beginOpen(qc, s.OpKind())
	defer s.endOpen(start)
	bt := &Built{Rows: s.src.Rows, Cols: slices.Clone(s.src.Cols)}
	for i := range bt.Cols {
		bt.Cols[i].Info = s.schema[i]
		s.st.AddBytesScanned(int64(bt.Rows * bt.Cols[i].Data.Width()))
	}
	s.st.addRowsOut(int64(bt.Rows))
	s.st.SetRoutine("in-place(" + encRoutine(bt.Cols) + ")")
	return bt, nil
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

// OpLabel implements Instrumented: the source, "ranges" on a range
// scan, and the join alias As put on the column names ("lineitem as l").
func (s *Scan) OpLabel() string {
	label := ""
	if s.table != nil {
		label = s.table.Name
	}
	if s.view != nil {
		label += fmt.Sprintf(" +%d -%d", len(s.view.Ins), s.view.DeletedRows)
	}
	if s.index != nil {
		label += " ranges"
	}
	if s.alias != "" {
		label += " as " + s.alias
	}
	return label
}

// OpChildren implements Instrumented: a range scan's index.
func (s *Scan) OpChildren() []Operator {
	if s.index == nil {
		return nil
	}
	return []Operator{s.index}
}

// As qualifies the scan's column names with a join alias ("l.col"), so
// joined schemas stay unambiguous; an empty alias keeps bare names.
func (s *Scan) As(alias string) {
	if alias == "" {
		return
	}
	s.alias = alias
	for i := range s.schema {
		s.schema[i].Name = alias + "." + s.schema[i].Name
	}
}

// Open implements Operator.
func (s *Scan) Open(qc *QueryCtx) error {
	start := s.beginOpen(qc, s.OpKind())
	defer s.endOpen(start)
	s.qc = qc
	s.at = 0
	s.base = blocksOf(s.src.Rows)
	s.cache = nil
	if s.table != nil {
		s.pruner = newZonePruner(s.table, s.Prune)
		// Ranges read a few rows of many blocks: whole-block cache
		// entries would be filled for them.
		if s.index == nil {
			s.cache = qc.Cache()
		}
	}
	s.cols = s.newReaders()
	routine := encRoutine(s.src.Cols)
	if s.view != nil {
		routine = fmt.Sprintf("base+delta(ins=%d dels=%d epoch=%d%s)", len(s.view.Ins), s.view.DeletedRows, s.view.Epoch, s.tailNote)
	}
	if s.index != nil {
		if err := s.openRanges(qc); err != nil {
			return err
		}
		routine += fmt.Sprintf("+ranges(%d)", len(s.ranges))
	}
	s.nblocks = s.base
	if s.view != nil {
		s.nblocks += blocksOf(len(s.view.Ins))
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

func blocksOf(rows int) int { return (rows + vec.BlockSize - 1) / vec.BlockSize }

// openRanges drains the index into s.ranges, in its order, splitting a
// range where a morsel fills up: every morsel but the last holds exactly
// vec.BlockSize rows. The ranges are charged to the query until Close.
func (s *Scan) openRanges(qc *QueryCtx) error {
	if err := s.index.Open(qc); err != nil {
		s.index.Close()
		return err
	}
	defer s.index.Close()
	s.ranges, s.morsel = s.ranges[:0], append(s.morsel[:0], 0)
	b, fill := vec.NewBlock(len(s.index.Schema())), 0
	for {
		ok, err := s.index.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		b.Materialize()
		for i := 0; i < b.N; i++ {
			start, count := int(int64(b.Vecs[2].Data[i])), int(int64(b.Vecs[1].Data[i]))
			for count > 0 {
				take := min(count, vec.BlockSize-fill)
				s.ranges = append(s.ranges, rowRange{start, take})
				start, count, fill = start+take, count-take, fill+take
				if fill == vec.BlockSize {
					s.morsel, fill = append(s.morsel, len(s.ranges)), 0
				}
			}
		}
	}
	if fill > 0 {
		s.morsel = append(s.morsel, len(s.ranges))
	}
	s.base = len(s.morsel) - 1
	cost := cap(s.ranges)*16 + cap(s.morsel)*8
	if err := qc.Charge("Scan", cost-s.charged); err != nil {
		return err
	}
	s.charged = max(s.charged, cost)
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

// EmitsRuns reports whether the scan will hand its column downstream as
// runs: EmitRuns is set and the source is one scalar run-length column,
// read whole. A view's tail blocks stay plain.
func (s *Scan) EmitsRuns() bool {
	if !s.EmitRuns || s.index != nil || len(s.src.Cols) != 1 {
		return false
	}
	c := &s.src.Cols[0]
	return c.Data != nil && c.Data.Kind() == enc.RunLength && c.Info.Heap == nil && c.Info.Type != types.String
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
	for s.at < s.nblocks {
		s.at++
		if ok, err := s.block(s.cols, b, s.at-1); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// block fills b with morsel blk through cols — a base block or a range
// morsel, or past the base a tail block — and reports false, having
// decoded nothing, when the zone filters refute it or the view deleted
// all its rows. A base block's cursor is always vec.BlockSize-aligned,
// so a skipped block costs no reader call and no decode-cache charge.
func (s *Scan) block(cols []colReader, b *vec.Block, blk int) (bool, error) {
	if blk >= s.base {
		s.fillTail(b, (blk-s.base)*vec.BlockSize)
		return true, nil
	}
	if s.index != nil {
		return s.fillRanges(cols, b, blk)
	}
	at := blk * vec.BlockSize
	if s.pruner.skip(blk) {
		s.st.AddBlocksSkipped(1)
		return false, nil
	}
	n, dead := min(s.src.Rows-at, vec.BlockSize), 0
	var dels []uint64
	if s.view != nil {
		dels = s.view.Deleted(at, n)
		dead = deadIn(dels, 0, n)
		s.st.AddDeletedRows(int64(dead))
		if dead == n {
			return false, nil
		}
	}
	// Runs are read into the buffer the caller's block already owns,
	// never one of the scan's: parallel consumers each hold a block
	// while the next is being filled.
	var runBuf []enc.Run
	if s.runs && len(b.Vecs) > 0 {
		runBuf = b.Vecs[0].Runs[:0]
	}
	ensureVecs(b, len(s.schema))
	b.N = n
	if s.runs {
		if err := fillRuns(&cols[0], s.st, &b.Vecs[0], runBuf, at, n); err != nil {
			return false, err
		}
		if dead > 0 {
			b.Vecs[0].Runs, b.N = dropRunRows(b.Vecs[0].Runs, dels), n-dead
		}
		return true, nil
	}
	for i := range cols {
		if err := cols[i].fill(s.st, &b.Vecs[i], 0, at, n); err != nil {
			return false, err
		}
	}
	if dead > 0 {
		b.N = compactRows(b.Vecs, 0, n, dels, 0)
	}
	return true, nil
}

// fillRanges fills b with range morsel m through cols, dropping the rows
// the view deleted, and reports false when none is left. A range wholly
// deleted is not read.
func (s *Scan) fillRanges(cols []colReader, b *vec.Block, m int) (bool, error) {
	ensureVecs(b, len(s.schema))
	n := 0
	for _, r := range s.ranges[s.morsel[m]:s.morsel[m+1]] {
		var dels []uint64
		dead, lo := 0, r.start%64
		if s.view != nil {
			dels = s.view.Deleted(r.start, r.count)
			dead = deadIn(dels, lo, lo+r.count)
			s.st.AddDeletedRows(int64(dead))
			if dead == r.count {
				continue
			}
		}
		for i := range cols {
			if err := cols[i].fill(s.st, &b.Vecs[i], n, r.start, r.count); err != nil {
				return false, err
			}
		}
		if dead > 0 {
			n += compactRows(b.Vecs, n, r.count, dels, lo)
		} else {
			n += r.count
		}
	}
	b.N = n
	return n > 0, nil
}

// fillRuns hands the column's runs downstream instead of expanding them
// (compressed execution). Bytes scanned counts one value per run — the
// decode work actually done.
func fillRuns(c *colReader, st *OpStats, v *vec.Vector, buf []enc.Run, at, n int) error {
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
	st.AddBytesScanned(int64(len(runs) * w))
	return nil
}

// deadIn counts the rows in [lo, hi) that deletion bitmap words mark.
func deadIn(words []uint64, lo, hi int) int {
	n := 0
	for lo < hi {
		w, k := words[lo/64]>>(lo%64), min(64-lo%64, hi-lo)
		if k < 64 {
			w &= 1<<k - 1
		}
		n += bits.OnesCount64(w)
		lo += k
	}
	return n
}

// compactRows drops from rows [off, off+n) of plain vectors vecs those
// that deletion bitmap words dels mark from bit lo on, a bitmap word at a
// time (a stretch without deletions moves as one copy), and returns how
// many rows it kept, from off on.
func compactRows(vecs []vec.Vector, off, n int, dels []uint64, lo int) int {
	out := off
	for j := 0; j < n; {
		p := lo + j
		w, k := dels[p/64]>>(p%64), min(64-p%64, n-j)
		if k < 64 {
			w &= 1<<k - 1
		}
		for i := range vecs {
			d, o := vecs[i].Data, out
			if w == 0 {
				copy(d[o:], d[off+j:off+j+k])
				continue
			}
			for t := 0; t < k; t++ {
				if w>>t&1 == 0 {
					d[o] = d[off+j+t]
					o++
				}
			}
		}
		out += k - bits.OnesCount64(w)
		j += k
	}
	return out - off
}

// dropRunRows shrinks each run by the rows dels marks, in place, dropping
// runs left empty.
func dropRunRows(runs []enc.Run, dels []uint64) []enc.Run {
	out, at := runs[:0], 0
	for _, r := range runs {
		if c := r.Count - deadIn(dels, at, at+r.Count); c > 0 {
			out = append(out, enc.Run{Value: r.Value, Count: c})
		}
		at += r.Count
	}
	return out
}

// fillTail fills b with the view's inserted rows from index from on.
func (s *Scan) fillTail(b *vec.Block, from int) {
	n := min(len(s.view.Ins)-from, vec.BlockSize)
	ensureVecs(b, len(s.schema))
	for i := range s.tail {
		v := &b.Vecs[i]
		v.Type, v.Heap, v.Dict = s.schema[i].Type, s.tailHeap[i], s.schema[i].Dict
		copy(v.Data, s.tail[i][from:from+n])
	}
	b.N = n
	s.st.AddDeltaRows(int64(n))
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.cols, s.cache = nil, nil
	s.qc.Release(s.charged)
	s.charged = 0
	return nil
}

// colReader fills block vectors from one column of a scan source, a
// block or a range at a time, so every source gets the same short-read
// check, widening, vector info and bytes_scanned accounting. A reader
// without a stream is $rowid's: it stamps row positions.
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
