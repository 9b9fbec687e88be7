package exec

import (
	"cmp"
	"slices"
	"strconv"

	"tde/internal/heap"
	"tde/internal/spill"
	"tde/internal/types"
	"tde/internal/vec"
)

// SortKey describes one sort column.
type SortKey struct {
	Col  int
	Desc bool
}

// orderKey is one sort key compiled against its column: what a compare
// reads is resolved once per operator, not once per compare.
type orderKey struct {
	col  int
	desc bool
	typ  types.Type
	str  bool
	dict []uint64
	coll types.Collation
}

// rowOrder is the engine's one row order. NULL sorts first (last when
// descending), strings by collated content, dictionary codes by the
// values they stand for, reals by value with NaN below every number.
type rowOrder struct {
	keys []orderKey
	// bits breaks ties between scalars that compare equal but differ in
	// bits (-0.0 and 0.0): the aggregation groups on bits, and its merge
	// fallback's ordered fold must see each group's rows together.
	bits bool
}

func newRowOrder(schema []ColInfo, keys []SortKey) rowOrder {
	o := rowOrder{keys: make([]orderKey, len(keys))}
	for i, k := range keys {
		info := schema[k.Col]
		o.keys[i] = orderKey{col: k.Col, desc: k.Desc, typ: info.Type, str: info.Type == types.String,
			dict: info.Dict, coll: collationOf(info)}
	}
	return o
}

// rowRef names row i of a column-wise row set whose string tokens heaps
// resolve.
type rowRef struct {
	cols  [][]uint64
	heaps []*heap.Heap
	i     int
}

// compare orders rows a and b: negative when a sorts first.
func (o *rowOrder) compare(a, b *rowRef) int {
	for i := range o.keys {
		k := &o.keys[i]
		c := k.compare(a.cols[k.col][a.i], b.cols[k.col][b.i], a.heaps[k.col], b.heaps[k.col], o.bits)
		if c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

func (k *orderKey) compare(va, vb uint64, ha, hb *heap.Heap, bits bool) int {
	if k.str {
		if an, bn := va == types.NullToken, vb == types.NullToken; an || bn {
			return nullsFirst(an, bn)
		}
		return heap.CompareAcross(k.coll, ha, va, hb, vb)
	}
	xa, xb := k.value(va), k.value(vb)
	if an, bn := types.IsNull(k.typ, xa), types.IsNull(k.typ, xb); an || bn {
		return nullsFirst(an, bn)
	}
	var c int
	if k.typ == types.Real {
		c = cmp.Compare(types.ToReal(xa), types.ToReal(xb))
	} else {
		c = types.Compare(k.typ, xa, xb)
	}
	if c == 0 && bits {
		c = cmp.Compare(va, vb)
	}
	return c
}

// value resolves a dictionary code to the value it stands for.
func (k *orderKey) value(v uint64) uint64 {
	switch {
	case k.dict == nil:
		return v
	case v == types.NullToken:
		return types.NullBits(k.typ)
	}
	return k.dict[v]
}

// nullsFirst orders two values of which at least one is NULL.
func nullsFirst(an, bn bool) int {
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	}
	return 1
}

// rowSort is the engine's one row sort: the Sort operator's, bounded or
// not, and the aggregation's merge fallback's. It buffers rows
// column-wise, their strings re-interned into heaps of its own, produces
// a position order under one rowOrder and gathers the rows in it. When
// the budget denies the buffer and the query may spill, the buffer is
// written out as a sorted compressed run and starts over empty, and in
// the end the runs are merged.
//
// With a bound n only the first n rows in order are kept: the buffer
// holds the best n rows so far, in order, and at most a block of
// candidates. A row that does not sort before the n-th is dropped with
// one compare; before candidates would outgrow a block they are sorted
// in and the buffer is cut back to n rows, whose strings move to fresh
// heaps, so memory is O(n) whatever the input. A spilled run holds at
// most n rows and the merge stops after n. Ties keep input order, as
// they do without a bound.
type rowSort struct {
	qc    *QueryCtx
	op    string
	stats *OpSpillStats
	order rowOrder
	specs []spill.ColSpec // how each column spills; Str marks the string columns
	limit int             // the bound n; 0 keeps every row

	cols    [][]uint64
	heaps   []*heap.Heap
	trs     []*heap.Translator
	kept    int // bounded: rows [0, kept) are the best so far, in order
	charged int

	mgr  *spill.Manager
	runs []string

	// The output: an order over the buffer, or the runs' merge.
	idx     []int32
	at      int
	cursors []*mergeCursor
	emitted int
}

func newRowSort(qc *QueryCtx, op string, stats *OpSpillStats, order rowOrder, specs []spill.ColSpec, limit int) *rowSort {
	s := &rowSort{qc: qc, op: op, stats: stats, order: order, specs: specs, limit: limit}
	s.reset()
	return s
}

// reset empties the buffer into fresh heaps; account then returns its
// memory.
func (s *rowSort) reset() {
	releaseTranslators(s.trs)
	nc := len(s.specs)
	s.cols = make([][]uint64, nc)
	s.heaps = make([]*heap.Heap, nc)
	s.trs = make([]*heap.Translator, nc)
	for c, sp := range s.specs {
		if sp.Str {
			s.heaps[c] = heap.New(sp.Collation)
			s.trs[c] = heap.NewTranslator(s.heaps[c], heap.NewAccelerator(s.heaps[c], 0), s.qc, s.op)
		}
	}
	s.kept = 0
}

func (s *rowSort) rows() int {
	if len(s.cols) == 0 {
		return 0
	}
	return len(s.cols[0])
}

// account sets the buffer's charge to what it holds: its rows, its
// heaps and extra bytes.
func (s *rowSort) account(extra int) error {
	want := rowFootprint(s.rows(), len(s.cols)) + heapSizes(s.heaps) + extra
	if want > s.charged {
		if err := s.qc.Charge(s.op, want-s.charged); err != nil {
			return err
		}
	} else {
		s.qc.Release(s.charged - want)
	}
	s.charged = want
	return nil
}

// add buffers n rows given column-wise, their string tokens resolved by
// heaps. When the budget denies them and the query may spill, the
// buffer, these rows included, becomes a run.
func (s *rowSort) add(cols [][]uint64, heaps []*heap.Heap, n int) error {
	if s.limit > 0 && s.rows()-s.limit > vec.BlockSize-n { // rows+n > limit+BlockSize, without overflow
		s.truncate()
	}
	at := s.rows()
	if s.limit > 0 && s.kept == s.limit {
		in, cut := rowRef{cols: cols, heaps: heaps}, rowRef{cols: s.cols, heaps: s.heaps, i: s.kept - 1}
		for in.i = 0; in.i < n; in.i++ {
			if s.order.compare(&in, &cut) < 0 {
				for c := range cols {
					s.cols[c] = append(s.cols[c], cols[c][in.i])
				}
			}
		}
	} else {
		for c := range cols {
			s.cols[c] = append(s.cols[c], cols[c][:n]...)
		}
	}
	for c, tr := range s.trs {
		if tr != nil {
			tr.Translate(heaps[c], s.cols[c][at:], s.cols[c][at:])
		}
	}
	err := s.account(0)
	if err == nil || !spillableErr(s.qc, err) {
		return err
	}
	return s.spillRun()
}

// sorted returns the buffered rows' positions in order. Only the
// candidates are sorted; a bounded buffer's kept rows already are, and
// merge with them, ties to the kept (earlier) row.
func (s *rowSort) sorted() []int32 {
	idx := make([]int32, s.rows())
	for i := range idx {
		idx[i] = int32(i)
	}
	a, b := rowRef{cols: s.cols, heaps: s.heaps}, rowRef{cols: s.cols, heaps: s.heaps}
	slices.SortFunc(idx[s.kept:], func(x, y int32) int {
		a.i, b.i = int(x), int(y)
		if c := s.order.compare(&a, &b); c != 0 {
			return c
		}
		return cmp.Compare(x, y) // ties keep input order
	})
	if s.kept == 0 {
		return idx
	}
	out := make([]int32, 0, len(idx))
	i, j := 0, s.kept
	for i < s.kept && j < len(idx) {
		a.i, b.i = i, int(idx[j])
		if s.order.compare(&b, &a) < 0 {
			out = append(out, idx[j])
			j++
		} else {
			out = append(out, int32(i))
			i++
		}
	}
	out = append(out, idx[i:s.kept]...)
	return append(out, idx[j:]...)
}

// cut keeps the first rows of an order that the bound admits.
func (s *rowSort) cut(idx []int32) []int32 {
	if s.limit > 0 && len(idx) > s.limit {
		return idx[:s.limit]
	}
	return idx
}

// truncate sorts the candidates in and cuts the buffer back to the
// bound, moving the kept rows' strings to fresh heaps; the next account
// returns the rest.
func (s *rowSort) truncate() {
	idx := s.cut(s.sorted())
	cols, heaps := s.cols, s.heaps
	s.reset()
	for c := range cols {
		s.cols[c] = make([]uint64, len(idx), len(idx)+vec.BlockSize)
		for i, r := range idx {
			s.cols[c][i] = cols[c][r]
		}
		if s.trs[c] != nil {
			s.trs[c].Translate(heaps[c], s.cols[c], s.cols[c])
		}
	}
	s.kept = len(idx)
}

// spillRun writes the buffer, sorted and cut to the bound, as one
// compressed run and empties it, returning its memory.
func (s *rowSort) spillRun() error {
	if s.rows() == 0 {
		return nil
	}
	if s.mgr == nil {
		s.mgr = s.qc.SpillManager()
	}
	s.stats.AddSpill()
	w, err := s.mgr.NewWriter(s.specs, &s.stats.IO)
	if err != nil {
		return err
	}
	row := make([]uint64, len(s.cols))
	for _, r := range s.cut(s.sorted()) {
		for c := range s.cols {
			row[c] = s.cols[c][r]
		}
		if err := w.Append(row, s.heaps); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	s.runs = append(s.runs, w.Path())
	s.stats.AddPartitions(1)
	s.reset()
	return s.account(0)
}

// finish ends the input. The buffer sorts in memory, unless runs were
// spilled or the order index is denied: then it becomes the last run and
// the runs merge.
func (s *rowSort) finish() error {
	releaseTranslators(s.trs) // the memos die with the input
	if len(s.runs) == 0 {
		err := s.account(s.rows() * 4) // the order index
		if err == nil {
			s.idx, s.at = s.cut(s.sorted()), 0
			return nil
		}
		if !spillableErr(s.qc, err) {
			return err
		}
	}
	if err := s.spillRun(); err != nil {
		return err
	}
	return s.openMerge()
}

// openMerge opens the merge over the runs, first pre-merging them while
// there are more than one merge reads at once: spillMergeFanIn, or, from
// two on, as many as hold a chunk each within half the budget left when
// the merge opens. The other half is the merge's consumer's (Sort's
// output, or the ordered fold's running group), so how many runs were
// spilled, which varies with the workers' timing, does not decide
// whether the consumer fits. The pre-merge goes level by level: each
// level merges adjacent runs in groups, in input order, into the next
// level's runs, so a row is rewritten once per level, and pickMin's
// earliest-run tie-break keeps ties in input order.
func (s *rowSort) openMerge() error {
	share := -1
	if b := s.qc.Budget(); b > 0 {
		share = int(b-s.qc.Used()) / 2
	}
	for {
		// s.runs[:out] are this level's merged runs, s.runs[at:] the runs
		// left to merge; those between are consumed.
		out := 0
		for at := 0; at < len(s.runs); out++ {
			if at == len(s.runs)-1 && out > 0 { // a last run alone moves up as it is
				s.runs[out] = s.runs[at]
				at++
				continue
			}
			var cursors []*mergeCursor
			var err error
			held := 0
			for _, path := range s.runs[at:min(len(s.runs), at+spillMergeFanIn)] {
				var c *mergeCursor
				if c, err = openMergeCursor(s.qc, s.op, s.mgr, path, &s.stats.IO); err != nil {
					break
				}
				if len(cursors) >= 2 && share >= 0 && held+c.charged > share {
					c.close(false)
					break
				}
				held += c.charged
				cursors = append(cursors, c)
			}
			n := len(cursors)
			if err == nil && n == len(s.runs) {
				s.cursors, s.runs = cursors, nil
				return nil
			}
			var merged string
			if err == nil || n >= 2 && spillableErr(s.qc, err) {
				merged, err = s.mergeRuns(cursors)
			}
			for _, c := range cursors {
				c.close(err == nil) // inputs are consumed on success, kept for cleanup on failure
			}
			if err != nil {
				s.runs = append(s.runs[:out], s.runs[at:]...) // what close must remove
				return err
			}
			s.runs[out] = merged
			at += n
		}
		s.runs = s.runs[:out]
	}
}

// mergeRuns drains cursors into one new run, cut to the bound.
func (s *rowSort) mergeRuns(cursors []*mergeCursor) (string, error) {
	w, err := s.mgr.NewWriter(s.specs, &s.stats.IO)
	if err != nil {
		return "", err
	}
	row := make([]uint64, len(s.specs))
	for n := 0; s.limit == 0 || n < s.limit; n++ {
		i := pickMin(cursors, &s.order)
		if i < 0 {
			break
		}
		cur := cursors[i]
		for c := range row {
			row[c] = cur.val(c)
		}
		if err := w.Append(row, cur.row.heaps); err != nil {
			w.Close()
			return "", err
		}
		if err := cur.advance(); err != nil {
			w.Close()
			return "", err
		}
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	return w.Path(), nil
}

// pickMin returns the index of the live cursor whose row sorts first,
// ties to the lowest index: runs are opened in input order, which is what
// keeps the external sort stable.
func pickMin(cs []*mergeCursor, o *rowOrder) int {
	best := -1
	for i, c := range cs {
		if c == nil || c.done {
			continue
		}
		if best < 0 || o.compare(&c.row, &cs[best].row) < 0 {
			best = i
		}
	}
	return best
}

// pop hands the merge's next row to fn and moves past it; false once the
// runs or the bound are exhausted.
func (s *rowSort) pop(fn func(cur *mergeCursor)) (bool, error) {
	if s.limit > 0 && s.emitted == s.limit {
		return false, nil
	}
	i := pickMin(s.cursors, &s.order)
	if i < 0 {
		return false, nil
	}
	cur := s.cursors[i]
	fn(cur)
	s.emitted++
	if err := cur.advance(); err != nil {
		return false, err
	}
	if cur.done {
		cur.close(true) // run consumed: free its disk budget eagerly
	}
	return true, nil
}

// close returns every charge and removes the runs still on disk (the
// query's spill manager would also sweep them at its end).
func (s *rowSort) close() {
	for _, c := range s.cursors {
		if c != nil {
			c.close(true)
		}
	}
	for _, path := range s.runs {
		_ = s.mgr.Remove(path)
	}
	releaseTranslators(s.trs)
	s.cursors, s.runs, s.cols, s.trs, s.idx = nil, nil, nil, nil, nil
	s.qc.Release(s.charged)
	s.charged = 0
}

// Sort is the stop-and-go sorting operator, ORDER BY's, with a bound for
// ORDER BY … LIMIT n. Note Sect. 4.3: operators that disturb data order
// can degrade downstream encodings — Sort is also what the Fig. 10 plan 3
// uses to enable ordered aggregation. rowSort does the work, in memory or,
// when the budget denies it and spilling is enabled, as an external merge
// sort.
type Sort struct {
	OpInstr
	child  Operator
	keys   []SortKey
	limit  int
	schema []ColInfo
	rs     *rowSort
}

// NewSort sorts child by keys.
func NewSort(child Operator, keys ...SortKey) *Sort {
	return NewBoundedSort(child, 0, keys...)
}

// NewBoundedSort emits the first n rows of child under keys; n = 0 emits
// them all.
func NewBoundedSort(child Operator, n int, keys ...SortKey) *Sort {
	return &Sort{child: child, keys: keys, limit: n, schema: child.Schema()}
}

// Schema implements Operator.
func (s *Sort) Schema() []ColInfo {
	out := make([]ColInfo, len(s.schema))
	copy(out, s.schema)
	for i := range out {
		if s.rs != nil && s.rs.heaps[i] != nil {
			out[i].Heap = s.rs.heaps[i]
		}
		out[i].StoredHeap = false // a spilled merge emits its runs' heaps
		out[i].Meta.SortedKnown, out[i].Meta.SortedAsc = false, false
	}
	// The primary key column is sorted on output (the external merge
	// produces the same order as the in-memory sort); the others lose
	// their input order.
	if len(s.keys) > 0 && !s.keys[0].Desc {
		out[s.keys[0].Col].Meta.SortedKnown = true
		out[s.keys[0].Col].Meta.SortedAsc = true
	}
	return out
}

// OpKind implements Instrumented.
func (s *Sort) OpKind() string { return "Sort" }

// OpLabel implements Instrumented: a bounded sort names its bound.
func (s *Sort) OpLabel() string {
	if s.limit > 0 {
		return "top " + strconv.Itoa(s.limit)
	}
	return ""
}

// OpChildren implements Instrumented.
func (s *Sort) OpChildren() []Operator { return []Operator{s.child} }

// Open implements Operator: it consumes the child.
func (s *Sort) Open(qc *QueryCtx) (err error) {
	start := s.beginOpen(qc, "Sort")
	defer func() {
		if s.rs.cursors != nil {
			s.st.SetRoutine("external")
		} else {
			s.st.SetRoutine("memory")
		}
		s.endOpen(start)
	}()
	if s.rs != nil {
		s.rs.close() // a re-Open starts over
	}
	s.rs = newRowSort(qc, "Sort", &s.opStats().Spill, newRowOrder(s.schema, s.keys), spillSpecs(s.schema), s.limit)
	defer func() {
		if err != nil {
			s.rs.close()
		}
	}()
	if err := s.child.Open(qc); err != nil {
		return err
	}
	defer s.child.Close()
	nc := len(s.schema)
	b := vec.NewBlock(nc)
	cols, heaps := make([][]uint64, nc), make([]*heap.Heap, nc)
	for {
		ok, err := s.child.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		b.Materialize() // late-decode boundary: sort buffers plain columns
		for c := range cols {
			cols[c], heaps[c] = b.Vecs[c].Data, b.Vecs[c].Heap
		}
		if err := s.rs.add(cols, heaps, b.N); err != nil {
			return err
		}
	}
	return s.rs.finish()
}

// Next implements Operator.
func (s *Sort) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := s.next(b)
	s.endNext(start, b, ok && err == nil)
	return ok, err
}

func (s *Sort) next(b *vec.Block) (bool, error) {
	rs := s.rs
	if rs.cursors != nil {
		return s.mergeNext(b)
	}
	n := min(len(rs.idx)-rs.at, vec.BlockSize)
	if n <= 0 {
		return false, nil
	}
	ensureVecs(b, len(s.schema))
	for c, info := range s.schema {
		v := &b.Vecs[c]
		v.Type, v.Heap, v.Dict = info.Type, info.Heap, info.Dict
		if rs.heaps[c] != nil {
			v.Heap = rs.heaps[c]
		}
		for i, r := range rs.idx[rs.at : rs.at+n] {
			v.Data[i] = rs.cols[c][r]
		}
	}
	b.N = n
	rs.at += n
	return true, nil
}

// mergeNext emits one block from the run merge. String values re-intern
// into fresh per-block heaps: rows in one block come from chunks of
// different runs, whose heaps are not shared.
func (s *Sort) mergeNext(b *vec.Block) (bool, error) {
	ensureVecs(b, len(s.schema))
	heaps := make([]*heap.Heap, len(s.schema))
	for c, sp := range s.rs.specs {
		if sp.Str {
			heaps[c] = heap.New(sp.Collation)
		}
	}
	n := 0
	for ; n < vec.BlockSize; n++ {
		ok, err := s.rs.pop(func(cur *mergeCursor) {
			for c, h := range heaps {
				v := cur.val(c)
				if h != nil && v != types.NullToken {
					v = h.Append(cur.strHeap(c).Get(v))
				}
				b.Vecs[c].Data[n] = v
			}
		})
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
	}
	if n == 0 {
		return false, nil
	}
	for c, info := range s.schema {
		v := &b.Vecs[c]
		v.Type, v.Heap, v.Dict = info.Type, heaps[c], info.Dict
	}
	b.N = n
	return true, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	if s.rs != nil {
		s.rs.close()
	}
	return nil
}

// releaseTranslators returns the memos of a set of per-column translators
// (nil entries for non-string columns) to their budget.
func releaseTranslators(trs []*heap.Translator) {
	for _, tr := range trs {
		if tr != nil {
			tr.Release()
		}
	}
}

// heapSizes totals the byte size of the non-nil heaps, the unit the
// accountant charges for string re-interning growth.
func heapSizes(hs []*heap.Heap) int {
	total := 0
	for _, h := range hs {
		if h != nil {
			total += h.Size()
		}
	}
	return total
}
