package exec

import (
	"sort"

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

// Sort is the stop-and-go sorting operator. It materializes its input,
// sorts row indexes, and emits blocks in order. Note Sect. 4.3: operators
// that disturb data order can degrade downstream encodings — Sort is also
// what the Fig. 10 plan 3 uses to enable ordered aggregation.
//
// When the memory budget denies a charge and spilling is enabled, Sort
// degrades to an external merge sort: the buffered rows are sorted and
// written out as a compressed run, the buffer restarts empty, and Next
// merges the runs (pre-merged in passes of spillMergeFanIn when there are
// many) instead of walking an in-memory order index.
type Sort struct {
	OpInstr
	child  Operator
	keys   []SortKey
	schema []ColInfo

	cols  [][]uint64
	heaps []*heap.Heap // unified output heap per string column
	trs   []*heap.Translator
	order []int32
	at    int

	qc        *QueryCtx
	charged   int
	heapBytes int

	// external sort state
	mgr     *spill.Manager
	stats   *OpSpillStats
	specs   []spill.ColSpec
	runs    []string
	cursors []*mergeCursor
	rowBuf  []uint64
	heapBuf []*heap.Heap
}

// NewSort sorts child by keys.
func NewSort(child Operator, keys ...SortKey) *Sort {
	return &Sort{child: child, keys: keys, schema: child.Schema()}
}

// Schema implements Operator.
func (s *Sort) Schema() []ColInfo {
	out := make([]ColInfo, len(s.schema))
	copy(out, s.schema)
	for i := range out {
		if s.heaps != nil && s.heaps[i] != nil {
			out[i].Heap = s.heaps[i]
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

// charge accounts n bytes to the query and remembers them for release.
func (s *Sort) charge(n int) error {
	if err := s.qc.Charge("Sort", n); err != nil {
		return err
	}
	s.charged += n
	return nil
}

// initBuffers (re)creates the accumulation buffers, fresh heaps included.
func (s *Sort) initBuffers() {
	nc := len(s.schema)
	releaseTranslators(s.trs)
	s.cols = make([][]uint64, nc)
	s.heaps = make([]*heap.Heap, nc)
	s.trs = make([]*heap.Translator, nc)
	for c, info := range s.schema {
		if info.Type == types.String {
			s.heaps[c] = heap.New(collationOf(info))
			s.trs[c] = heap.NewTranslator(s.heaps[c], heap.NewAccelerator(s.heaps[c], 0), s.qc, "Sort")
		}
	}
	s.heapBytes = 0
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

// OpKind implements Instrumented.
func (s *Sort) OpKind() string { return "Sort" }

// OpChildren implements Instrumented.
func (s *Sort) OpChildren() []Operator { return []Operator{s.child} }

// Open implements Operator.
func (s *Sort) Open(qc *QueryCtx) (err error) {
	start := s.beginOpen(qc, "Sort")
	defer func() {
		if s.cursors != nil {
			s.st.SetRoutine("external")
		} else {
			s.st.SetRoutine("memory")
		}
		s.endOpen(start)
	}()
	s.qc = qc
	defer func() {
		if err != nil {
			s.cleanup()
		}
	}()
	if err := s.child.Open(qc); err != nil {
		return err
	}
	defer s.child.Close()
	s.initBuffers()
	defer func() { releaseTranslators(s.trs) }() // the memos die with the input
	nc := len(s.schema)
	b := vec.NewBlock(nc)
	for {
		ok, err := s.child.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		b.Materialize() // late-decode boundary: sort buffers plain columns
		for c := 0; c < nc; c++ {
			v := &b.Vecs[c]
			at := len(s.cols[c])
			s.cols[c] = append(s.cols[c], v.Data[:b.N]...)
			if s.trs[c] != nil {
				s.trs[c].Translate(v.Heap, s.cols[c][at:], s.cols[c][at:])
			}
		}
		// Sort buffers its whole input: charge the materialized block plus
		// any string-heap growth it caused.
		grown := heapSizes(s.heaps)
		if err := s.charge(rowFootprint(b.N, nc) + (grown - s.heapBytes)); err != nil {
			if !spillableErr(s.qc, err) {
				return err
			}
			// Degrade: flush the buffer (the denied block included) as one
			// sorted compressed run and start over empty.
			if err := s.spillRun(); err != nil {
				return err
			}
			continue
		}
		s.heapBytes = grown
	}
	if len(s.runs) > 0 {
		// Already external: the tail buffer becomes the last run, then the
		// runs are pre-merged down to a single merge's fan-in.
		if err := s.spillRun(); err != nil {
			return err
		}
		return s.openMerge()
	}
	n := 0
	if nc > 0 {
		n = len(s.cols[0])
	}
	if err := s.charge(n * 4); err != nil { // the order index
		if !spillableErr(s.qc, err) {
			return err
		}
		if err := s.spillRun(); err != nil {
			return err
		}
		return s.openMerge()
	}
	s.order = s.sortBuffer(n)
	s.at = 0
	return nil
}

// sortBuffer builds and sorts an order index over the first n buffered
// rows.
func (s *Sort) sortBuffer(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := order[a], order[b]
		for _, k := range s.keys {
			c := s.compare(k.Col, ra, rb)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return order
}

// spillRun sorts the buffered rows, writes them as one compressed run,
// and resets the buffer, returning its memory to the accountant.
func (s *Sort) spillRun() error {
	n := 0
	if len(s.cols) > 0 {
		n = len(s.cols[0])
	}
	if n == 0 {
		return nil
	}
	if s.mgr == nil {
		s.mgr = s.qc.SpillManager()
		s.stats = &s.opStats().Spill
		s.specs = spillSpecs(s.schema)
	}
	s.stats.AddSpill()
	order := s.sortBuffer(n)
	w, err := s.mgr.NewWriter(s.specs, &s.stats.IO)
	if err != nil {
		return err
	}
	row := make([]uint64, len(s.schema))
	for _, r := range order {
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
	// The buffer's memory goes back; the rows now live compressed on disk.
	s.qc.Release(s.charged)
	s.charged = 0
	s.initBuffers()
	return nil
}

// openMerge pre-merges runs down to spillMergeFanIn and opens the final
// merge cursors. Runs are kept in creation (= input) order and ties break
// toward the earlier cursor, preserving the stability of the in-memory
// sort.
func (s *Sort) openMerge() error {
	cursors, err := openMerge(s.qc, "Sort", s.mgr, s.specs, s.runs, &s.stats.IO, s.cursorLess)
	if err != nil {
		return err
	}
	s.cursors = cursors
	s.runs = nil
	s.rowBuf = make([]uint64, len(s.schema))
	s.heapBuf = make([]*heap.Heap, len(s.schema))
	return nil
}

// cursorLess orders two run cursors by the sort keys.
func (s *Sort) cursorLess(a, b *mergeCursor) bool {
	for _, k := range s.keys {
		c := s.cursorCompare(k.Col, a, b)
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// cursorCompare is compare across two run cursors; string values compare
// by collated content since each chunk carries its own heap.
func (s *Sort) cursorCompare(c int, ca, cb *mergeCursor) int {
	va, vb := ca.val(c), cb.val(c)
	info := s.schema[c]
	if info.Type == types.String {
		an, bn := va == types.NullToken, vb == types.NullToken
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		}
		return collationOf(info).Compare(ca.strHeap(c).Get(va), cb.strHeap(c).Get(vb))
	}
	return s.compareScalar(info, va, vb)
}

func (s *Sort) compareScalar(info ColInfo, va, vb uint64) int {
	t := info.Type
	resolve := func(v uint64) uint64 {
		if info.Dict != nil && v != types.NullToken {
			return info.Dict[v]
		}
		return v
	}
	xa, xb := resolve(va), resolve(vb)
	an, bn := types.IsNull(t, xa), types.IsNull(t, xb)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	return types.Compare(t, xa, xb)
}

// compare orders two materialized rows on column c; NULL sorts first.
func (s *Sort) compare(c int, ra, rb int32) int {
	va, vb := s.cols[c][ra], s.cols[c][rb]
	info := s.schema[c]
	if info.Type == types.String {
		an, bn := va == types.NullToken, vb == types.NullToken
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		}
		return s.heaps[c].Compare(va, vb)
	}
	return s.compareScalar(info, va, vb)
}

// Next implements Operator.
func (s *Sort) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := s.next(b)
	s.endNext(start, b, ok && err == nil)
	return ok, err
}

func (s *Sort) next(b *vec.Block) (bool, error) {
	if s.cursors != nil {
		return s.mergeNext(b)
	}
	n := len(s.order) - s.at
	if n <= 0 {
		return false, nil
	}
	if n > vec.BlockSize {
		n = vec.BlockSize
	}
	ensureVecs(b, len(s.schema))
	for c := range s.schema {
		v := &b.Vecs[c]
		v.Type = s.schema[c].Type
		v.Dict = s.schema[c].Dict
		if s.heaps[c] != nil {
			v.Heap = s.heaps[c]
		} else {
			v.Heap = s.schema[c].Heap
			if s.schema[c].Type == types.String {
				v.Heap = s.heaps[c]
			}
		}
		for i := 0; i < n; i++ {
			v.Data[i] = s.cols[c][s.order[s.at+i]]
		}
	}
	b.N = n
	s.at += n
	return true, nil
}

// mergeNext emits one block from the run merge. String values re-intern
// into fresh per-block heaps: rows in one block come from chunks of
// different runs, whose heaps are not shared.
func (s *Sort) mergeNext(b *vec.Block) (bool, error) {
	ensureVecs(b, len(s.schema))
	var blockHeaps []*heap.Heap
	for c, info := range s.schema {
		if info.Type == types.String {
			if blockHeaps == nil {
				blockHeaps = make([]*heap.Heap, len(s.schema))
			}
			blockHeaps[c] = heap.New(collationOf(info))
		}
	}
	n := 0
	for n < vec.BlockSize {
		i := pickMin(s.cursors, s.cursorLess)
		if i < 0 {
			break
		}
		cur := s.cursors[i]
		for c := range s.schema {
			v := cur.val(c)
			if blockHeaps != nil && blockHeaps[c] != nil && v != types.NullToken {
				v = blockHeaps[c].Append(cur.strHeap(c).Get(v))
			}
			b.Vecs[c].Data[n] = v
		}
		n++
		if err := cur.advance(); err != nil {
			return false, err
		}
		if cur.done {
			cur.close(true) // run consumed: free its disk budget eagerly
		}
	}
	if n == 0 {
		return false, nil
	}
	for c := range s.schema {
		v := &b.Vecs[c]
		v.Type = s.schema[c].Type
		v.Dict = s.schema[c].Dict
		v.Heap = nil
		if blockHeaps != nil && blockHeaps[c] != nil {
			v.Heap = blockHeaps[c]
		}
	}
	b.N = n
	return true, nil
}

// cleanup releases every charge and closes the merge state; run files are
// removed eagerly (the manager would also sweep them at query end).
func (s *Sort) cleanup() {
	for _, c := range s.cursors {
		if c != nil {
			c.close(true)
		}
	}
	s.cursors = nil
	for _, path := range s.runs {
		if s.mgr != nil {
			_ = s.mgr.Remove(path)
		}
	}
	s.runs = nil
	s.cols = nil
	s.order = nil
	s.trs = nil
	s.qc.Release(s.charged)
	s.charged = 0
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.cleanup()
	return nil
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
