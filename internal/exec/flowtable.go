package exec

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// FlowTableConfig controls the materialization behaviour; the toggles
// correspond to the experimental arms of Sect. 6 (encoding on/off, heap
// acceleration on/off).
type FlowTableConfig struct {
	// Encode enables dynamic encoding (Sect. 3.2). Off, columns are
	// stored raw — the baseline arm of Figures 4-9.
	Encode bool
	// Accelerate enables the heap accelerator for string columns
	// (Sect. 5.1.4). Off, every string is appended to the heap and tokens
	// are not distinct.
	Accelerate bool
	// AcceleratorLimit overrides the accelerator giveup threshold.
	AcceleratorLimit int
	// Parallel gives every column a builder of its own, fed in order from
	// a small ring of blocks (Sect. 3.3: "encoding of each column is
	// independent"); off, the columns are built inline, one after another.
	Parallel bool
	// SortHeaps sorts small string heaps when the token column dictionary-
	// encodes, giving comparable tokens (Sect. 3.4.3 / Fig. 6).
	SortHeaps bool
	// Narrow applies type narrowing to the built columns (Sect. 3.4.1).
	Narrow bool
	// KindMask restricts the dynamic encoder's choices (see
	// enc.WriterConfig.KindMask); zero allows everything.
	KindMask uint16
}

// DefaultFlowTableConfig is the everything-on production configuration.
func DefaultFlowTableConfig() FlowTableConfig {
	return FlowTableConfig{Encode: true, Accelerate: true, SortHeaps: true, Narrow: true}
}

// FlowTable is the stop-and-go operator that turns a stream of row blocks
// into a table (Sect. 3.3). While building it runs the dynamic encoder on
// every column, gathers statistics, and applies the encoding manipulations
// of Sect. 3.4 as a post-processing step: heap sorting, type narrowing and
// metadata extraction. The extracted metadata is what the tactical
// optimizer consumes to pick join and aggregation algorithms.
type FlowTable struct {
	OpInstr
	child  Operator
	cfg    FlowTableConfig
	schema []ColInfo

	built *Built
	scan  *Scan

	// memory accounting: cost is the full build footprint, charged the
	// first time BuildTable runs and re-charged on cache hits under a new
	// query context; charged is what this table currently holds.
	qc      *QueryCtx
	charged int
	cost    int
}

// NewFlowTable materializes child with cfg. A dictionary column is stored
// as tokens only over a sorted dictionary, as a stored column's is (zone
// filters map value ranges through it); a view's extended dictionary is
// not, so its column is stored as values.
func NewFlowTable(child Operator, cfg FlowTableConfig) *FlowTable {
	schema := child.Schema()
	for i, info := range schema {
		if d := info.Dict; d != nil && !slices.IsSortedFunc(d, dictOrder(signedType(info.Type))) {
			schema = slices.Clone(schema)
			schema[i].Dict = nil
		}
	}
	return &FlowTable{child: child, cfg: cfg, schema: schema}
}

// Schema implements Operator.
func (f *FlowTable) Schema() []ColInfo { return f.schema }

// OpKind implements Instrumented.
func (f *FlowTable) OpKind() string { return "FlowTable" }

// OpChildren implements Instrumented.
func (f *FlowTable) OpChildren() []Operator { return []Operator{f.child} }

// columnBuilder accumulates one column.
type columnBuilder struct {
	info   ColInfo
	writer *enc.Writer
	// String translation: unify the (possibly per-block) input heaps into
	// one output heap. tr is nil for non-strings and preserved tokens.
	acc     *heap.Accelerator
	outHeap *heap.Heap
	tr      *heap.Translator
	scratch []uint64
	// heapBytes is outHeap's size after the last block, read and written
	// only by whoever appends this column's blocks.
	heapBytes int
}

// BuildTable implements TableSource: it drains the child and returns the
// materialized, post-processed table.
func (f *FlowTable) BuildTable(qc *QueryCtx) (*Built, error) {
	start := f.beginOpen(qc, "FlowTable")
	defer func() {
		if f.built != nil {
			// The table's full row count is this operator's output, whether
			// freshly built or served from cache; the scanning wrapper below
			// (Next) records time only, so rows are never double-counted.
			f.st.addRowsOut(int64(f.built.Rows))
			f.st.SetRoutine(encRoutine(f.built.Cols))
		}
		f.endOpen(start)
	}()
	if f.built != nil {
		// Cache hit under a fresh query context (shared plans): re-charge
		// the build footprint so the new query's accountant sees it.
		if f.charged == 0 && f.cost > 0 {
			if err := qc.Charge("FlowTable", f.cost); err != nil {
				return nil, err
			}
			f.charged = f.cost
			f.qc = qc
		}
		return f.built, nil
	}
	qc.Trace("FlowTable")
	defer func() {
		// A failed build must not leak its partial charges.
		if f.built == nil && f.charged > 0 {
			qc.Release(f.charged)
			f.charged = 0
		}
	}()
	if err := f.child.Open(qc); err != nil {
		return nil, err
	}
	defer f.child.Close()

	builders := make([]*columnBuilder, len(f.schema))
	for i, info := range f.schema {
		cb := &columnBuilder{info: info, scratch: make([]uint64, vec.BlockSize)}
		wcfg := enc.WriterConfig{
			Signed:          signedType(info.Type) && info.Dict == nil && info.Type != types.String,
			Sentinel:        sentinelFor(info),
			HasSentinel:     true,
			DisableEncoding: !f.cfg.Encode,
			KindMask:        f.cfg.KindMask,
			ConvertOptimal:  f.cfg.Encode,
		}
		if info.Type == types.String {
			// Heap tokens dictionary-encode when the domain is small,
			// enabling heap sorting and comparable tokens (Sect. 6.3).
			wcfg.PreferDict = true
			wcfg.DisallowRLE = true
			coll := info.Collation
			if info.Heap != nil {
				coll = info.Heap.Collation()
			}
			cb.outHeap = heap.New(coll)
			if f.cfg.Accelerate {
				cb.acc = heap.NewAccelerator(cb.outHeap, f.cfg.AcceleratorLimit)
			}
			cb.tr = heap.NewTranslator(cb.outHeap, cb.acc, qc, "FlowTable")
		}
		cb.writer = enc.NewWriter(wcfg)
		builders[i] = cb
	}
	defer func() { // the memos are dead once the input is drained, or the build failed
		for _, cb := range builders {
			if cb.tr != nil {
				cb.tr.Release()
				f.st.AddStrings(cb.tr.Interned, cb.tr.Translated)
			}
		}
	}()

	build := f.buildInline
	workers := 1
	if f.cfg.Parallel && len(builders) > 1 {
		build, workers = f.buildPipelined, runtime.GOMAXPROCS(0)
	}
	if err := build(qc, builders); err != nil {
		return nil, err
	}

	bt := &Built{Cols: make([]BuiltColumn, len(builders))}
	if err := forColumns(workers, len(builders), func(c int) {
		bt.Cols[c] = builders[c].finish(&f.cfg)
	}); err != nil {
		return nil, err
	}
	if len(bt.Cols) > 0 {
		bt.Rows = bt.Cols[0].Data.Len()
	}
	f.built = bt
	f.schema = bt.Schema()
	f.cost = f.charged
	f.qc = qc
	return bt, nil
}

// buildInline drains the child, appending every block to the columns
// one after another on the calling goroutine.
func (f *FlowTable) buildInline(qc *QueryCtx, builders []*columnBuilder) error {
	b := vec.NewBlock(len(builders))
	for {
		ok, err := f.child.Next(b)
		if err != nil || !ok {
			return err
		}
		b.Materialize() // late-decode boundary: builders re-encode plain data
		grown := 0
		for c, cb := range builders {
			grown += cb.appendBlock(&b.Vecs[c], b.N)
		}
		if err := f.chargeBlock(qc, b.N, len(builders), grown); err != nil {
			return err
		}
	}
}

// chargeBlock charges one built block, its materialized rows plus the
// output-heap growth its strings caused, against the query's budget.
func (f *FlowTable) chargeBlock(qc *QueryCtx, rows, cols, grown int) error {
	n := rowFootprint(rows, cols) + grown
	if err := qc.Charge("FlowTable", n); err != nil {
		return err
	}
	f.charged += n
	return nil
}

// buildRing is the number of blocks the pipelined build keeps in flight:
// the child fills one while the column builders work through the others,
// so the costliest column can lag that many blocks behind the rest.
const buildRing = 4

// ringBlock is one block of the pipelined build.
type ringBlock struct {
	b   *vec.Block
	own [][]uint64 // the block's own column buffers
	// rows is the row count dispatched to the builders; pending counts
	// the builders still appending it, and grown sums the output-heap
	// growth their appends caused.
	rows    int
	pending atomic.Int32
	grown   atomic.Int64
}

// buildPipelined drains the child through long-lived column builders,
// one goroutine per column. The caller fills a free block of the ring
// and hands it to every builder; each appends its column of the ring's
// blocks in order, and the last to finish a block returns it to the
// ring. The caller charges a block's rows and heap growth when it takes
// the block back (or, for the last blocks, once the builders are done),
// so the budget sees every block while only a builder touches its heap.
// A builder that panics fails the build with an error: it records the
// panic and then only passes blocks on, so the caller never waits on it.
// Every exit closes the builders' feeds and waits for them.
func (f *FlowTable) buildPipelined(qc *QueryCtx, builders []*columnBuilder) error {
	// The ring and every feed hold up to buildRing blocks, as many as
	// exist, so no send on them ever blocks.
	ring := make(chan *ringBlock, buildRing)
	for range buildRing {
		rb := &ringBlock{b: vec.NewBlock(len(builders))}
		for c := range rb.b.Vecs {
			rb.own = append(rb.own, rb.b.Vecs[c].Data)
		}
		ring <- rb
	}
	var (
		mu       sync.Mutex // guards panicErr
		panicErr error
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	builderErr := func() error {
		mu.Lock()
		defer mu.Unlock()
		return panicErr
	}
	feeds := make([]chan *ringBlock, len(builders))
	for c, cb := range builders {
		feed := make(chan *ringBlock, buildRing)
		feeds[c] = feed
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rb := range feed {
				if !failed.Load() {
					if err := cb.appendRing(rb, c); err != nil {
						mu.Lock()
						panicErr = cmp.Or(panicErr, err)
						mu.Unlock()
						failed.Store(true)
					}
				}
				if rb.pending.Add(-1) == 0 {
					ring <- rb
				}
			}
		}()
	}
	// finish closes the feeds and waits for the builders; with abort they
	// only pass the blocks still queued on. The deferred call covers a
	// panic in the child.
	closed := false
	finish := func(abort bool) {
		if closed {
			return
		}
		closed = true
		if abort {
			failed.Store(true)
		}
		for _, feed := range feeds {
			close(feed)
		}
		wg.Wait()
	}
	charge := func(rb *ringBlock) error {
		rows := rb.rows
		rb.rows = 0
		if rows == 0 {
			return nil
		}
		return f.chargeBlock(qc, rows, len(builders), int(rb.grown.Swap(0)))
	}

	defer finish(true)
	for {
		rb := <-ring
		err := cmp.Or(charge(rb), builderErr())
		ok := false
		if err == nil {
			ok, err = f.child.Next(rb.b)
		}
		if err != nil || !ok {
			finish(err != nil)
			// Every block handed out is back in the ring; charge the ones
			// the loop did not take back.
			for range buildRing - 1 {
				if rb := <-ring; err == nil {
					err = charge(rb)
				}
			}
			return cmp.Or(err, builderErr())
		}
		rb.detach()
		rb.rows = rb.b.N
		rb.pending.Store(int32(len(builders)))
		for _, feed := range feeds {
			feed <- rb
		}
	}
}

// appendRing appends column c of a ring block, turning a panic into an
// error so that one failing column fails the build, not the process.
func (cb *columnBuilder) appendRing(rb *ringBlock, c int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exec: FlowTable column builder panicked: %v", r)
		}
	}()
	rb.grown.Add(int64(cb.appendBlock(&rb.b.Vecs[c], rb.rows)))
	return nil
}

// detach makes the block hold its rows in its own buffers before the
// builders read it. A child may hand out a vector over a buffer of its
// own, valid only until its next Next, and the child fills the following
// blocks while the builders still read this one. Heaps and dictionaries
// stay shared: an engine operator never rewrites one it handed out.
func (rb *ringBlock) detach() {
	b := rb.b
	for c := range b.Vecs {
		v, own := &b.Vecs[c], rb.own[c]
		if len(v.Data) == 0 || &v.Data[0] != &own[0] {
			if v.Runs == nil {
				copy(own, v.Data[:b.N])
			}
			v.Data = own
		}
	}
	b.Materialize() // late-decode boundary: builders re-encode plain data
}

// forColumns runs fn once per column, on up to workers goroutines
// ("encoding of each column is independent", Sect. 3.3); the finishing
// step uses it. A panicking column fails the build with an error, not
// the process: deadlocking the wait or crashing a worker would escape the
// engine's panic boundary.
func forColumns(workers, n int, fn func(c int)) error {
	if workers <= 1 || n <= 1 {
		for c := 0; c < n; c++ {
			fn(c)
		}
		return nil
	}
	var wg sync.WaitGroup
	var panicErr error
	var panicMu sync.Mutex
	work := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicErr == nil {
						panicErr = fmt.Errorf("exec: FlowTable column builder panicked: %v", r)
					}
					panicMu.Unlock()
					for range work { // drain so the feeder never blocks
					}
				}
			}()
			for c := range work {
				fn(c)
			}
		}()
	}
	for c := 0; c < n; c++ {
		work <- c
	}
	close(work)
	wg.Wait()
	return panicErr
}

// appendBlock folds one block of one column into the builder and returns
// how many bytes its output heap grew. Input string tokens may come from
// a different (or per-block scratch) heap; the output column owns its
// heap.
func (cb *columnBuilder) appendBlock(v *vec.Vector, n int) int {
	switch {
	case v.Dict != nil && cb.info.Dict == nil:
		for j := range n {
			cb.scratch[j] = v.Value(j)
		}
		cb.writer.Append(cb.scratch[:n])
	case cb.tr == nil:
		cb.writer.Append(v.Data[:n])
	default:
		cb.tr.Translate(v.Heap, v.Data[:n], cb.scratch[:n])
		cb.writer.Append(cb.scratch[:n])
	}
	if cb.outHeap == nil {
		return 0
	}
	size := cb.outHeap.Size()
	grown := size - cb.heapBytes
	cb.heapBytes = size
	return grown
}

// finish runs the Sect. 3.4 post-processing for one column: heap sorting,
// type narrowing and metadata extraction.
func (cb *columnBuilder) finish(cfg *FlowTableConfig) BuiltColumn {
	stream := cb.writer.Finish()
	st := cb.writer.Stats()
	signed := signedType(cb.info.Type) && cb.info.Dict == nil && cb.info.Type != types.String
	md := enc.MetadataFromStats(st, signed)
	zones := cb.writer.Zones()

	info := cb.info
	if cb.tr != nil {
		info.Heap, info.StoredHeap = cb.outHeap, true
		// Heap sorting (Sect. 3.4.3): when the token column is dictionary
		// encoded, the domain is small; sort the heap and write the new
		// tokens back over the dictionary entries — never touching rows.
		if cfg.SortHeaps && stream.Kind() == enc.Dictionary && cb.distinct() {
			sorted, remap := cb.outHeap.SortedRemap()
			err := enc.RemapDictEntries(stream, func(old uint64) uint64 {
				if old == types.NullToken&enc.WidthMask(stream.Width()) {
					return old
				}
				return remap[old]
			})
			if err == nil {
				info.Heap = sorted
				md.EntriesSorted = true
				// The token values changed under the rows: statistics
				// gathered over the old tokens no longer apply.
				md.HasRange = false
				md.SortedKnown = false
				md.IsAffine = false
				md.Dense = false
				zones = nil
			}
		} else if cb.distinct() && cb.outHeap.IsSortedOrder() {
			// Fortuitously sorted insertion order (Sect. 6.4).
			md.EntriesSorted = true
		}
		if cb.acc != nil && cb.acc.Distinct() {
			md.Cardinality, md.CardinalityExact = cb.acc.DomainSize(), true
			md.CardinalityUpper = md.Cardinality
		}
	}

	// Type narrowing (Sect. 3.4.1): header-only width reduction, with the
	// sentinel pattern reserved on token columns so NULL stays unambiguous.
	if cfg.Narrow {
		narrowColumn(stream, st, info, signed)
	}

	return BuiltColumn{Info: withMeta(info, md), Data: stream,
		Reencodings: cb.writer.Reencodings(), Zones: zones}
}

func (cb *columnBuilder) distinct() bool {
	return cb.acc != nil && cb.acc.Distinct()
}

func withMeta(info ColInfo, md enc.Metadata) ColInfo {
	info.Meta = md
	return info
}

// narrowColumn narrows stream in place when the encoding is amenable.
func narrowColumn(stream *enc.Stream, st *enc.Stats, info ColInfo, signed bool) {
	target := enc.MinWidth(stream, signed)
	tokens := info.Heap != nil || info.Dict != nil || info.Type == types.String
	if tokens {
		// Reserve the all-ones pattern for the NULL token at the target
		// width. st.MaxU covers every stored token including sentinels.
		for target < 8 && st.MaxU >= enc.WidthMask(target) {
			target *= 2
		}
	}
	if target < stream.Width() {
		_ = enc.Narrow(stream, target, signed) // non-amenable kinds just keep their width
	}
}

// Open implements Operator: building happens here (stop-and-go).
func (f *FlowTable) Open(qc *QueryCtx) error {
	bt, err := f.BuildTable(qc)
	if err != nil {
		return err
	}
	f.scan = NewBuiltScan(bt)
	return f.scan.Open(qc)
}

// Next implements Operator. Rows are accounted once, in BuildTable; the
// wrapper records time only.
func (f *FlowTable) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := f.scan.Next(b)
	f.endNextTimeOnly(start)
	return ok, err
}

// Close implements Operator: releases the materialized table's memory
// charges back to the query that paid for them.
func (f *FlowTable) Close() error {
	if f.charged > 0 {
		f.qc.Release(f.charged)
		f.charged = 0
	}
	if f.scan != nil {
		return f.scan.Close()
	}
	return nil
}
