package exec

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// FlowTableConfig controls the materialization behaviour; the toggles
// correspond to the experimental arms of Sect. 6 (encoding on/off, heap
// acceleration on/off) and the strategic restrictions of Sect. 4.3.
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
	// DisallowRLE restricts encoding choices for FlowTables on the inner
	// side of hash joins, whose random access pattern run-length encoding
	// serves poorly (Sect. 4.3).
	DisallowRLE bool
	// Parallel distributes per-column encoding across cores (Sect. 3.3:
	// "encoding of each column is independent").
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

// SpillChild implements SpillSource: the grace hash join re-streams the
// inner side from the materialized table when it exists, else from the
// (re-openable) child pipeline.
func (f *FlowTable) SpillChild() Operator {
	if f.built != nil {
		return NewBuiltScan(f.built)
	}
	return f.child
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
			DisallowRLE:     f.cfg.DisallowRLE,
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

	b := vec.NewBlock(len(f.schema))
	workers := 1
	if f.cfg.Parallel {
		workers = runtime.GOMAXPROCS(0)
	}
	heapBytes := 0
	for {
		ok, err := f.child.Next(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		b.Materialize() // late-decode boundary: builders re-encode plain data
		if err := forColumns(workers, len(builders), func(c int) {
			builders[c].appendBlock(&b.Vecs[c], b.N)
		}); err != nil {
			return nil, err
		}
		// Charge the materialized block plus output-heap growth against
		// the query's memory budget.
		grown := 0
		for _, cb := range builders {
			if cb.outHeap != nil {
				grown += cb.outHeap.Size()
			}
		}
		n := rowFootprint(b.N, len(builders)) + (grown - heapBytes)
		if err := qc.Charge("FlowTable", n); err != nil {
			return nil, err
		}
		f.charged += n
		heapBytes = grown
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

// forColumns runs fn once per column, on up to workers goroutines
// ("encoding of each column is independent", Sect. 3.3). A panicking
// column fails the build with an error, not the process: deadlocking the
// wait or crashing a worker would escape the engine's panic boundary.
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

// appendBlock folds one block of one column into the builder. Input
// string tokens may come from a different (or per-block scratch) heap; the
// output column owns its heap.
func (cb *columnBuilder) appendBlock(v *vec.Vector, n int) {
	if v.Dict != nil && cb.info.Dict == nil {
		for j := range n {
			cb.scratch[j] = v.Value(j)
		}
		cb.writer.Append(cb.scratch[:n])
		return
	}
	if cb.tr == nil {
		cb.writer.Append(v.Data[:n])
		return
	}
	cb.tr.Translate(v.Heap, v.Data[:n], cb.scratch[:n])
	cb.writer.Append(cb.scratch[:n])
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
