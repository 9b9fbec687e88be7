package exec

import (
	"fmt"

	"tde/internal/enc"
	"tde/internal/storage"
	"tde/internal/vec"
)

// IndexedScan is the rank-join operator of Sect. 4.2: its inner input is
// an IndexTable (value/count/start rows derived from a run-length encoded
// column, possibly filtered, computed over, or sorted), and it fetches the
// outer table's rows for each surviving run by translating the range
//
//	Index.start <= Outer.rank < Index.start + Index.count
//
// directly into storage accesses, in the order given by the inner table.
// Range skipping is therefore expressed simply as a join in the plan, and
// sorting the inner on the value column yields ordered retrieval
// (Sect. 4.2.2) that enables ordered aggregation downstream. It keeps its
// own run cursor but reads the outer columns through the same colReader
// as Scan.
type IndexedScan struct {
	OpInstr
	inner    SchemaSource
	countCol int
	startCol int
	// passCols are inner columns replicated across each run's rows
	// (typically the value column, plus any computed roll-ups).
	passCols []int

	outer     *storage.Table
	outerCols []BuiltColumn

	schema []ColInfo
	built  *Built

	readers []colReader
	runIdx  int // current inner row
	runOff  int // rows of the current run already emitted
	qc      *QueryCtx
}

// SchemaSource is a TableSource whose output schema is known before the
// build (FlowTable, a Built itself); IndexedScan needs it to describe its
// own schema during strategic planning.
type SchemaSource interface {
	TableSource
	Schema() []ColInfo
}

// NewIndexedScan builds an indexed scan. passCols/countCol/startCol index
// the inner's columns; outerNames name the outer columns to fetch, where
// RowIDColumn is each fetched row's position.
func NewIndexedScan(inner SchemaSource, passCols []int, countCol, startCol int,
	outer *storage.Table, outerNames ...string) (*IndexedScan, error) {
	is := &IndexedScan{inner: inner, countCol: countCol, startCol: startCol,
		passCols: passCols, outer: outer}
	for _, n := range outerNames {
		c, err := tableColumn(outer, n)
		if err != nil {
			return nil, err
		}
		is.outerCols = append(is.outerCols, c)
	}
	return is, nil
}

// Schema implements Operator: the pass-through inner columns followed by
// the fetched outer columns. Metadata for pass-through columns is filled
// at Open from the built inner (FlowTable's extraction feeds the tactical
// optimizer through here, Sect. 4.2.1).
func (is *IndexedScan) Schema() []ColInfo {
	if is.schema != nil {
		return is.schema
	}
	innerSchema := is.inner.Schema()
	var out []ColInfo
	for _, c := range is.passCols {
		out = append(out, innerSchema[c])
	}
	for _, c := range is.outerCols {
		info := c.Info
		info.Meta = enc.Metadata{}
		out = append(out, info)
	}
	return out
}

// OpKind implements Instrumented.
func (is *IndexedScan) OpKind() string { return "IndexedScan" }

// OpLabel implements Instrumented.
func (is *IndexedScan) OpLabel() string { return is.outer.Name }

// OpChildren implements Instrumented: the inner index table when it is a
// plan operator (FlowTable).
func (is *IndexedScan) OpChildren() []Operator {
	if op, ok := is.inner.(Operator); ok {
		return []Operator{op}
	}
	return nil
}

// Open implements Operator.
func (is *IndexedScan) Open(qc *QueryCtx) error {
	start := is.beginOpen(qc, "IndexedScan")
	defer is.endOpen(start)
	is.qc = qc
	bt, err := is.inner.BuildTable(qc)
	if err != nil {
		return err
	}
	is.built = bt
	var schema []ColInfo
	for _, c := range is.passCols {
		info := bt.Cols[c].Info
		// Present the enhanced metadata to the client of the IndexedScan
		// (Sect. 4.2.1): a sorted index means the replicated value column
		// comes out sorted.
		md := enc.MetadataFromStream(bt.Cols[c].Data, signedType(info.Type) && info.Dict == nil,
			sentinelFor(info), true)
		if info.Meta.SortedKnown {
			md.SortedKnown, md.SortedAsc = true, info.Meta.SortedAsc
		}
		info.Meta = md
		schema = append(schema, info)
	}
	// Ranges come from the index, not from a block-aligned cursor, so the
	// outer columns are read straight from their streams: whole-block cache
	// entries would be filled for a few rows each.
	is.readers = is.readers[:0]
	for _, c := range is.outerCols {
		schema = append(schema, c.Info)
		is.readers = append(is.readers, newColReader(c.Info, c.Data, nil))
	}
	is.schema = schema
	is.runIdx, is.runOff = 0, 0
	return nil
}

// Next implements Operator: packs one or more (partial) runs into a block.
func (is *IndexedScan) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := is.next(b)
	is.endNext(start, b, ok && err == nil)
	return ok, err
}

func (is *IndexedScan) next(b *vec.Block) (bool, error) {
	if err := is.qc.Err(); err != nil {
		return false, err
	}
	if is.built == nil || is.runIdx >= is.built.Rows {
		return false, nil
	}
	np := len(is.passCols)
	ensureVecs(b, len(is.schema))
	filled := 0
	for filled < vec.BlockSize && is.runIdx < is.built.Rows {
		count := int(int64(is.built.Value(is.countCol, is.runIdx)))
		start := int(int64(is.built.Value(is.startCol, is.runIdx)))
		remain := count - is.runOff
		if remain <= 0 {
			is.runIdx++
			is.runOff = 0
			continue
		}
		take := vec.BlockSize - filled
		if take > remain {
			take = remain
		}
		// Replicate the pass-through inner values.
		for pi, c := range is.passCols {
			v := is.built.Value(c, is.runIdx)
			dst := b.Vecs[pi].Data[filled : filled+take]
			for i := range dst {
				dst[i] = v
			}
		}
		// Translate the range directly into storage reads.
		for oi := range is.readers {
			if err := is.readers[oi].fill(is.st, &b.Vecs[np+oi], filled, start+is.runOff, take); err != nil {
				return false, fmt.Errorf("exec: indexed scan range beyond outer table: %w", err)
			}
		}
		filled += take
		is.runOff += take
		if is.runOff >= count {
			is.runIdx++
			is.runOff = 0
		}
	}
	if filled == 0 {
		return false, nil
	}
	for i, info := range is.schema[:np] {
		b.Vecs[i].Type, b.Vecs[i].Heap, b.Vecs[i].Dict = info.Type, info.Heap, info.Dict
	}
	b.N = filled
	return true, nil
}

// Close implements Operator.
func (is *IndexedScan) Close() error {
	is.readers = nil
	return nil
}
