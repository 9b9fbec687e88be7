// Package exec implements the TDE execution engine (Sect. 2.3.1): a
// block-iterated Volcano-style operator tree with two operator styles —
// flow operators, which process one block of rows at a time, and
// stop-and-go operators, which must consume their whole input before
// producing output (FlowTable, Sort, Aggregate, and the inner side of
// joins).
package exec

import (
	"slices"

	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// ColInfo describes one output column of an operator, including the
// runtime properties the tactical optimizer consumes (Sect. 2.3.1:
// "property derivation happens on-the-go").
type ColInfo struct {
	Name string
	Type types.Type
	// Collation applies to string columns (Sect. 2.3.4); it governs the
	// heaps that materialization operators build for this column.
	Collation types.Collation
	// Heap resolves string tokens; nil for scalars. May be nil for
	// computed string columns whose heap is created per block.
	Heap *heap.Heap
	// StoredHeap says every block of this column carries Heap itself, so
	// a token is the position of an element in that one heap. A table
	// Scan and a FlowTable's output set it; an operator
	// that may emit the column's tokens against heaps of its own (a
	// spilled join's partitions, a spilled sort's runs, a bounded sort's
	// cut or an aggregation's heaps) clears it. Direct grouping takes a string
	// key's element positions for its domain, and an aggregate input
	// keeps its stored tokens, only when it is set.
	StoredHeap bool
	// Dict marks dictionary-compressed scalar columns.
	Dict []uint64
	// Meta carries derived properties (min/max, cardinality, sortedness,
	// dense/unique) used for tactical decisions.
	Meta enc.Metadata
}

// Operator is a Volcano block iterator.
type Operator interface {
	// Schema describes the output columns. Valid after construction.
	Schema() []ColInfo
	// Open prepares the operator (and its subtree) for iteration. qc is
	// the query's lifecycle handle: operators keep it, check it once per
	// block in Next, and charge it at materialization points. A nil qc is
	// valid and means "no budget, not cancellable".
	Open(qc *QueryCtx) error
	// Next fills b with the next block, returning false at end of stream.
	// b's vectors are valid until the following Next call.
	Next(b *vec.Block) (bool, error)
	// Close releases resources. Safe to call after a failed Open.
	Close() error
}

// TableSource is implemented by stop-and-go operators that materialize a
// table (FlowTable, and a Built itself) and by a clean table Scan, whose
// stored columns are the table; the Join operator "takes a stop-and-go
// operator as the inner relation".
type TableSource interface {
	// BuildTable runs the subtree to completion and returns the result,
	// charging the materialized size against qc (nil = unaccounted).
	BuildTable(qc *QueryCtx) (*Built, error)
	// Schema describes the table's columns before it is built.
	Schema() []ColInfo
}

// Built is a materialized table plus the metadata FlowTable extracted
// while building it — the hand-off from the encoding layer to the
// tactical optimizer (Sect. 4.1.2).
type Built struct {
	Cols []BuiltColumn
	Rows int
}

// BuiltColumn is one materialized column.
type BuiltColumn struct {
	Info ColInfo
	// Data is the encoded stream of values (scalars or heap tokens).
	Data *enc.Stream
	// Reencodings counts the dynamic encoder's format rewrites while this
	// column loaded (Sect. 3.2 reports two for lineitem at SF-1).
	Reencodings int
	// Zones carries the per-block statistics gathered while the column
	// loaded (DESIGN.md §15); nil when none are valid (empty column, or
	// token values rewritten after the blocks were flushed).
	Zones *enc.ZoneMap
}

// BuildTable implements TableSource: a materialized table is its own
// source, so a prebuilt table can be a join inner.
func (bt *Built) BuildTable(*QueryCtx) (*Built, error) { return bt, nil }

// Schema returns the built table's column descriptions.
func (bt *Built) Schema() []ColInfo {
	out := make([]ColInfo, len(bt.Cols))
	for i := range bt.Cols {
		out[i] = bt.Cols[i].Info
	}
	return out
}

// widening is how a column's raw stream values become full-width bits.
type widening uint8

const (
	widenNone   widening = iota // already full width, or unsigned
	widenTokens                 // restore the full-width NULL token
	widenSigned                 // sign-extend
)

// widenOf chooses the widening of a column stored width bytes wide.
// Token columns are never narrowed onto their sentinel pattern
// (FlowTable reserves it), so the token mapping is unambiguous.
func widenOf(width int, info *ColInfo) widening {
	switch {
	case width == 8:
		return widenNone
	case info.Heap != nil || info.Dict != nil || info.Type == types.String:
		return widenTokens
	case signedType(info.Type):
		return widenSigned
	}
	return widenNone
}

// resolveRaw widens one raw stream value: sign-extending signed scalars
// and restoring the full-width NULL sentinel for token columns.
func resolveRaw(v uint64, width int, info *ColInfo) uint64 {
	switch widenOf(width, info) {
	case widenTokens:
		if v == types.NullToken&enc.WidthMask(width) {
			return types.NullToken
		}
	case widenSigned:
		return uint64(enc.SignExtend(v, width))
	}
	return v
}

// widenInPlace is resolveRaw over a slice, with the widening chosen once.
func widenInPlace(data []uint64, width int, info *ColInfo) {
	switch widenOf(width, info) {
	case widenTokens:
		null := types.NullToken & enc.WidthMask(width)
		for i, v := range data {
			if v == null {
				data[i] = types.NullToken
			}
		}
	case widenSigned:
		shift := uint(64 - 8*width)
		for i, v := range data {
			data[i] = uint64(int64(v<<shift) >> shift)
		}
	}
}

func signedType(t types.Type) bool {
	switch t {
	case types.Integer, types.Date, types.Timestamp:
		return true
	}
	return false
}

// sentinelFor returns the NULL sentinel for a column as stored (token
// columns use the token sentinel).
func sentinelFor(info ColInfo) uint64 {
	if info.Heap != nil || info.Dict != nil || info.Type == types.String {
		return types.NullToken
	}
	return types.NullBits(info.Type)
}

// Run drains an operator, returning the total row count. Used by tests
// and benches that only need the side effects.
func Run(op Operator) (int, error) { return RunCtx(nil, op) }

// RunCtx is Run under a query lifecycle handle.
func RunCtx(qc *QueryCtx, op Operator) (int, error) {
	if err := op.Open(qc); err != nil {
		return 0, err
	}
	defer op.Close()
	b := vec.NewBlock(len(op.Schema()))
	total := 0
	for {
		ok, err := op.Next(b)
		if err != nil {
			return total, err
		}
		if !ok {
			return total, nil
		}
		total += b.N
	}
}

// Collect drains an operator into row-major [][]uint64 values (resolved
// bits; string tokens are resolved to heap offsets of their block heap —
// use CollectStrings for content). Intended for tests.
func Collect(op Operator) ([][]uint64, error) {
	if err := op.Open(nil); err != nil {
		return nil, err
	}
	defer op.Close()
	b := vec.NewBlock(len(op.Schema()))
	var rows [][]uint64
	for {
		ok, err := op.Next(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		b.Materialize()
		for i := 0; i < b.N; i++ {
			row := make([]uint64, len(b.Vecs))
			for c := range b.Vecs {
				row[c] = b.Vecs[c].Value(i)
			}
			rows = append(rows, row)
		}
	}
}

// CollectStrings drains an operator formatting every value, for tests on
// string-bearing plans.
func CollectStrings(op Operator) ([][]string, error) {
	return CollectStringsCtx(nil, op)
}

// CollectStringsCtx is CollectStrings under a query lifecycle handle —
// the drain loop the public Query API uses. It works a block at a time:
// the block's cells are written into one buffer and sliced out of one
// string, and its rows slice one []string backing, so a block costs a
// few allocations whatever its rows and columns; the blocks' rows are
// joined once at the end.
func CollectStringsCtx(qc *QueryCtx, op Operator) ([][]string, error) {
	if err := op.Open(qc); err != nil {
		return nil, err
	}
	defer op.Close()
	schema := op.Schema()
	nc := len(schema)
	b := vec.NewBlock(nc)
	var blocks [][][]string // each block's rows, joined once at the end
	var buf []byte
	var ends []int
	for {
		ok, err := op.Next(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			return slices.Concat(blocks...), nil
		}
		b.Materialize()
		buf, ends = buf[:0], ends[:0]
		for i := 0; i < b.N; i++ {
			for c := range b.Vecs {
				v := &b.Vecs[c]
				switch {
				case schema[c].Type != types.String:
					buf = types.AppendFormat(buf, schema[c].Type, v.Value(i))
				case v.Data[i] == types.NullToken:
					buf = append(buf, "NULL"...)
				default:
					buf = v.Heap.AppendTo(buf, v.Data[i])
				}
				ends = append(ends, len(buf))
			}
		}
		str, cells := string(buf), make([]string, len(ends))
		at := 0
		for k, end := range ends {
			cells[k], at = str[at:end], end
		}
		rows := make([][]string, b.N)
		for i := range rows {
			rows[i] = cells[i*nc : (i+1)*nc : (i+1)*nc]
		}
		blocks = append(blocks, rows)
	}
}
