// Package vec defines the block-iterated data representation flowing
// between operators (Sect. 2.3.1): blocks of up to BlockSize rows, one
// fixed-width vector per column. All values are raw 64-bit patterns in the
// sense of internal/types; string vectors carry heap tokens plus a
// reference to the heap that resolves them.
package vec

import (
	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/types"
)

// BlockSize is the execution engine's block iteration size. It equals the
// encoding layer's decompression block size so one decompression call
// feeds one iteration block (Sect. 3.1), and it is a multiple of 32 so
// bit-packed blocks end on byte boundaries.
const BlockSize = 1024

// Vector is one column's slice of a block.
type Vector struct {
	// Type is the logical type of the values.
	Type types.Type
	// Data holds the raw value bits; for strings these are heap tokens.
	Data []uint64
	// Heap resolves string tokens; nil for scalar vectors.
	Heap *heap.Heap
	// Dict, when non-nil, marks a dictionary-compressed scalar vector:
	// Data holds tokens that index into Dict for the actual values.
	Dict []uint64
	// Runs, when non-nil, marks a run-encoded vector: the runs cover the
	// block's N rows in order and Data[:N] is undefined until Materialize
	// expands them. Run values are full-width patterns under the same
	// contract as Data (dictionary tokens when Dict is set, resolved
	// values otherwise). When several vectors of one block carry runs,
	// their runs are aligned: the same number, with the same counts.
	// Producers that emit plain data must leave Runs nil; consumers that
	// cannot handle runs call Materialize first — the late-decode
	// boundary of compressed execution.
	Runs []enc.Run
}

// Materialize expands a run-encoded vector into Data[:n] and clears Runs.
// A no-op for plain vectors.
func (v *Vector) Materialize(n int) {
	if v.Runs == nil {
		return
	}
	enc.ExpandRuns(v.Runs, v.Data[:n])
	v.Runs = nil
}

// IsNull reports whether row i holds the type's NULL sentinel. A
// dictionary carries NULL as the token sentinel or, in a converted
// column, as the type sentinel among its entries.
func (v *Vector) IsNull(i int) bool {
	x := v.Data[i]
	if v.Dict != nil || v.Heap != nil {
		if x == types.NullToken || v.Dict == nil {
			return x == types.NullToken
		}
		x = v.Dict[x] // a token: resolve it
	}
	return types.IsNull(v.Type, x)
}

// Value resolves row i through the scalar dictionary, if any.
func (v *Vector) Value(i int) uint64 {
	if v.Dict != nil {
		tok := v.Data[i]
		if tok == types.NullToken {
			return types.NullBits(v.Type)
		}
		return v.Dict[tok]
	}
	return v.Data[i]
}

// String resolves row i's string through the heap. Only valid for string
// vectors.
func (v *Vector) String(i int) string {
	return v.Heap.Get(v.Data[i])
}

// Block is one iteration unit: N rows across len(Vecs) columns.
type Block struct {
	Vecs []Vector
	N    int
}

// NewBlock allocates a block with capacity BlockSize for n columns.
func NewBlock(n int) *Block {
	b := &Block{Vecs: make([]Vector, n)}
	for i := range b.Vecs {
		b.Vecs[i].Data = make([]uint64, BlockSize)
	}
	return b
}

// Reset prepares the block for reuse.
func (b *Block) Reset() { b.N = 0 }

// Encoded reports whether any vector still carries an encoded (run)
// representation.
func (b *Block) Encoded() bool {
	for i := range b.Vecs {
		if b.Vecs[i].Runs != nil {
			return true
		}
	}
	return false
}

// Materialize decodes every encoded vector in place — the late-decode
// boundary. Cheap (a nil check per column) when the block is plain.
func (b *Block) Materialize() {
	for i := range b.Vecs {
		b.Vecs[i].Materialize(b.N)
	}
}
