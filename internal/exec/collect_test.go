package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// TestCollectAllocsPerRow drains a 40 000-row stream shaped like a wide
// GROUP BY's result — three string keys, an integer and a real, with
// NULLs — and requires the formatted rows to equal Format's and the
// heaps' cell by cell, at no more than 0.01 allocations per row: a block
// costs a few allocations, not one per row or per cell.
func TestCollectAllocsPerRow(t *testing.T) {
	const rows = 40_000
	rng := rand.New(rand.NewSource(5))
	h := heap.New(types.CollateBinary)
	var toks []uint64
	for i := 0; i < 300; i++ {
		toks = append(toks, h.Append(fmt.Sprintf("code-%d", i)))
	}
	toks = append(toks, h.Append(""), types.NullToken)
	schema := []ColInfo{{Name: "o", Type: types.String, Heap: h}, {Name: "d", Type: types.String, Heap: h},
		{Name: "c", Type: types.String, Heap: h}, {Name: "n", Type: types.Integer}, {Name: "r", Type: types.Real}}
	op := &blocksOp{schema: schema}
	var want [][]string
	for at := 0; at < rows; at += vec.BlockSize {
		b := vec.NewBlock(len(schema))
		b.N = min(vec.BlockSize, rows-at)
		for c := range schema {
			b.Vecs[c].Type, b.Vecs[c].Heap = schema[c].Type, schema[c].Heap
		}
		for i := 0; i < b.N; i++ {
			row := make([]string, len(schema))
			for c := 0; c < 3; c++ {
				tok := toks[rng.Intn(len(toks))]
				b.Vecs[c].Data[i], row[c] = tok, h.Get(tok)
				if tok == types.NullToken {
					row[c] = "NULL"
				}
			}
			b.Vecs[3].Data[i] = uint64(rng.Int63n(1e6) - 5e5)
			b.Vecs[4].Data[i] = types.FromReal(rng.NormFloat64() * 1e4)
			if rng.Intn(50) == 0 {
				b.Vecs[3].Data[i], b.Vecs[4].Data[i] = types.NullBits(types.Integer), types.NullBits(types.Real)
			}
			row[3], row[4] = types.Format(types.Integer, b.Vecs[3].Data[i]), types.Format(types.Real, b.Vecs[4].Data[i])
			want = append(want, row)
		}
		op.blocks = append(op.blocks, b)
	}
	got, err := CollectStrings(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != rows {
		t.Fatalf("%d rows, want %d", len(got), rows)
	}
	for i := range want {
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("row %d col %d: %q, want %q", i, c, got[i][c], want[i][c])
			}
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := CollectStrings(op); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow > 0.01 {
		t.Errorf("%.0f allocations for %d rows: %.4f per row, want at most 0.01", allocs, rows, perRow)
	}
}
