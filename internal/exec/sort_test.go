package exec

import (
	"math/rand"
	"testing"

	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// TestSortPreMergeWritesEachLevelOnce spills 24 runs, three times what a
// merge reads at once (spillMergeFanIn), and opens their merge. The
// pre-merge goes level by level over adjacent runs, so the spill writes
// every row about twice — the runs, then one level of merged runs — not
// once more per pass over a growing front run. The merged output equals
// the in-memory sort's, ties (every key recurs ~50 times) in input order.
func TestSortPreMergeWritesEachLevelOnce(t *testing.T) {
	const runs = 24
	n := runs * vec.BlockSize
	keys := make([]int64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range keys {
		keys[i] = int64(rng.Intn(n / 50))
	}
	tab := makeTable("t", makeIntColumn("k", types.Integer, keys), makeIntColumn("id", types.Integer, seqInts(n)))
	scan, err := NewScan(tab)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CollectStrings(NewSort(scan, SortKey{Col: 0}))
	if err != nil {
		t.Fatal(err)
	}

	qc := NewQueryCtxSpill(nil, 0, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
	defer qc.CleanupSpill()
	schema := scan.Schema()
	var stats OpSpillStats
	rs := newRowSort(qc, "Sort", &stats, newRowOrder(schema, []SortKey{{Col: 0}}), spillSpecs(schema), 0)
	defer rs.close()
	if err := scan.Open(qc); err != nil {
		t.Fatal(err)
	}
	b := vec.NewBlock(len(schema))
	cols, heaps := make([][]uint64, len(schema)), make([]*heap.Heap, len(schema))
	for {
		ok, err := scan.Next(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		b.Materialize()
		for c := range cols {
			cols[c], heaps[c] = b.Vecs[c].Data, b.Vecs[c].Heap
		}
		if err := rs.add(cols, heaps, b.N); err != nil {
			t.Fatal(err)
		}
		if err := rs.spillRun(); err != nil { // one run per block
			t.Fatal(err)
		}
	}
	scan.Close()
	if len(rs.runs) != runs {
		t.Fatalf("%d runs, want %d", len(rs.runs), runs)
	}
	runBytes := stats.IO.BytesWritten
	if err := rs.finish(); err != nil {
		t.Fatal(err)
	}
	if written := stats.IO.BytesWritten; float64(written) > 2.2*float64(runBytes) {
		t.Errorf("wrote %d spill bytes for %d bytes of runs: %.2f×, want at most 2.2×",
			written, runBytes, float64(written)/float64(runBytes))
	}
	var got [][]string
	for {
		ok, err := rs.pop(func(cur *mergeCursor) {
			got = append(got, []string{types.Format(types.Integer, cur.val(0)), types.Format(types.Integer, cur.val(1))})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("merge answered %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
		}
	}
}
