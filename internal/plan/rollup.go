package plan

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"tde/internal/enc"
	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// RollUpIndex implements the Sect. 8 future-work idea: apply an
// order-preserving roll-up calculation (e.g. month truncation) to an
// IndexTable's value column, then aggregate the index itself with
// MIN(start) and SUM(count) per rolled-up value — converting an index on
// raw dates into an index on months without ever touching the main
// table's rows. The result is again a valid IndexTable (value, $count,
// $start) over the same outer table.
//
// The roll-up must be order preserving and the source index sorted on its
// value column; both are checked.
func RollUpIndex(index *exec.Built, roll expr.Expr) (*exec.Built, error) {
	if len(index.Cols) < 3 {
		return nil, fmt.Errorf("plan: not an index table (%d columns)", len(index.Cols))
	}
	vmd := index.Cols[0].Info.Meta
	if !vmd.SortedKnown || !vmd.SortedAsc {
		return nil, fmt.Errorf("plan: roll-up requires a value-sorted index")
	}
	// Evaluate the roll-up over the index's value column, then aggregate
	// runs of equal rolled values: count' = SUM(count), start' = MIN(start).
	scan := exec.NewBuiltScan(index)
	rolled, err := Rebind(roll, scan.Schema())
	if err != nil {
		return nil, err
	}
	if err := scan.Open(nil); err != nil {
		return nil, err
	}
	defer scan.Close()

	outType := rolled.Type()
	vw := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true})
	cw := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true})
	sw := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true})

	b := vec.NewBlock(len(index.Cols))
	out := vec.Vector{Data: make([]uint64, vec.BlockSize)}
	var curVal, curCount, curStart uint64
	started := false
	runs := 0
	for {
		ok, err := scan.Next(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		rolled.Eval(b, &out)
		for i := 0; i < b.N; i++ {
			v := out.Data[i]
			count := b.Vecs[1].Data[i]
			start := b.Vecs[2].Data[i]
			// Order preservation check: the rolled values must be
			// nondecreasing if the calculation preserves order.
			if started && int64(v) < int64(curVal) {
				return nil, fmt.Errorf("plan: roll-up %s is not order preserving", roll)
			}
			if started && v == curVal {
				curCount += count
				continue
			}
			if started {
				vw.AppendOne(curVal)
				cw.AppendOne(curCount)
				sw.AppendOne(curStart)
				runs++
			}
			curVal, curCount, curStart, started = v, count, start, true
		}
	}
	if started {
		vw.AppendOne(curVal)
		cw.AppendOne(curCount)
		sw.AppendOne(curStart)
		runs++
	}
	vmd2 := enc.MetadataFromStats(vw.Stats(), true)
	vmd2.SortedKnown, vmd2.SortedAsc = true, true
	return &exec.Built{
		Rows: runs,
		Cols: []exec.BuiltColumn{
			{Info: exec.ColInfo{Name: rolledName(index.Cols[0].Info.Name, roll),
				Type: outType, Meta: vmd2}, Data: vw.Finish()},
			{Info: exec.ColInfo{Name: "$count", Type: types.Integer,
				Meta: enc.MetadataFromStats(cw.Stats(), true)}, Data: cw.Finish()},
			{Info: exec.ColInfo{Name: "$start", Type: types.Integer,
				Meta: enc.MetadataFromStats(sw.Stats(), true)}, Data: sw.Finish()},
		},
	}, nil
}

func rolledName(base string, roll expr.Expr) string {
	return base + "$rollup"
}

// PartitionedOrderedAggregate is the second Sect. 8 idea: partition a
// value-sorted IndexTable into contiguous value ranges, run the
// IndexedScan + ordered aggregation for each partition on its own core,
// and concatenate the partial results — safe because ordered aggregation
// over disjoint contiguous key ranges cannot split a group.
//
// It computes, for each distinct index value, agg(other) over the outer
// table column, like Fig. 10's query does, and returns (value, agg) pairs
// ordered by value.
func PartitionedOrderedAggregate(index *exec.Built, outer *storage.Table,
	otherCol string, agg exec.AggFunc, workers int) ([][2]int64, error) {
	vmd := index.Cols[0].Info.Meta
	if !vmd.SortedKnown || !vmd.SortedAsc {
		return nil, fmt.Errorf("plan: partitioned ordered aggregation requires a sorted index")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := index.Rows
	if n == 0 {
		return nil, nil
	}
	// Split run boundaries so partitions never share an index value.
	bounds := partitionBounds(index, workers)
	type part struct {
		idx  int
		rows [][2]int64
		err  error
	}
	results := make([]part, len(bounds))
	var wg sync.WaitGroup
	for pi, bound := range bounds {
		wg.Add(1)
		go func(pi int, lo, hi int) {
			defer wg.Done()
			rows, err := aggregateSlice(index, lo, hi, outer, otherCol, agg)
			results[pi] = part{idx: pi, rows: rows, err: err}
		}(pi, bound[0], bound[1])
	}
	wg.Wait()
	var out [][2]int64
	for _, p := range results {
		if p.err != nil {
			return nil, p.err
		}
		out = append(out, p.rows...)
	}
	// Partitions are value-ordered by construction.
	if !sort.SliceIsSorted(out, func(a, b int) bool { return out[a][0] < out[b][0] }) {
		return nil, fmt.Errorf("plan: partitioned aggregation produced unordered output")
	}
	return out, nil
}

// partitionBounds splits [0, index.Rows) into up to k slices on value
// boundaries (a value's runs never straddle a boundary).
func partitionBounds(index *exec.Built, k int) [][2]int {
	n := index.Rows
	if k > n {
		k = n
	}
	var bounds [][2]int
	at := 0
	for p := 0; p < k && at < n; p++ {
		end := (n * (p + 1)) / k
		if end <= at {
			end = at + 1
		}
		// Advance to the next value boundary.
		for end < n && index.Value(0, end) == index.Value(0, end-1) {
			end++
		}
		bounds = append(bounds, [2]int{at, end})
		at = end
	}
	if at < n {
		bounds[len(bounds)-1][1] = n
	}
	return bounds
}

// aggregateSlice runs IndexedScan + ordered aggregation over index rows
// [lo, hi).
func aggregateSlice(index *exec.Built, lo, hi int, outer *storage.Table,
	otherCol string, agg exec.AggFunc) ([][2]int64, error) {
	slice := &exec.Built{Rows: hi - lo}
	for c := range index.Cols {
		sub, err := sliceStream(index.Cols[c].Data, lo, hi)
		if err != nil {
			return nil, err
		}
		col := index.Cols[c]
		col.Data = sub
		slice.Cols = append(slice.Cols, col)
	}
	is, err := exec.NewIndexedScan(slice, []int{0}, 1, 2, outer, otherCol)
	if err != nil {
		return nil, err
	}
	a := exec.NewAggregate(is, []int{0}, []exec.AggSpec{{Func: agg, Col: 1}}, exec.AggOrdered)
	rows, err := exec.Collect(a)
	if err != nil {
		return nil, err
	}
	out := make([][2]int64, 0, len(rows))
	for _, r := range rows {
		out = append(out, [2]int64{int64(r[0]), int64(r[1])})
	}
	return out, nil
}

// sliceStream materializes rows [lo, hi) of a stream into a new stream.
func sliceStream(s *enc.Stream, lo, hi int) (*enc.Stream, error) {
	w := enc.NewWriter(enc.WriterConfig{Width: s.Width(), BlockSize: s.BlockSize()})
	r := enc.NewReader(s)
	buf := make([]uint64, 1024)
	for at := lo; at < hi; {
		k := r.Read(at, min(len(buf), hi-at), buf)
		if k == 0 {
			return nil, fmt.Errorf("plan: short stream read at %d", at)
		}
		w.Append(buf[:k])
		at += k
	}
	return w.Finish(), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
