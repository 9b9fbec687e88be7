package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// The property test's columns: two keys, then one aggregate input of
// each type.
const (
	psK1 = iota // Integer over [0, 30], NULLs: a direct key by range
	psK2        // String over a deduplicated stored heap, NULLs: a direct key by heap position
	psI         // Integer, NULLs; all NULL where k1 = 5
	psR         // Real, NULLs; all NULL where k1 = 3
	psD         // Date, NULLs; all NULL where k1 = 3
	psS         // String over a heap of its own, NULLs
	psCols
)

// propStateBlocks draws a stream of plain and aligned-run blocks over the
// property test's columns.
func propStateBlocks(seed int64) *blocksOp {
	rng := rand.New(rand.NewSource(seed))
	kh, sh := heap.New(types.CollateBinary), heap.New(types.CollateBinary)
	var ktoks, stoks []uint64
	for i := 0; i < 12; i++ {
		ktoks = append(ktoks, kh.Append(fmt.Sprintf("key-%02d", i)))
	}
	for i := 0; i < 40; i++ {
		stoks = append(stoks, sh.Append(fmt.Sprintf("s%d", rng.Intn(1000))))
	}
	schema := []ColInfo{
		{Name: "k1", Type: types.Integer, Meta: enc.Metadata{HasRange: true, Min: 0, Max: 30}},
		{Name: "k2", Type: types.String, Heap: kh, StoredHeap: true, Meta: enc.Metadata{CardinalityExact: true}},
		{Name: "i", Type: types.Integer}, {Name: "r", Type: types.Real}, {Name: "d", Type: types.Date},
		{Name: "s", Type: types.String, Heap: sh},
	}
	null := func(v uint64, t types.Type) uint64 {
		if rng.Intn(12) == 0 {
			return types.NullBits(t)
		}
		return v
	}
	row := func() [psCols]uint64 {
		var r [psCols]uint64
		r[psK1] = null(uint64(rng.Intn(31)), types.Integer)
		r[psK2] = null(ktoks[rng.Intn(len(ktoks))], types.String)
		r[psI] = null(uint64(int64(rng.Intn(2001)-1000)), types.Integer)
		r[psR] = null(types.FromReal(math.Round(rng.NormFloat64()*1e6)/1e3+0.125), types.Real)
		r[psD] = null(uint64(8000+rng.Intn(1000)), types.Date)
		r[psS] = null(stoks[rng.Intn(len(stoks))], types.String)
		switch r[psK1] {
		case 3:
			r[psR], r[psD] = types.NullBits(types.Real), types.NullBits(types.Date)
		case 5:
			r[psI] = types.NullBits(types.Integer)
		}
		return r
	}
	op := &blocksOp{schema: schema}
	for k := 0; k < 8; k++ {
		b := vec.NewBlock(psCols)
		b.N = vec.BlockSize - rng.Intn(300)
		for c := range schema {
			b.Vecs[c].Type, b.Vecs[c].Heap = schema[c].Type, schema[c].Heap
		}
		if k%2 == 0 {
			for i := 0; i < b.N; i++ {
				r := row()
				for c := range r {
					b.Vecs[c].Data[i] = r[c]
				}
			}
		} else {
			for left := b.N; left > 0; {
				cnt := min(left, 1+rng.Intn(40))
				left -= cnt
				r := row()
				for c := range r {
					b.Vecs[c].Runs = append(b.Vecs[c].Runs, enc.Run{Value: r[c], Count: cnt})
				}
			}
		}
		op.blocks = append(op.blocks, b)
	}
	return op
}

// propStateSpecs reads every function over every input type it takes.
var propStateSpecs = []AggSpec{
	{Func: Count, Col: -1}, {Func: Count, Col: psI}, {Func: Count, Col: psS},
	{Func: Sum, Col: psI}, {Func: Sum, Col: psR}, {Func: Avg, Col: psI}, {Func: Avg, Col: psR},
	{Func: Min, Col: psI}, {Func: Max, Col: psI}, {Func: Min, Col: psR}, {Func: Max, Col: psR},
	{Func: Min, Col: psD}, {Func: Max, Col: psD}, {Func: Min, Col: psS}, {Func: Max, Col: psS},
	{Func: Max, Col: psK2}, {Func: CountD, Col: psI}, {Func: CountD, Col: psR}, {Func: CountD, Col: psD},
	{Func: CountD, Col: psS}, {Func: CountD, Col: psK2},
	{Func: Median, Col: psI}, {Func: Median, Col: psR},
}

// propReference aggregates the stream's rows with maps and loops: keys
// and cells as CollectStrings formats them.
func propReference(op *blocksOp, keys []int, specs []AggSpec) map[string][]string {
	type acc struct {
		n      int
		isum   int64
		fsum   float64
		ext    uint64
		set    map[string]bool
		values []float64
	}
	cell := func(c int, v uint64) string {
		switch {
		case op.schema[c].Type != types.String:
			return types.Format(op.schema[c].Type, v)
		case v == types.NullToken:
			return "NULL"
		}
		return op.schema[c].Heap.Get(v)
	}
	groups := map[string][]*acc{}
	var order []string
	fold := func(r []uint64) {
		var kp []string
		for _, k := range keys {
			kp = append(kp, cell(k, r[k]))
		}
		key := strings.Join(kp, "|")
		g := groups[key]
		if g == nil {
			for range specs {
				g = append(g, &acc{set: map[string]bool{}})
			}
			groups[key] = g
			order = append(order, key)
		}
		for j, s := range specs {
			a := g[j]
			if s.Col < 0 {
				a.n++
				continue
			}
			t, v := op.schema[s.Col].Type, r[s.Col]
			if types.IsNull(t, v) {
				continue
			}
			switch s.Func {
			case Sum, Avg:
				a.isum += int64(v)
				a.fsum += types.ToReal(v)
			case Min, Max:
				less := types.Compare(t, v, a.ext) < 0
				if t == types.String {
					less = cell(s.Col, v) < cell(s.Col, a.ext)
				}
				if a.n == 0 || less == (s.Func == Min) && cell(s.Col, v) != cell(s.Col, a.ext) {
					a.ext = v
				}
			case CountD:
				a.set[cell(s.Col, v)] = true
			case Median:
				if t == types.Real {
					a.values = append(a.values, types.ToReal(v))
				} else {
					a.values = append(a.values, float64(int64(v)))
				}
			}
			a.n++
		}
	}
	for _, b := range op.blocks {
		r := make([]uint64, psCols)
		if b.Vecs[0].Runs == nil {
			for i := 0; i < b.N; i++ {
				for c := range r {
					r[c] = b.Vecs[c].Data[i]
				}
				fold(r)
			}
			continue
		}
		for k, run := range b.Vecs[0].Runs {
			for c := range r {
				r[c] = b.Vecs[c].Runs[k].Value
			}
			for i := 0; i < run.Count; i++ {
				fold(r)
			}
		}
	}
	out := map[string][]string{}
	for _, key := range order {
		var cells []string
		for j, s := range specs {
			a := groups[key][j]
			t := types.Integer
			if s.Col >= 0 {
				t = op.schema[s.Col].Type
			}
			switch {
			case s.Func == Count:
				cells = append(cells, strconv.Itoa(a.n))
			case s.Func == CountD:
				cells = append(cells, strconv.Itoa(len(a.set)))
			case a.n == 0 && (s.Func == Min || s.Func == Max):
				cells = append(cells, "NULL")
			case a.n == 0:
				cells = append(cells, types.Format(types.Real, types.NullBits(types.Real)))
			case s.Func == Min || s.Func == Max:
				cells = append(cells, cell(s.Col, a.ext))
			case s.Func == Sum && t == types.Real:
				cells = append(cells, types.Format(types.Real, types.FromReal(a.fsum)))
			case s.Func == Sum:
				cells = append(cells, strconv.FormatInt(a.isum, 10))
			case s.Func == Avg && t == types.Real:
				cells = append(cells, types.Format(types.Real, types.FromReal(a.fsum/float64(a.n))))
			case s.Func == Avg:
				cells = append(cells, types.Format(types.Real, types.FromReal(float64(a.isum)/float64(a.n))))
			default: // MEDIAN
				sort.Float64s(a.values)
				m := len(a.values) / 2
				med := a.values[m]
				if len(a.values)%2 == 0 {
					med = (a.values[m-1] + a.values[m]) / 2
				}
				cells = append(cells, types.Format(types.Real, types.FromReal(med)))
			}
		}
		out[key] = cells
	}
	return out
}

// sameCell compares an engine cell with the reference's, reals at a
// relative tolerance of 1e-9: the engine sums in another order.
func sameCell(got, want string, real bool) bool {
	if got == want || !real {
		return got == want
	}
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(want, 64)
	return err1 == nil && err2 == nil && math.Abs(g-w) <= 1e-9*math.Max(math.Abs(g), math.Abs(w))
}

// TestAggregateStateMatchesReference is the columnar group state's
// property test. Random streams of plain and aligned-run blocks, with
// NULLs and groups whose inputs are all NULL, are aggregated by every
// function over integer, real, date and string inputs, in direct (one
// and two keys), hash (one and two keys) and ordered mode, at 1, 2 and 8
// workers, unbudgeted and under a small budget with spilling (which
// evicts the direct and hash states), with and without MEDIAN (which
// keeps run blocks off the run-at-a-time fold). Every answer must equal
// a map-and-loop reference.
func TestAggregateStateMatchesReference(t *testing.T) {
	const seed = 1
	for _, tc := range []struct {
		name   string
		keys   []int
		mode   AggMode
		sorted bool
	}{
		{"direct", []int{psK1, psK2}, AggDirect, false},
		{"direct-one-key", []int{psK1}, AggDirect, false},
		{"hash", []int{psK1, psK2}, AggHash, false},
		{"hash-one-key", []int{psI}, AggHash, false},
		{"ordered", []int{psK1, psK2}, AggOrdered, true},
	} {
		for _, specs := range [][]AggSpec{propStateSpecs, propStateSpecs[:len(propStateSpecs)-2]} {
			want := propReference(propStateBlocks(seed), tc.keys, specs)
			for _, workers := range []int{1, 2, 8} {
				for _, budgeted := range []bool{false, true} {
					label := fmt.Sprintf("seed=%d %s specs=%d workers=%d budgeted=%v", seed, tc.name, len(specs), workers, budgeted)
					qc := NewQueryCtx(nil, 0)
					if budgeted {
						qc = NewQueryCtxSpill(nil, 256<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
					}
					var child Operator = propStateBlocks(seed)
					if tc.sorted {
						var sk []SortKey
						for _, k := range tc.keys {
							sk = append(sk, SortKey{Col: k})
						}
						child = NewSort(child, sk...)
					}
					agg := parallelAggregate(child, tc.keys, specs, tc.mode, workers)
					got, err := CollectStringsCtx(qc, agg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					wantMode := tc.mode
					if wantMode == AggOrdered && workers > 1 {
						wantMode = AggHash
					}
					if agg.Mode() != wantMode {
						t.Fatalf("%s: ran in %v mode, want %v", label, agg.Mode(), wantMode)
					}
					if budgeted && tc.mode != AggOrdered && qc.SpillPeak() == 0 {
						t.Fatalf("%s: the budget evicted nothing", label)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
					}
					for _, row := range got {
						key := strings.Join(row[:len(tc.keys)], "|")
						w, ok := want[key]
						if !ok {
							t.Fatalf("%s: group %q not in the reference", label, key)
						}
						for j, cell := range row[len(tc.keys):] {
							if !sameCell(cell, w[j], agg.Schema()[len(tc.keys)+j].Type == types.Real) {
								t.Fatalf("%s: group %q %s = %s, want %s", label, key, agg.Schema()[len(tc.keys)+j].Name, cell, w[j])
							}
						}
					}
					if used := qc.Used(); used != 0 {
						t.Fatalf("%s: %d bytes still charged after Close", label, used)
					}
					qc.CleanupSpill()
				}
			}
		}
	}
}

// stateHeld is what c's group state has allocated, the COUNTD/MEDIAN
// values and the string heaps aside: those are charged per input row and
// by heap size.
func stateHeld(c *aggCore) int {
	n := 8*(cap(c.keys)+cap(c.touched)) + 4*(cap(c.slots)+cap(c.page)+cap(c.virt)+cap(c.order))
	for _, a := range c.cols {
		n += 8*(cap(a.cnt)+cap(a.sumI)+cap(a.sumF)+cap(a.ext)+cap(a.seen)) + int(unsafe.Sizeof(wideAcc{}))*cap(a.wide)
	}
	return n
}

// sparseDirectBlocks draws ten blocks whose key takes 30 values spread
// over a 65 536-slot domain (65 535 values and NULL), with an integer and
// a real input.
func sparseDirectBlocks() *blocksOp {
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(65535)[:30]
	op := &blocksOp{schema: []ColInfo{
		{Name: "k", Type: types.Integer, Meta: enc.Metadata{HasRange: true, Min: 0, Max: 65534}},
		{Name: "v", Type: types.Integer}, {Name: "r", Type: types.Real},
	}}
	for k := 0; k < 10; k++ {
		b := vec.NewBlock(3)
		b.N = vec.BlockSize
		for c := range op.schema {
			b.Vecs[c].Type = op.schema[c].Type
		}
		for i := 0; i < b.N; i++ {
			b.Vecs[0].Data[i] = uint64(keys[rng.Intn(len(keys))])
			b.Vecs[1].Data[i] = uint64(rng.Intn(500))
			b.Vecs[2].Data[i] = types.FromReal(float64(rng.Intn(300)) / 4)
		}
		op.blocks = append(op.blocks, b)
	}
	return op
}

// sparseDirectSpecs: four COUNTDs, MIN, MAX, SUM and COUNT(*).
var sparseDirectSpecs = []AggSpec{
	{Func: CountD, Col: 1}, {Func: CountD, Col: 2}, {Func: CountD, Col: 1, Name: "d3"}, {Func: CountD, Col: 2, Name: "d4"},
	{Func: Min, Col: 1}, {Func: Max, Col: 2}, {Func: Sum, Col: 1}, {Func: Count, Col: -1},
}

// TestDirectStateChargeCoversColumns: a direct grouping over a 65 536-slot
// domain holding few groups allocates columns for the pages of slots in
// use, not for the domain, and its charge covers what it allocated after
// every block; an eviction frees the columns and their charge, keeping
// only the up-front first-seen list. Through the operator, the same input
// answers as the unbudgeted hash aggregation does at 1, 2 and 8 workers
// under a small budget with spilling.
func TestDirectStateChargeCoversColumns(t *testing.T) {
	op := sparseDirectBlocks()
	dks := directKeys(op.schema, []int{0}, true)
	if dks == nil {
		t.Fatal("the key has no direct domain")
	}
	bindDirectKeys(dks)
	qc := NewQueryCtx(nil, 0)
	c, err := newAggCore(op.schema, []int{0}, sparseDirectSpecs, AggDirect, dks, &OpStats{}, qc)
	if err != nil {
		t.Fatal(err)
	}
	b := vec.NewBlock(len(op.schema))
	for {
		ok, _ := op.Next(b)
		if !ok {
			break
		}
		if err := c.foldBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := c.chargeGrowth(qc, b.N); err != nil {
			t.Fatal(err)
		}
		if held := stateHeld(c); c.directCharge+c.stateCharged < held {
			t.Fatalf("%d groups: %d bytes allocated, %d charged", c.n, held, c.directCharge+c.stateCharged)
		}
	}
	if c.n != 30 {
		t.Fatalf("%d groups, want 30", c.n)
	}
	if cols, domain := stateHeld(c)-4*cap(c.order), 65536*c.groupCost; cols > domain/4 {
		t.Fatalf("30 groups hold %d bytes of columns; the whole domain's are %d", cols, domain)
	}
	c.resetAfterEvict(qc)
	if held := stateHeld(c); held > c.directCharge || qc.Used() != int64(c.directCharge) {
		t.Fatalf("after eviction: %d bytes allocated, %d charged, want at most %d", held, qc.Used(), c.directCharge)
	}
	c.release(qc)

	mk := func() Operator { return sparseDirectBlocks() }
	want, err := CollectStringsCtx(NewQueryCtx(nil, 0), NewAggregate(mk(), []int{0}, sparseDirectSpecs, AggHash))
	if err != nil {
		t.Fatal(err)
	}
	sortRows(want)
	for _, workers := range []int{1, 2, 8} {
		qc := NewQueryCtxSpill(nil, 512<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
		agg := parallelAggregate(mk(), []int{0}, sparseDirectSpecs, AggDirect, workers)
		got, err := CollectStringsCtx(qc, agg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sortRows(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d (%v mode): %v, want %v", workers, agg.Mode(), got, want)
		}
		if workers == 1 && (agg.Mode() != AggDirect || qc.SpillPeak() == 0) {
			t.Fatalf("workers=1: %v mode, spill peak %d; want direct mode, spilling", agg.Mode(), qc.SpillPeak())
		}
		if used := qc.Used(); used != 0 {
			t.Fatalf("workers=%d: %d bytes still charged after Close", workers, used)
		}
		qc.CleanupSpill()
	}
}
