package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tde/internal/delta"
	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/iofault"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// aggTestTable builds an unsorted table with every column shape the
// aggregates touch: a small string key, two int keys, a real measure, an
// int measure with NULLs, and a high-cardinality string.
func aggTestTable(n int, seed int64) *storage.Table {
	rng := rand.New(rand.NewSource(seed))
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	ks := make([]string, n)
	k1 := make([]int64, n)
	k2 := make([]int64, n)
	vr := make([]int64, n)
	vi := make([]int64, n)
	hs := make([]string, n)
	for i := 0; i < n; i++ {
		ks[i] = keys[rng.Intn(len(keys))]
		k1[i] = int64(rng.Intn(7))
		k2[i] = int64(rng.Intn(5000))
		vr[i] = int64(types.FromReal(rng.Float64()*1000 - 500))
		if rng.Intn(10) == 0 {
			vi[i] = types.NullInteger
		} else {
			vi[i] = int64(rng.Intn(100000) - 50000)
		}
		hs[i] = fmt.Sprintf("item-%04d", rng.Intn(2000))
	}
	rvals := make([]int64, n)
	for i, bits := range vr {
		rvals[i] = bits
	}
	rw := makeIntColumn("vr", types.Real, rvals)
	return makeTable("aggtest",
		makeStringColumn("ks", ks),
		makeIntColumn("k1", types.Integer, k1),
		makeIntColumn("k2", types.Integer, k2),
		rw,
		makeIntColumn("vi", types.Integer, vi),
		makeStringColumn("hs", hs),
	)
}

// sortRows canonicalizes a result for order-insensitive comparison:
// real-valued cells are rounded to 9 significant digits, because parallel
// SUM/AVG reassociate float additions and may differ in the last ulps.
func sortRows(rows [][]string) {
	for _, r := range rows {
		for i, cell := range r {
			if !strings.ContainsAny(cell, ".eE") {
				continue
			}
			if f, err := strconv.ParseFloat(cell, 64); err == nil {
				r[i] = strconv.FormatFloat(f, 'g', 9, 64)
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		return strings.Join(rows[i], "\x00") < strings.Join(rows[j], "\x00")
	})
}

func rowsEqual(t *testing.T, serial, parallel [][]string, label string) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: %d serial rows vs %d parallel", label, len(serial), len(parallel))
	}
	for i := range serial {
		if strings.Join(serial[i], "|") != strings.Join(parallel[i], "|") {
			t.Fatalf("%s: row %d differs:\n serial   %v\n parallel %v",
				label, i, serial[i], parallel[i])
		}
	}
}

// parallelAggregate is NewAggregate with a worker count.
func parallelAggregate(child Operator, keyCols []int, specs []AggSpec, mode AggMode, workers int) *Aggregate {
	a := NewAggregate(child, keyCols, specs, mode)
	a.Workers = workers
	return a
}

// regimeTable is aggTestTable plus the key shapes the mode choice tells
// apart: 6 kd, a dictionary-compressed integer; 7 ko, a sorted integer;
// 8 kn, a narrow integer with NULLs; 9 kci, a string under the ci
// collation whose heap stores case variants as separate elements, and
// NULLs; 10 kw, an envelope of 65 535 values (65 536 slots with NULL's);
// 11 kx, one value more.
func regimeTable(t *testing.T) *storage.Table {
	t.Helper()
	base := aggTestTable(6_000, 7)
	n := base.Rows()
	dv, ov, nv, wv, xv := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range dv {
		dv[i] = int64(1000 + 50*rng.Intn(9))
		ov[i] = int64(i / 100)
		nv[i] = int64(rng.Intn(10))
		if rng.Intn(10) == 0 {
			nv[i] = types.NullInteger
		}
		wv[i] = int64(i*7919) % 65_535
		xv[i] = wv[i]
	}
	wv[1], xv[1] = 65_534, 65_535
	kd := makeIntColumn("kd", types.Integer, dv)
	if err := storage.ConvertToDictCompression(kd); err != nil {
		t.Fatalf("dictionary-compressing kd: %v", err)
	}
	// The first rows name each class by its first heap element, so the
	// serial hash reference (which keeps the first variant it sees) and
	// direct mode (which emits a class's first element) agree on spelling.
	h := heap.New(types.CollateCaseFold)
	var elems []uint64
	for _, s := range []string{"North", "South", "East", "north", "NORTH", "south", "EAST"} {
		elems = append(elems, h.Append(s))
	}
	w := enc.NewWriter(enc.WriterConfig{ConvertOptimal: true, Sentinel: types.NullToken, HasSentinel: true})
	for i := 0; i < n; i++ {
		tok := elems[rng.Intn(len(elems))]
		switch {
		case i < 3:
			tok = elems[i]
		case rng.Intn(20) == 0:
			tok = types.NullToken
		}
		w.AppendOne(tok)
	}
	kci := &storage.Column{Name: "kci", Type: types.String, Collation: types.CollateCaseFold,
		Data: w.Finish(), Heap: h, Meta: enc.MetadataFromStats(w.Stats(), false)}
	return makeTable("aggtest", append(append([]*storage.Column{}, base.Columns...),
		kd, makeIntColumn("ko", types.Integer, ov), makeIntColumn("kn", types.Integer, nv), kci,
		makeIntColumn("kw", types.Integer, wv), makeIntColumn("kx", types.Integer, xv))...)
}

// regimeSpecs reads every aggregate function; MIN, MAX and COUNTD read
// the string column hs (5) as well.
var regimeSpecs = []AggSpec{
	{Func: Count, Col: -1},
	{Func: Sum, Col: 4},
	{Func: Sum, Col: 3},
	{Func: Avg, Col: 4},
	{Func: Min, Col: 4},
	{Func: Max, Col: 3},
	{Func: Min, Col: 5},
	{Func: Max, Col: 5},
	{Func: CountD, Col: 5},
	{Func: CountD, Col: 2},
	{Func: Median, Col: 4},
}

// runAgg aggregates what mk returns by keys over regimeSpecs and returns
// the sorted rows and the operator, for the mode it ran in and its
// routine.
func runAgg(t *testing.T, mk func() Operator, keys []int, mode AggMode, workers int, encodedOff bool, qc *QueryCtx) ([][]string, *Aggregate) {
	t.Helper()
	agg := parallelAggregate(mk(), keys, regimeSpecs, mode, workers)
	agg.EncodedOff = encodedOff
	rows, err := CollectStringsCtx(qc, agg)
	if err != nil {
		t.Fatalf("keys=%v workers=%d: %v", keys, workers, err)
	}
	sortRows(rows)
	return rows, agg
}

// TestAggregateRegimes runs every aggregate function through the one
// Aggregate across its regimes — workers 1/2/8 × the mode the tactical
// choice lands on for each key shape (hash for a key whose domain is
// unknown or too wide, direct for keys whose domains multiply to at most
// 64K slots — narrow integers, dictionary tokens, strings over a
// deduplicated heap, NULL slots included, a single dictionary key
// labelled token-direct — ordered for a sorted key, which more than one
// worker demotes to hash) × unbudgeted and 256 KiB with spilling — and
// requires each to agree with the serial unbudgeted hash aggregation, in
// the mode expected, with EncodedOff keeping dictionary keys off direct
// mode at any worker count. Ordered mode streams its groups, so the
// budget never makes it spill; every other mode spills under it.
func TestAggregateRegimes(t *testing.T) {
	tab := regimeTable(t)
	scan := func() Operator {
		s, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name     string
		keys     []int
		serial   AggMode // what AggAuto picks with one worker
		parallel AggMode // ... and with several
		// Under the 256 KiB budget, from this many workers on the
		// workers' direct tables (one each) do not fit and the operator
		// runs hash cores instead; 0 = never.
		hashFrom int
	}{
		{"hash", []int{4}, AggHash, AggHash, 0},
		// 30 006 slots: two workers' tables fit the budget, eight do not.
		{"direct-multi-key", []int{0, 2}, AggDirect, AggDirect, 8},
		{"hash-global", nil, AggHash, AggHash, 0},
		{"direct", []int{1}, AggDirect, AggDirect, 0},
		// A string key groups on its element's position in the stored heap.
		{"direct-string", []int{0}, AggDirect, AggDirect, 0},
		{"direct-three-keys", []int{1, 6, 0}, AggDirect, AggDirect, 0},
		{"direct-null-slot", []int{8, 9}, AggDirect, AggDirect, 0},
		// Case variants are separate heap elements but one ci group.
		{"direct-ci-string", []int{9}, AggDirect, AggDirect, 0},
		// hs is the key and the input of MIN, MAX and COUNTD.
		{"direct-key-is-minmax-input", []int{5}, AggDirect, AggDirect, 0},
		// 65 536 slots fill the budget on their own.
		{"direct-64k", []int{10}, AggDirect, AggDirect, 2},
		{"hash-64k+1", []int{11}, AggHash, AggHash, 0},
		{"token-direct", []int{6}, AggDirect, AggDirect, 0},
		{"ordered-demoted", []int{7}, AggOrdered, AggHash, 0},
	} {
		want, _ := runAgg(t, scan, tc.keys, AggHash, 1, false, nil)
		for _, workers := range []int{1, 2, 8} {
			for _, budgeted := range []bool{false, true} {
				wantMode := tc.serial
				if workers > 1 {
					wantMode = tc.parallel
				}
				if budgeted && tc.hashFrom > 0 && workers >= tc.hashFrom {
					wantMode = AggHash
				}
				if budgeted && len(tc.keys) == 0 {
					continue // one group's COUNTD/MEDIAN state cannot be evicted piecemeal
				}
				label := fmt.Sprintf("%s workers=%d budgeted=%v", tc.name, workers, budgeted)
				qc := NewQueryCtx(nil, 0)
				if budgeted {
					qc = NewQueryCtxSpill(nil, 256<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
				}
				got, agg := runAgg(t, scan, tc.keys, AggAuto, workers, false, qc)
				if mode := agg.Mode(); mode != wantMode {
					t.Fatalf("%s: ran in %v mode, want %v", label, mode, wantMode)
				}
				if r := agg.opStats().Routine(); strings.Contains(r, "token-direct") != (tc.name == "token-direct") {
					t.Fatalf("%s: routine %q", label, r)
				}
				rowsEqual(t, want, got, label)
				if budgeted && (qc.SpillPeak() == 0) != (wantMode == AggOrdered) {
					t.Fatalf("%s: a 256 KiB budget spilled %d bytes in %v mode", label, qc.SpillPeak(), wantMode)
				}
				if used := qc.Used(); used != 0 {
					t.Fatalf("%s: %d bytes still charged after Close", label, used)
				}
				qc.CleanupSpill()
			}
			if slices.Contains(tc.keys, 6) {
				got, agg := runAgg(t, scan, tc.keys, AggAuto, workers, true, nil)
				if mode := agg.Mode(); mode != AggHash {
					t.Fatalf("%s workers=%d: EncodedOff ran in %v mode, want hash", tc.name, workers, mode)
				}
				rowsEqual(t, want, got, tc.name+" encoded-off")
			}
		}
	}

	// A dirty view keeps the encodings: under deletions and insertions —
	// strings and a dictionary value the base lacks, a NULL, scalars past
	// the base range — every key shape stays in its clean mode and agrees
	// with the view's serial hash aggregation. An insertion that widens
	// kw's envelope past directLimit plans hash instead of failing.
	ins := func(ks string, k1, k2, kd, kw int64, kci string) delta.Op {
		str := func(s string) delta.Value {
			if s == "" {
				return delta.NullOf(types.String)
			}
			return delta.String(s)
		}
		return delta.Op{Table: "aggtest", Kind: delta.OpInsert, Row: []delta.Value{
			str(ks), delta.Scalar(uint64(k1)), delta.Scalar(uint64(k2)), delta.Scalar(types.FromReal(1.5)),
			delta.Scalar(7), str("item-new"), delta.Scalar(uint64(kd)), delta.Scalar(0),
			delta.NullOf(types.Integer), str(kci), delta.Scalar(uint64(kw)), delta.Scalar(5)}}
	}
	ops := []delta.Op{ins("zeta", 3, 10, 9999, 70_000, "WEST"), ins("", 8, 5000, 1000, 3, ""), ins("alpha", 0, 0, 1050, 4, "north")}
	for id := uint64(1000); id < 1100; id++ {
		ops = append(ops, delta.Op{Table: "aggtest", Kind: delta.OpDelete, RowID: id})
	}
	view := deltaView(t, tab, append(ops, delta.Op{Table: "aggtest", Kind: delta.OpDelete, RowID: 5}))
	viewScan := func() Operator {
		s, err := NewViewScan(view)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name string
		keys []int
		mode AggMode
	}{
		{"direct-multi-key", []int{0, 2}, AggDirect},
		{"direct-three-keys", []int{1, 6, 0}, AggDirect},
		{"direct-ci-string", []int{9}, AggDirect},
		{"direct-key-is-minmax-input", []int{5}, AggDirect},
		{"token-direct", []int{6}, AggDirect},
		{"hash-past-64k", []int{10}, AggHash},
	} {
		want, _ := runAgg(t, viewScan, tc.keys, AggHash, 1, false, nil)
		for _, workers := range []int{1, 2, 8} {
			got, agg := runAgg(t, viewScan, tc.keys, AggAuto, workers, false, nil)
			if mode := agg.Mode(); mode != tc.mode {
				t.Fatalf("dirty view %s workers=%d: ran in %v mode, want %v", tc.name, workers, mode, tc.mode)
			}
			rowsEqual(t, want, got, fmt.Sprintf("dirty view %s workers=%d", tc.name, workers))
		}
	}

	// A block whose string key does not carry the column's heap cannot be
	// grouped by element position: a typed error, never a wrong group.
	for _, workers := range []int{1, 2, 8} {
		alien := func() Operator { return &foreignHeapOp{child: scan(), col: 0, after: 2} }
		qc := NewQueryCtx(nil, 0)
		agg := parallelAggregate(alien(), []int{0, 2}, regimeSpecs, AggAuto, workers)
		_, err := CollectStringsCtx(qc, agg)
		if !errors.Is(err, ErrDirectKey) {
			t.Fatalf("foreign heap workers=%d: err = %v, want ErrDirectKey", workers, err)
		}
		if used := qc.Used(); used != 0 {
			t.Fatalf("foreign heap workers=%d: %d bytes still charged after Close", workers, used)
		}
	}
}

// foreignHeapOp passes its child's blocks through, except that from the
// after-th block on, column col carries a copy of its heap: same strings,
// same tokens, another heap.
type foreignHeapOp struct {
	child Operator
	col   int
	after int
	seen  int
}

func (f *foreignHeapOp) Schema() []ColInfo       { return f.child.Schema() }
func (f *foreignHeapOp) Open(qc *QueryCtx) error { f.seen = 0; return f.child.Open(qc) }
func (f *foreignHeapOp) Close() error            { return f.child.Close() }
func (f *foreignHeapOp) Next(b *vec.Block) (bool, error) {
	ok, err := f.child.Next(b)
	if f.seen++; ok && f.seen > f.after {
		v := &b.Vecs[f.col]
		copied, err := heap.FromBytes(v.Heap.Bytes(), v.Heap.Len(), v.Heap.Collation(), v.Heap.Sorted())
		if err != nil {
			return false, err
		}
		v.Heap = copied
	}
	return ok, err
}

// TestAggregateStoredTokenInputs checks MIN, MAX and COUNTD over string
// columns that keep their stored tokens (hs, and kci, whose ci heap
// stores case variants as separate elements) against the same
// aggregation over a schema that hides the stored heap, which translates
// every string into heaps of its own: equal rows under hash, direct and
// global grouping, workers 1/2/8, unbudgeted and spilling, while the
// stored path charges no string bytes. A block on another heap is an
// error, never a count.
func TestAggregateStoredTokenInputs(t *testing.T) {
	tab := regimeTable(t)
	scan := func() Operator {
		s, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	specs := []AggSpec{{Func: Count, Col: -1}, {Func: CountD, Col: 9}, {Func: Min, Col: 9},
		{Func: Max, Col: 9}, {Func: CountD, Col: 5}, {Func: Min, Col: 5}}
	run := func(child Operator, keys []int, workers int, qc *QueryCtx) [][]string {
		t.Helper()
		rows, err := CollectStringsCtx(qc, parallelAggregate(child, keys, specs, AggAuto, workers))
		if err != nil {
			t.Fatalf("keys=%v workers=%d: %v", keys, workers, err)
		}
		for _, r := range rows { // ci MIN/MAX may name a class by any of its elements
			aggs := r[len(r)-len(specs):]
			aggs[2], aggs[3] = strings.ToLower(aggs[2]), strings.ToLower(aggs[3])
		}
		sortRows(rows)
		return rows
	}
	global := run(scan(), nil, 1, nil)
	if got := global[0][1]; got != "3" {
		t.Fatalf("COUNTD(kci) = %s, want 3 ci classes", got)
	}
	for _, keys := range [][]int{nil, {4}, {1}} {
		qc := NewQueryCtx(nil, 0)
		want := run(hiddenHeapOp{scan()}, keys, 1, qc)
		translated := qc.Peak()
		for _, workers := range []int{1, 2, 8} {
			qc := NewQueryCtx(nil, 0)
			got := run(scan(), keys, workers, qc)
			rowsEqual(t, want, got, fmt.Sprintf("keys=%v workers=%d", keys, workers))
			if workers == 1 && qc.Peak() >= translated {
				t.Errorf("keys=%v: stored tokens peaked at %d bytes, translated strings at %d", keys, qc.Peak(), translated)
			}
			if len(keys) == 0 {
				continue // one group's state cannot be evicted piecemeal
			}
			qc = NewQueryCtxSpill(nil, 64<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
			got = run(scan(), keys, workers, qc)
			rowsEqual(t, want, got, fmt.Sprintf("keys=%v workers=%d spilling", keys, workers))
			if qc.SpillPeak() == 0 || qc.Used() != 0 {
				t.Fatalf("keys=%v workers=%d: spill peak %d, %d bytes charged after Close", keys, workers, qc.SpillPeak(), qc.Used())
			}
			qc.CleanupSpill()
		}
	}
	alien := parallelAggregate(&foreignHeapOp{child: scan(), col: 5, after: 2}, []int{4}, specs, AggAuto, 2)
	if _, err := CollectStringsCtx(NewQueryCtx(nil, 0), alien); err == nil {
		t.Fatal("a block on another heap was aggregated as stored tokens")
	}
}

// hiddenHeapOp passes its child through with a schema that does not
// claim the stored heaps.
type hiddenHeapOp struct{ Operator }

func (h hiddenHeapOp) Schema() []ColInfo {
	out := append([]ColInfo(nil), h.Operator.Schema()...)
	for i := range out {
		out[i].StoredHeap = false
	}
	return out
}

// TestAggregateDirectChargeScalesWithWorkers pins the memory behaviour of
// direct mode inside workers: every worker charges its own envelope-sized
// table (here 60 002 slots, 240 KB), so a budget that holds one or two of
// them denies eight — and the operator then runs hash cores, which is what
// a budget too small for the direct tables always meant, spilling or not.
func TestAggregateDirectChargeScalesWithWorkers(t *testing.T) {
	vals := make([]int64, 6_000)
	for i := range vals {
		vals[i] = int64(i%2) * 60_000
	}
	tab := makeTable("wide", makeIntColumn("k", types.Integer, vals))
	specs := []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 0}}
	for _, spill := range []bool{false, true} {
		for _, tc := range []struct {
			workers int
			want    AggMode
		}{{1, AggDirect}, {2, AggDirect}, {8, AggHash}} {
			qc := NewQueryCtx(nil, 1<<20)
			if spill {
				qc = NewQueryCtxSpill(nil, 1<<20, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
			}
			scan, err := NewScan(tab)
			if err != nil {
				t.Fatal(err)
			}
			agg := parallelAggregate(scan, []int{0}, specs, AggAuto, tc.workers)
			rows, err := CollectStringsCtx(qc, agg)
			if err != nil {
				t.Fatalf("workers=%d spill=%v: %v", tc.workers, spill, err)
			}
			if agg.Mode() != tc.want {
				t.Errorf("workers=%d spill=%v: ran in %v mode, want %v", tc.workers, spill, agg.Mode(), tc.want)
			}
			sortRows(rows)
			rowsEqual(t, [][]string{{"0", "3000", "0"}, {"60000", "3000", "180000000"}}, rows,
				fmt.Sprintf("workers=%d spill=%v", tc.workers, spill))
			if used := qc.Used(); used != 0 {
				t.Errorf("workers=%d spill=%v: %d bytes still charged after Close", tc.workers, spill, used)
			}
			qc.CleanupSpill()
		}
	}
}

// TestAggregateWorkersOverRuns folds a run-emitting scan with several
// workers: each worker holds one block's runs while the scan fills the
// next worker's, so the runs must live in the block, not in the scan
// (a shared buffer is a data race under -race and a wrong SUM without it).
func TestAggregateWorkersOverRuns(t *testing.T) {
	vals := make([]int64, 300_000)
	var sum int64
	for i := range vals {
		vals[i] = int64(i / 7 % 1000)
		sum += vals[i]
	}
	col := makeIntColumn("v", types.Integer, vals)
	if col.Data.Kind() != enc.RunLength {
		t.Fatalf("column encoded as %v, want run-length", col.Data.Kind())
	}
	tab := makeTable("runs", col)
	for _, workers := range []int{1, 2, 8} {
		scan, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		scan.EmitRuns = true
		agg := parallelAggregate(scan, nil, []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 0}}, AggAuto, workers)
		rows, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || int64(rows[0][0]) != int64(len(vals)) || int64(rows[0][1]) != sum {
			t.Errorf("workers=%d: got %v, want [[%d %d]]", workers, rows, len(vals), sum)
		}
		if r := agg.routine(); !strings.HasPrefix(r, "rle-") {
			t.Errorf("workers=%d: routine %q did not fold runs", workers, r)
		}
	}
}

// TestAggregateEmptyInput checks zero input rows yields zero groups at
// any worker count, without hanging a worker.
func TestAggregateEmptyInput(t *testing.T) {
	tab := makeTable("empty", makeIntColumn("k", types.Integer, nil))
	for _, workers := range []int{1, 4} {
		scan, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(parallelAggregate(scan, []int{0}, []AggSpec{{Func: Count, Col: -1}}, AggAuto, workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("workers=%d: empty input produced %d groups", workers, len(rows))
		}
	}
}

// TestAggregateEmptyInputWithoutKeys: an aggregate without keys answers
// one row over no rows — the COUNTs 0, every other aggregate NULL — in
// every mode, serial and parallel, with and without a spill budget.
func TestAggregateEmptyInputWithoutKeys(t *testing.T) {
	tab := makeTable("empty", makeIntColumn("k", types.Integer, nil))
	specs := []AggSpec{{Func: Count, Col: -1}, {Func: Count, Col: 0}, {Func: CountD, Col: 0},
		{Func: Sum, Col: 0}, {Func: Avg, Col: 0}, {Func: Min, Col: 0}, {Func: Max, Col: 0}, {Func: Median, Col: 0}}
	want := "0|0|0|NULL|NULL|NULL|NULL|NULL"
	for _, mode := range []AggMode{AggAuto, AggHash, AggDirect, AggOrdered} {
		for _, workers := range []int{1, 4} {
			for _, spilling := range []bool{false, true} {
				scan, err := NewScan(tab)
				if err != nil {
					t.Fatal(err)
				}
				qc := NewQueryCtx(nil, 0)
				if spilling {
					qc = NewQueryCtxSpill(nil, 64<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
				}
				rows, err := CollectStringsCtx(qc, parallelAggregate(scan, nil, specs, mode, workers))
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != 1 || strings.Join(rows[0], "|") != want {
					t.Fatalf("mode=%v workers=%d spilling=%v: got %v, want one row %s", mode, workers, spilling, rows, want)
				}
				qc.CleanupSpill()
			}
		}
	}
}

// errAfterOp yields its child's blocks until a count, then errors.
type errAfterOp struct {
	child Operator
	after int
	seen  int
	err   error
}

func (e *errAfterOp) Schema() []ColInfo       { return e.child.Schema() }
func (e *errAfterOp) Open(qc *QueryCtx) error { e.seen = 0; return e.child.Open(qc) }
func (e *errAfterOp) Close() error            { return e.child.Close() }
func (e *errAfterOp) Next(b *vec.Block) (bool, error) {
	if e.seen >= e.after {
		return false, e.err
	}
	e.seen++
	return e.child.Next(b)
}

// TestAggregateFailures checks the three ways consuming can fail — a
// child error mid-stream, a budget too small for the group state (the
// workers' charges share one accountant) and cancellation — surface from
// Open exactly once at any worker count, stop every worker, and leave
// nothing charged.
func TestAggregateFailures(t *testing.T) {
	tab := aggTestTable(30_000, 11)
	boom := errors.New("boom")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		qc    func() *QueryCtx
		wrap  func(Operator) Operator
		keys  []int
		specs []AggSpec
		want  error
	}{
		{"child-error", func() *QueryCtx { return NewQueryCtx(nil, 0) },
			func(op Operator) Operator { return &errAfterOp{child: op, after: 3, err: boom} },
			[]int{1}, []AggSpec{{Func: Sum, Col: 4}}, boom},
		{"budget", func() *QueryCtx { return NewQueryCtx(nil, 20_000) },
			func(op Operator) Operator { return op },
			[]int{2}, []AggSpec{{Func: CountD, Col: 5}}, ErrBudgetExceeded},
		{"cancel", func() *QueryCtx { return NewQueryCtx(cancelled, 0) },
			func(op Operator) Operator { return op },
			[]int{1}, []AggSpec{{Func: Sum, Col: 4}}, context.Canceled},
	} {
		for _, workers := range []int{1, 4, 8} {
			scan, err := NewScan(tab)
			if err != nil {
				t.Fatal(err)
			}
			qc := tc.qc()
			agg := parallelAggregate(tc.wrap(scan), tc.keys, tc.specs, AggAuto, workers)
			if err := agg.Open(qc); !errors.Is(err, tc.want) {
				t.Fatalf("%s workers=%d: Open = %v, want %v", tc.name, workers, err, tc.want)
			}
			agg.Close()
			if used := qc.Used(); used != 0 {
				t.Fatalf("%s workers=%d: %d bytes still charged after Close", tc.name, workers, used)
			}
		}
	}
}

// TestAggregateMinMaxOverDictionary: MIN and MAX of a dictionary column
// answer its values, not a dictionary entry indexed by them, at any
// worker count and through a budget that spills.
func TestAggregateMinMaxOverDictionary(t *testing.T) {
	tab := regimeTable(t)
	kd := tab.Column("kd")
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < kd.Rows(); i++ {
		v := int64(kd.Value(i))
		lo, hi = min(lo, v), max(hi, v)
	}
	specs := []AggSpec{{Func: Min, Col: 6}, {Func: Max, Col: 6}}
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 64 << 10} {
			scan, err := NewScan(tab)
			if err != nil {
				t.Fatal(err)
			}
			qc := NewQueryCtx(nil, 0)
			if budget > 0 {
				qc = NewQueryCtxSpill(nil, budget, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
			}
			// Grouped by the wide k2, so the budgeted runs spill.
			rows, err := CollectStringsCtx(qc, parallelAggregate(scan, []int{2}, specs, AggAuto, workers))
			if err != nil {
				t.Fatal(err)
			}
			glo, ghi := int64(math.MaxInt64), int64(math.MinInt64)
			for _, r := range rows {
				x, err1 := strconv.ParseInt(r[1], 10, 64)
				y, err2 := strconv.ParseInt(r[2], 10, 64)
				if err1 != nil || err2 != nil {
					t.Fatalf("workers=%d budget=%d: row %v", workers, budget, r)
				}
				glo, ghi = min(glo, x), max(ghi, y)
			}
			if glo != lo || ghi != hi {
				t.Fatalf("workers=%d budget=%d: MIN/MAX(kd) = %d/%d, want %d/%d", workers, budget, glo, ghi, lo, hi)
			}
			if budget > 0 && qc.SpillPeak() == 0 {
				t.Fatalf("workers=%d: a %d-byte budget did not spill", workers, budget)
			}
			qc.CleanupSpill()
		}
	}
}

// TestAggregateMergeStreamsGroups forces the hash spill's depth-cap
// merge: four keys that share one partition at every depth, each with a
// COUNTD over 1 500 distinct strings. One group's state fits the budget
// and four do not, so no partition folds in memory and re-hashing never
// parts them; the merge must stream them one running group at a time and
// answer like the unbudgeted aggregation at every worker count.
func TestAggregateMergeStreamsGroups(t *testing.T) {
	part := func(depth int, k int64) int {
		h := newSpillHasher(depth)
		h.fold(uint64(k))
		return h.part()
	}
	keys := []int64{0}
	for k := int64(1); len(keys) < 4; k++ {
		same := true
		for d := 0; d <= spillMaxDepth; d++ {
			same = same && part(d, k) == part(d, 0)
		}
		if same {
			keys = append(keys, k)
		}
	}
	var kv []int64
	var sv []string
	for i := 0; i < 1500; i++ {
		for _, k := range keys {
			kv = append(kv, k)
			sv = append(sv, fmt.Sprintf("s-%d-%d", k, i))
		}
	}
	tab := makeTable("heavy", makeIntColumn("k", types.Integer, kv), makeStringColumn("s", sv))
	specs := []AggSpec{{Func: CountD, Col: 1}, {Func: Count, Col: -1}}
	scan := func() Operator {
		s, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want, err := CollectStrings(NewAggregate(scan(), []int{0}, specs, AggHash))
	if err != nil {
		t.Fatal(err)
	}
	sortRows(want)
	for _, workers := range []int{1, 2, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		qc := NewQueryCtxSpill(nil, 64<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
		agg := parallelAggregate(scan(), []int{0}, specs, AggHash, workers)
		got, err := CollectStringsCtx(qc, agg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sortRows(got)
		rowsEqual(t, want, got, label)
		if d := agg.opStats().Spill.MaxDepth; d != spillMaxDepth {
			t.Errorf("%s: spilled to depth %d, want the merge at %d", label, d, spillMaxDepth)
		}
		if used := qc.Used(); used != 0 {
			t.Errorf("%s: %d bytes still charged after Close", label, used)
		}
		qc.CleanupSpill()
	}
}

// TestAggregateMergeKeyOrder: the merge fallback sorts partial rows
// under the engine's one row order, which must keep each group's rows
// together. The keys are a real and a case-insensitive string: two
// strings, each with 0.0 and with -0.0, which compare equal but group
// apart (the aggregation groups on bits), and each string in two
// spellings that fold into one group; the groups' rows interleave. The
// first spill write fails with ENOSPC, so the aggregation takes the
// disk-full ladder: every spilled row folds as one partition, which the
// four groups' state does not fit, and the partition goes to the merge.
// It must answer like the unbudgeted aggregation at every worker count.
func TestAggregateMergeKeyOrder(t *testing.T) {
	zeros := []float64{0, math.Copysign(0, -1)}
	var rv []int64
	var sv []string
	h := heap.New(types.CollateCaseFold)
	w := enc.NewWriter(enc.WriterConfig{ConvertOptimal: true, Sentinel: types.NullToken, HasSentinel: true})
	for i := 0; i < 1500; i++ {
		for _, s := range []string{"key-a", "key-b"} {
			if i/100%2 == 1 { // the blocks, and so the evicted groups, start with either spelling
				s = strings.ToUpper(s)
			}
			for _, z := range zeros {
				rv = append(rv, int64(types.FromReal(z)))
				w.AppendOne(h.Append(s))
				sv = append(sv, fmt.Sprintf("v-%d-%d", len(sv)%4, i))
			}
		}
	}
	sc := &storage.Column{Name: "s", Type: types.String, Collation: types.CollateCaseFold,
		Data: w.Finish(), Heap: h, Meta: enc.MetadataFromStats(w.Stats(), false)}
	tab := makeTable("zeros", makeIntColumn("r", types.Real, rv), sc, makeStringColumn("v", sv))
	specs := []AggSpec{{Func: CountD, Col: 2}, {Func: Count, Col: -1}}
	run := func(qc *QueryCtx, workers int) [][]string {
		scan, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := CollectStringsCtx(qc, parallelAggregate(scan, []int{0, 1}, specs, AggHash, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, r := range rows {
			r[1] = strings.ToLower(r[1]) // a folded group answers any of its spellings
		}
		sortRows(rows)
		return rows
	}
	want := run(NewQueryCtx(nil, 0), 1)
	if len(want) != 4 {
		t.Fatalf("unbudgeted: %d groups, want 4: %v", len(want), want)
	}
	for _, workers := range []int{1, 2, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		disk := &fillingDisk{FS: iofault.OS}
		disk.failing.Store(1)
		qc := NewQueryCtxSpill(nil, 64<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir(), FS: disk})
		rowsEqual(t, want, run(qc, workers), label)
		if disk.failed.Load() == 0 {
			t.Errorf("%s: no spill write failed; the disk-full ladder was not taken", label)
		}
		if used := qc.Used(); used != 0 {
			t.Errorf("%s: %d bytes still charged after Close", label, used)
		}
		qc.CleanupSpill()
	}
}

// TestAggregateSingleKeySkipsSplit: one key with a COUNTD over 1 500
// distinct strings, each seen ten times, under a tight budget. Every
// eviction spills the group's distinct values again, so its one partition
// holds several times the rows its state needs and fails the hash fold.
// Hash re-partitioning cannot part one key: the partition goes straight
// to the merge (depth 0), whose running group is charged what it retains.
// More workers spill more runs, and the merge holds a chunk of each, so
// they get the larger budget.
func TestAggregateSingleKeySkipsSplit(t *testing.T) {
	var kv []int64
	var sv []string
	for r := 0; r < 10; r++ {
		for i := 0; i < 1500; i++ {
			kv = append(kv, 7)
			sv = append(sv, fmt.Sprintf("s-%d", i))
		}
	}
	tab := makeTable("single", makeIntColumn("k", types.Integer, kv), makeStringColumn("s", sv))
	specs := []AggSpec{{Func: CountD, Col: 1}, {Func: Count, Col: -1}}
	scan := func() Operator {
		s, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := [][]string{{"7", "1500", "15000"}}
	for _, c := range []struct {
		workers int
		budget  int64
	}{{1, 64 << 10}, {2, 64 << 10}, {2, 96 << 10}, {8, 96 << 10}} {
		label := fmt.Sprintf("workers=%d budget=%d", c.workers, c.budget)
		qc := NewQueryCtxSpill(nil, c.budget, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
		agg := parallelAggregate(scan(), []int{0}, specs, AggHash, c.workers)
		got, err := CollectStringsCtx(qc, agg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rowsEqual(t, want, got, label)
		if qc.SpillPeak() == 0 {
			t.Errorf("%s: did not spill", label)
		}
		if d := agg.opStats().Spill.MaxDepth; d != 0 {
			t.Errorf("%s: re-partitioned to depth %d, want the merge at depth 0", label, d)
		}
		if used := qc.Used(); used != 0 {
			t.Errorf("%s: %d bytes still charged after Close", label, used)
		}
		qc.CleanupSpill()
	}
}

// TestOrderedAggregateStreams checks that ordered aggregation is a flow:
// a LIMIT over it pulls only the child blocks its first groups need and
// closes the child mid-stream with nothing left charged, a re-Open after
// a partial read answers in full, and so does a run under a budget far
// below the groups' total, with no spilling: the groups leave as the
// budget denies their growth.
func TestOrderedAggregateStreams(t *testing.T) {
	n := 45_000
	tab := makeTable("sorted", makeIntColumn("k", types.Integer, seqInts(n)),
		makeIntColumn("v", types.Integer, seqInts(n)))
	scan, err := NewScan(tab)
	if err != nil {
		t.Fatal(err)
	}
	child := &countingOp{child: scan}
	agg := NewAggregate(child, []int{0}, []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 1}}, AggAuto)
	closed := func(label string, qc *QueryCtx) {
		t.Helper()
		if child.open.Load() != 0 || qc.Used() != 0 {
			t.Errorf("%s: child open %d, %d bytes charged after Close", label, child.open.Load(), qc.Used())
		}
	}
	full := func(label string, rows [][]string) {
		t.Helper()
		if len(rows) != n {
			t.Fatalf("%s: %d groups, want %d", label, len(rows), n)
		}
		for i, r := range rows {
			if r[0] != strconv.Itoa(i) || r[1] != "1" || r[2] != strconv.Itoa(i) {
				t.Fatalf("%s: group %d: %v", label, i, r)
			}
		}
	}

	qc := NewQueryCtx(nil, 0)
	rows, err := CollectStringsCtx(qc, NewLimit(agg, 5))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Mode() != AggOrdered || len(rows) != 5 {
		t.Fatalf("ran in %v mode and answered %d rows, want ordered and 5", agg.Mode(), len(rows))
	}
	if got := child.blocks.Load(); got > 2 {
		t.Errorf("LIMIT 5 pulled %d child blocks, want at most 2", got)
	}
	closed("limit", qc)

	if err := agg.Open(qc); err != nil {
		t.Fatal(err)
	}
	if ok, err := agg.Next(vec.NewBlock(len(agg.Schema()))); !ok || err != nil {
		t.Fatalf("partial read: %v %v", ok, err)
	}
	rows, err = CollectStringsCtx(qc, agg) // re-Opens
	if err != nil {
		t.Fatal(err)
	}
	full("re-Open", rows)
	closed("re-Open", qc)

	qc = NewQueryCtx(nil, 64<<10)
	rows, err = CollectStringsCtx(qc, agg)
	if err != nil {
		t.Fatal(err)
	}
	full("64 KiB", rows)
	closed("64 KiB", qc)
}
