package exec

import (
	"math/rand"
	"slices"
	"testing"

	"tde/internal/enc"
	"tde/internal/expr"
	"tde/internal/heap"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// makeIntColumn builds a storage column from int64 values.
func makeIntColumn(name string, t types.Type, vals []int64) *storage.Column {
	w := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true,
		Sentinel: types.NullBits(t), HasSentinel: true})
	for _, v := range vals {
		w.AppendOne(uint64(v))
	}
	return &storage.Column{Name: name, Type: t, Data: w.Finish(),
		Meta: enc.MetadataFromStats(w.Stats(), true)}
}

// makeStringColumn builds a string column with accelerator + sorted heap.
func makeStringColumn(name string, vals []string) *storage.Column {
	h := heap.New(types.CollateBinary)
	acc := heap.NewAccelerator(h, 0)
	toks := make([]uint64, len(vals))
	for i, v := range vals {
		toks[i] = acc.Intern(v)
	}
	sorted, remap := h.SortedRemap()
	w := enc.NewWriter(enc.WriterConfig{ConvertOptimal: true,
		Sentinel: types.NullToken, HasSentinel: true})
	for _, t := range toks {
		w.AppendOne(remap[t])
	}
	return &storage.Column{Name: name, Type: types.String,
		Collation: types.CollateBinary, Data: w.Finish(), Heap: sorted,
		Meta: enc.MetadataFromStats(w.Stats(), false)}
}

func makeTable(name string, cols ...*storage.Column) *storage.Table {
	return &storage.Table{Name: name, Columns: cols}
}

func seqInts(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestScanRoundTrip(t *testing.T) {
	n := 3000
	vals := seqInts(n)
	tab := makeTable("t", makeIntColumn("a", types.Integer, vals))
	scan, err := NewScan(tab)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if int64(r[0]) != vals[i] {
			t.Fatalf("row %d = %d", i, int64(r[0]))
		}
	}
}

func TestScanUnknownColumn(t *testing.T) {
	tab := makeTable("t", makeIntColumn("a", types.Integer, seqInts(5)))
	if _, err := NewScan(tab, "missing"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestSelectFilter(t *testing.T) {
	n := 5000
	tab := makeTable("t", makeIntColumn("a", types.Integer, seqInts(n)))
	scan, _ := NewScan(tab)
	pred := expr.NewCmp(expr.GE, expr.NewColRef(0, "a", types.Integer), expr.NewIntConst(4990))
	rows, err := Collect(NewSelect(scan, pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("filter kept %d rows", len(rows))
	}
	if int64(rows[0][0]) != 4990 {
		t.Fatalf("first surviving row %d", int64(rows[0][0]))
	}
}

func TestSelectNullPredicateDropsRow(t *testing.T) {
	vals := []int64{1, types.NullInteger, 3}
	tab := makeTable("t", makeIntColumn("a", types.Integer, vals))
	scan, _ := NewScan(tab)
	pred := expr.NewCmp(expr.GT, expr.NewColRef(0, "a", types.Integer), expr.NewIntConst(0))
	rows, err := Collect(NewSelect(scan, pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("NULL comparison kept the row: %d rows", len(rows))
	}
}

func TestProjectCompute(t *testing.T) {
	tab := makeTable("t", makeIntColumn("a", types.Integer, []int64{10, 20, 30}))
	scan, _ := NewScan(tab)
	e := expr.NewArith(expr.Mul, expr.NewColRef(0, "a", types.Integer), expr.NewIntConst(3))
	rows, err := Collect(NewProject(scan, []expr.Expr{e}, []string{"a3"}))
	if err != nil {
		t.Fatal(err)
	}
	if int64(rows[2][0]) != 90 {
		t.Fatalf("computed %d", int64(rows[2][0]))
	}
}

func TestFlowTableEncodesAndExtractsMetadata(t *testing.T) {
	n := 20000
	rng := rand.New(rand.NewSource(1))
	small := make([]int64, n)
	for i := range small {
		small[i] = int64(rng.Intn(50))
	}
	tab := makeTable("t",
		makeIntColumn("rowid", types.Integer, seqInts(n)),
		makeIntColumn("small", types.Integer, small))
	scan, _ := NewScan(tab)
	ft := NewFlowTable(scan, DefaultFlowTableConfig())
	bt, err := ft.BuildTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Rows != n {
		t.Fatalf("built %d rows", bt.Rows)
	}
	rowid := bt.Cols[0]
	if !rowid.Info.Meta.IsAffine || !rowid.Info.Meta.Dense || !rowid.Info.Meta.Unique {
		t.Errorf("rowid metadata: %+v", rowid.Info.Meta)
	}
	if rowid.Data.Kind() != enc.Affine {
		t.Errorf("rowid encoded as %v", rowid.Data.Kind())
	}
	smallCol := bt.Cols[1]
	if smallCol.Info.Meta.Min != 0 || smallCol.Info.Meta.Max >= 50 && smallCol.Info.Meta.Max > 49 {
		t.Errorf("small range %d..%d", smallCol.Info.Meta.Min, smallCol.Info.Meta.Max)
	}
	// Narrowing should have shrunk the width where the encoding allows.
	if smallCol.Data.Kind() == enc.FrameOfReference && smallCol.Data.Width() != 1 {
		t.Errorf("small column width %d under %v", smallCol.Data.Width(), smallCol.Data.Kind())
	}
}

func TestFlowTableStringsSortHeap(t *testing.T) {
	words := []string{"pear", "apple", "zebra", "apple", "mango", "pear"}
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, words[i%len(words)])
	}
	// Build an unsorted-heap source column.
	h := heap.New(types.CollateBinary)
	acc := heap.NewAccelerator(h, 0)
	w := enc.NewWriter(enc.WriterConfig{Sentinel: types.NullToken, HasSentinel: true})
	for _, v := range vals {
		w.AppendOne(acc.Intern(v))
	}
	col := &storage.Column{Name: "s", Type: types.String, Data: w.Finish(), Heap: h}
	tab := makeTable("t", col)
	scan, _ := NewScan(tab)
	ft := NewFlowTable(scan, DefaultFlowTableConfig())
	bt, err := ft.BuildTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := bt.Cols[0]
	if sc.Info.Heap == nil || !sc.Info.Heap.Sorted() {
		t.Fatal("heap not sorted by FlowTable")
	}
	if !sc.Info.Meta.EntriesSorted {
		t.Error("EntriesSorted metadata missing")
	}
	// Content must be preserved through the remap.
	out, err := CollectStrings(NewBuiltScan(bt))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i][0] != vals[i] {
			t.Fatalf("row %d = %q, want %q", i, out[i][0], vals[i])
		}
	}
	// Sorted heap means token order == string order.
	toks := sc.Info.Heap.Tokens()
	for i := 1; i < len(toks); i++ {
		if sc.Info.Heap.Get(toks[i-1]) >= sc.Info.Heap.Get(toks[i]) {
			t.Fatal("heap element order not ascending")
		}
	}
}

func TestFlowTableEncodingOffStaysRaw(t *testing.T) {
	tab := makeTable("t", makeIntColumn("a", types.Integer, seqInts(5000)))
	scan, _ := NewScan(tab)
	cfg := FlowTableConfig{Encode: false, Accelerate: true}
	bt, err := NewFlowTable(scan, cfg).BuildTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Cols[0].Data.Kind() != enc.None {
		t.Fatalf("encoding off produced %v", bt.Cols[0].Data.Kind())
	}
}

func TestFlowTableParallelMatchesSerial(t *testing.T) {
	n := 10000
	rng := rand.New(rand.NewSource(2))
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = int64(rng.Intn(100))
		b[i] = int64(rng.Intn(1 << 20))
	}
	tab := makeTable("t",
		makeIntColumn("a", types.Integer, a),
		makeIntColumn("b", types.Integer, b))
	build := func(parallel bool) *Built {
		scan, _ := NewScan(tab)
		cfg := DefaultFlowTableConfig()
		cfg.Parallel = parallel
		bt, err := NewFlowTable(scan, cfg).BuildTable(nil)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	s, p := build(false), build(true)
	for c := range s.Cols {
		if s.Cols[c].Data.Kind() != p.Cols[c].Data.Kind() {
			t.Errorf("col %d kinds differ: %v vs %v", c, s.Cols[c].Data.Kind(), p.Cols[c].Data.Kind())
		}
	}
	sr, err := Collect(NewBuiltScan(s))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Collect(NewBuiltScan(p))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r += 531 {
		if !slices.Equal(sr[r], pr[r]) {
			t.Fatalf("row %d differs: %v vs %v", r, sr[r], pr[r])
		}
	}
}

func TestAggregateModes(t *testing.T) {
	n := 30000
	rng := rand.New(rand.NewSource(3))
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(10))
		vals[i] = int64(rng.Intn(1000))
	}
	// Reference result.
	sums := map[int64]int64{}
	counts := map[int64]int64{}
	maxs := map[int64]int64{}
	for i := range keys {
		sums[keys[i]] += vals[i]
		counts[keys[i]]++
		if vals[i] > maxs[keys[i]] {
			maxs[keys[i]] = vals[i]
		}
	}
	tab := makeTable("t",
		makeIntColumn("k", types.Integer, keys),
		makeIntColumn("v", types.Integer, vals))
	for _, mode := range []AggMode{AggHash, AggDirect} {
		scan, _ := NewScan(tab)
		agg := NewAggregate(scan, []int{0},
			[]AggSpec{{Func: Sum, Col: 1}, {Func: Count, Col: 1}, {Func: Max, Col: 1}}, mode)
		rows, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 {
			t.Fatalf("%v: %d groups", mode, len(rows))
		}
		for _, r := range rows {
			k := int64(r[0])
			if int64(r[1]) != sums[k] || int64(r[2]) != counts[k] || int64(r[3]) != maxs[k] {
				t.Fatalf("%v: group %d = %d/%d/%d want %d/%d/%d", mode, k,
					int64(r[1]), int64(r[2]), int64(r[3]), sums[k], counts[k], maxs[k])
			}
		}
	}
}

func TestAggregateOrderedMatchesHash(t *testing.T) {
	// Sorted key input: ordered aggregation must agree with hash.
	n := 20000
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i / 500) // 40 groups, grouped runs
		vals[i] = int64(i % 97)
	}
	tab := makeTable("t",
		makeIntColumn("k", types.Integer, keys),
		makeIntColumn("v", types.Integer, vals))
	results := map[AggMode]map[int64]int64{}
	for _, mode := range []AggMode{AggHash, AggOrdered} {
		scan, _ := NewScan(tab)
		agg := NewAggregate(scan, []int{0}, []AggSpec{{Func: Sum, Col: 1}}, mode)
		rows, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}
		m := map[int64]int64{}
		for _, r := range rows {
			m[int64(r[0])] = int64(r[1])
		}
		results[mode] = m
	}
	if len(results[AggHash]) != len(results[AggOrdered]) {
		t.Fatalf("group counts differ: %d vs %d", len(results[AggHash]), len(results[AggOrdered]))
	}
	for k, v := range results[AggHash] {
		if results[AggOrdered][k] != v {
			t.Fatalf("group %d: ordered %d vs hash %d", k, results[AggOrdered][k], v)
		}
	}
}

func TestAggregateAutoChoosesOrderedForSortedKey(t *testing.T) {
	// A FlowTable over sorted data marks the column sorted; AggAuto must
	// pick ordered aggregation (the tactical decision of Sect. 4.2.2).
	keys := make([]int64, 10000)
	for i := range keys {
		keys[i] = int64(i / 100)
	}
	tab := makeTable("t", makeIntColumn("k", types.Integer, keys))
	scan, _ := NewScan(tab)
	ft := NewFlowTable(scan, DefaultFlowTableConfig())
	if _, err := ft.BuildTable(nil); err != nil {
		t.Fatal(err)
	}
	agg := NewAggregate(ft, []int{0}, []AggSpec{{Func: Count, Col: -1}}, AggAuto)
	if _, err := Collect(agg); err != nil {
		t.Fatal(err)
	}
	if agg.Mode() != AggOrdered {
		t.Errorf("auto mode chose %v for sorted key", agg.Mode())
	}
}

func TestAggregateCountDAndMedianAndAvg(t *testing.T) {
	keys := []int64{1, 1, 1, 1, 2, 2}
	vals := []int64{5, 5, 7, 9, 4, 6}
	tab := makeTable("t",
		makeIntColumn("k", types.Integer, keys),
		makeIntColumn("v", types.Integer, vals))
	scan, _ := NewScan(tab)
	agg := NewAggregate(scan, []int{0}, []AggSpec{
		{Func: CountD, Col: 1}, {Func: Median, Col: 1}, {Func: Avg, Col: 1},
	}, AggHash)
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch int64(r[0]) {
		case 1:
			if int64(r[1]) != 3 {
				t.Errorf("COUNTD = %d", int64(r[1]))
			}
			if types.ToReal(r[2]) != 6 { // median of 5,5,7,9
				t.Errorf("MEDIAN = %v", types.ToReal(r[2]))
			}
			if types.ToReal(r[3]) != 6.5 {
				t.Errorf("AVG = %v", types.ToReal(r[3]))
			}
		case 2:
			if int64(r[1]) != 2 || types.ToReal(r[2]) != 5 {
				t.Errorf("group 2: countd %d median %v", int64(r[1]), types.ToReal(r[2]))
			}
		}
	}
}

func TestAggregateNullsSkipped(t *testing.T) {
	keys := []int64{1, 1, 1}
	vals := []int64{5, types.NullInteger, 7}
	tab := makeTable("t",
		makeIntColumn("k", types.Integer, keys),
		makeIntColumn("v", types.Integer, vals))
	scan, _ := NewScan(tab)
	agg := NewAggregate(scan, []int{0}, []AggSpec{
		{Func: Sum, Col: 1}, {Func: Count, Col: 1}, {Func: Count, Col: -1},
	}, AggHash)
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rows[0][1]) != 12 || int64(rows[0][2]) != 2 || int64(rows[0][3]) != 3 {
		t.Errorf("null handling wrong: %v", rows[0])
	}
}

func TestSortOperator(t *testing.T) {
	vals := []int64{5, 3, 9, 1, 3}
	tab := makeTable("t", makeIntColumn("a", types.Integer, vals))
	scan, _ := NewScan(tab)
	rows, err := Collect(NewSort(scan, SortKey{Col: 0}))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 3, 5, 9}
	for i, r := range rows {
		if int64(r[0]) != want[i] {
			t.Fatalf("sorted[%d] = %d", i, int64(r[0]))
		}
	}
	// Descending.
	scan2, _ := NewScan(tab)
	rows, _ = Collect(NewSort(scan2, SortKey{Col: 0, Desc: true}))
	if int64(rows[0][0]) != 9 || int64(rows[4][0]) != 1 {
		t.Fatal("descending sort wrong")
	}
}

func TestSortNullsFirstAndStrings(t *testing.T) {
	tab := makeTable("t",
		makeIntColumn("a", types.Integer, []int64{2, types.NullInteger, 1}),
		makeStringColumn("s", []string{"b", "c", "a"}))
	scan, _ := NewScan(tab)
	rows, err := CollectStrings(NewSort(scan, SortKey{Col: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "NULL" || rows[1][0] != "1" || rows[2][0] != "2" {
		t.Fatalf("null ordering wrong: %v", rows)
	}
	// Sort by string column.
	scan2, _ := NewScan(tab)
	rows, _ = CollectStrings(NewSort(scan2, SortKey{Col: 1}))
	if rows[0][1] != "a" || rows[2][1] != "c" {
		t.Fatalf("string sort wrong: %v", rows)
	}
}

func TestHashJoinAlgorithms(t *testing.T) {
	// Outer: fact rows with fk in [0, 100); inner: dimension with pk 0..99.
	n := 20000
	rng := rand.New(rand.NewSource(4))
	fk := make([]int64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(100))
	}
	dimVal := make([]int64, 100)
	for i := range dimVal {
		dimVal[i] = int64(i * 7)
	}
	fact := makeTable("fact", makeIntColumn("fk", types.Integer, fk))
	dim := makeTable("dim",
		makeIntColumn("pk", types.Integer, seqInts(100)),
		makeIntColumn("val", types.Integer, dimVal))

	for _, algo := range []JoinAlgo{JoinFetch, JoinDirect, JoinHash, JoinAuto} {
		outer, _ := NewScan(fact)
		dimScan, _ := NewScan(dim)
		ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
		j := NewHashJoin(outer, ft, 0, 0, algo)
		rows, err := Collect(j)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(rows) != n {
			t.Fatalf("%v: joined %d rows", algo, len(rows))
		}
		for i := 0; i < n; i += 977 {
			if int64(rows[i][1]) != fk[i]*7 {
				t.Fatalf("%v: row %d joined wrong: %d", algo, i, int64(rows[i][1]))
			}
		}
		if algo == JoinAuto && j.Algo() != JoinFetch {
			t.Errorf("auto join chose %v for dense unique pk (want fetch)", j.Algo())
		}
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	fact := makeTable("fact", makeIntColumn("fk", types.Integer, []int64{0, 5, 99}))
	dim := makeTable("dim",
		makeIntColumn("pk", types.Integer, []int64{0, 5}),
		makeIntColumn("val", types.Integer, []int64{100, 105}))
	outer, _ := NewScan(fact)
	dimScan, _ := NewScan(dim)
	ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
	j := NewHashJoin(outer, ft, 0, 0, JoinHash)
	j.LeftOuter = true
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("left outer lost rows: %d", len(rows))
	}
	if !types.IsNull(types.Integer, rows[2][1]) {
		t.Error("unmatched row should have NULL inner value")
	}
	// Inner join drops it.
	outer2, _ := NewScan(fact)
	j2 := NewHashJoin(outer2, ft, 0, 0, JoinHash)
	rows, _ = Collect(j2)
	if len(rows) != 2 {
		t.Fatalf("inner join kept %d rows", len(rows))
	}
}

func TestFetchJoinWithStride(t *testing.T) {
	// Inner key affine with delta 3: fetch join must handle stride and
	// reject non-members.
	fact := makeTable("fact", makeIntColumn("fk", types.Integer, []int64{10, 13, 14, 22}))
	dim := makeTable("dim",
		makeIntColumn("pk", types.Integer, []int64{10, 13, 16, 19, 22}),
		makeIntColumn("val", types.Integer, []int64{1, 2, 3, 4, 5}))
	outer, _ := NewScan(fact)
	dimScan, _ := NewScan(dim)
	ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
	j := NewHashJoin(outer, ft, 0, 0, JoinAuto)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if j.Algo() != JoinFetch {
		t.Fatalf("chose %v", j.Algo())
	}
	if len(rows) != 3 { // 14 has no match
		t.Fatalf("fetch join matched %d rows", len(rows))
	}
	if int64(rows[0][1]) != 1 || int64(rows[1][1]) != 2 || int64(rows[2][1]) != 5 {
		t.Fatalf("fetch join values wrong: %v", rows)
	}
}

func TestExchangeUnorderedAndOrdered(t *testing.T) {
	n := 50000
	tab := makeTable("t", makeIntColumn("a", types.Integer, seqInts(n)))
	pred := expr.NewCmp(expr.LT, expr.NewColRef(0, "a", types.Integer), expr.NewIntConst(int64(n/2)))

	run := func(preserve bool) []int64 {
		scan, _ := NewScan(tab)
		ex := NewExchange(NewSelect(scan, pred), 4, preserve)
		rows, err := Collect(ex)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(rows))
		for i, r := range rows {
			out[i] = int64(r[0])
		}
		return out
	}

	ordered := run(true)
	if len(ordered) != n/2 {
		t.Fatalf("ordered exchange kept %d rows", len(ordered))
	}
	for i := 1; i < len(ordered); i++ {
		if ordered[i] < ordered[i-1] {
			t.Fatal("order-preserving exchange emitted out of order")
		}
	}
	unordered := run(false)
	if len(unordered) != n/2 {
		t.Fatalf("unordered exchange kept %d rows", len(unordered))
	}
	sum := int64(0)
	for _, v := range unordered {
		sum += v
	}
	want := int64(n/2) * int64(n/2-1) / 2
	if sum != want {
		t.Fatalf("unordered exchange lost rows: sum %d want %d", sum, want)
	}
}

func TestRunHelper(t *testing.T) {
	tab := makeTable("t", makeIntColumn("a", types.Integer, seqInts(100)))
	scan, _ := NewScan(tab)
	n, err := Run(scan)
	if err != nil || n != 100 {
		t.Fatalf("Run = %d, %v", n, err)
	}
}

func TestStringJoinAcrossHeaps(t *testing.T) {
	// Outer and inner string columns have different heaps: the join must
	// match by content, not token bits.
	fact := makeTable("fact",
		makeStringColumn("code", []string{"bb", "aa", "cc", "aa", "zz"}),
		makeIntColumn("v", types.Integer, []int64{1, 2, 3, 4, 5}))
	dim := makeTable("dim",
		makeStringColumn("code", []string{"aa", "bb", "cc"}),
		makeIntColumn("rank", types.Integer, []int64{10, 20, 30}))
	outer, _ := NewScan(fact)
	dimScan, _ := NewScan(dim)
	ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
	j := NewHashJoin(outer, ft, 0, 0, JoinAuto)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // zz unmatched
		t.Fatalf("joined %d rows", len(rows))
	}
	want := map[int64]int64{1: 20, 2: 10, 3: 30, 4: 10}
	for _, r := range rows {
		if want[int64(r[1])] != int64(r[2]) {
			t.Fatalf("row v=%d rank=%d", int64(r[1]), int64(r[2]))
		}
	}
}

func TestStringJoinCollationAware(t *testing.T) {
	mkCI := func(name string, vals []string) *storage.Column {
		h := heap.New(types.CollateCaseFold)
		acc := heap.NewAccelerator(h, 0)
		w := enc.NewWriter(enc.WriterConfig{ConvertOptimal: true,
			Sentinel: types.NullToken, HasSentinel: true})
		for _, v := range vals {
			w.AppendOne(acc.Intern(v))
		}
		return &storage.Column{Name: name, Type: types.String,
			Collation: types.CollateCaseFold, Data: w.Finish(), Heap: h,
			Meta: enc.MetadataFromStats(w.Stats(), false)}
	}
	fact := makeTable("fact", mkCI("code", []string{"ABC", "xyz"}))
	dim := makeTable("dim",
		mkCI("code", []string{"abc", "XYZ"}),
		makeIntColumn("n", types.Integer, []int64{1, 2}))
	outer, _ := NewScan(fact)
	dimScan, _ := NewScan(dim)
	ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
	j := NewHashJoin(outer, ft, 0, 0, JoinAuto)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("case-insensitive join matched %d rows", len(rows))
	}
	if int64(rows[0][1]) != 1 || int64(rows[1][1]) != 2 {
		t.Fatalf("ci join rows %v", rows)
	}
}

func TestStringJoinNullSemantics(t *testing.T) {
	// NULL string keys match NULL dimension keys (Tableau semantics).
	h := heap.New(types.CollateBinary)
	tok := h.Append("x")
	w := enc.NewWriter(enc.WriterConfig{Sentinel: types.NullToken, HasSentinel: true})
	w.Append([]uint64{tok, types.NullToken})
	factCol := &storage.Column{Name: "code", Type: types.String,
		Data: w.Finish(), Heap: h, Meta: enc.Metadata{}}
	fact := makeTable("fact", factCol)

	h2 := heap.New(types.CollateBinary)
	tok2 := h2.Append("x")
	w2 := enc.NewWriter(enc.WriterConfig{Sentinel: types.NullToken, HasSentinel: true})
	w2.Append([]uint64{tok2, types.NullToken})
	dimKey := &storage.Column{Name: "code", Type: types.String,
		Data: w2.Finish(), Heap: h2, Meta: enc.Metadata{}}
	dim := makeTable("dim", dimKey,
		makeIntColumn("label", types.Integer, []int64{100, 200}))

	outer, _ := NewScan(fact)
	dimScan, _ := NewScan(dim)
	ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
	j := NewHashJoin(outer, ft, 0, 0, JoinAuto)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("null join matched %d rows", len(rows))
	}
	if int64(rows[0][1]) != 100 || int64(rows[1][1]) != 200 {
		t.Fatalf("null join rows %v", rows)
	}
}

func TestJoinSchemaSanitizesOrderMetadata(t *testing.T) {
	// A sorted dimension column is not sorted in join output order; an
	// aggregation choosing ordered mode from stale metadata would produce
	// fragmented groups (regression for the label-grouping bug).
	fact := makeTable("fact", makeIntColumn("fk", types.Integer, []int64{0, 1, 0, 1}))
	dim := makeTable("dim",
		makeIntColumn("pk", types.Integer, []int64{0, 1}),
		makeIntColumn("sorted_val", types.Integer, []int64{10, 20}))
	outer, _ := NewScan(fact)
	dimScan, _ := NewScan(dim)
	ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
	j := NewHashJoin(outer, ft, 0, 0, JoinAuto)
	agg := NewAggregate(j, []int{1}, []AggSpec{{Func: Count, Col: -1}}, AggAuto)
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("stale sorted metadata fragmented groups: %v", rows)
	}
	if agg.Mode() == AggOrdered {
		t.Error("aggregation chose ordered mode on unordered join output")
	}
}

// TestHashJoinDecodesEveryPayloadOnce: the join reads a stored inner in
// place and decodes every payload column flat once at Open, whatever its
// encoding (a delta block or a run list has no constant-time Get), so a
// probe hit is one array read. Only the flat columns are charged; the
// stored streams are not, as a scan's are not.
func TestHashJoinDecodesEveryPayloadOnce(t *testing.T) {
	n := 5000
	rng := rand.New(rand.NewSource(9))
	walk := make([]int64, n) // irregular steps: delta-encodes
	runs := make([]int64, n) // long runs: run-length-encodes
	flat := make([]int64, n) // small random domain: neither
	for i := range walk {
		if i > 0 {
			walk[i] = walk[i-1] + 1 + int64(rng.Intn(2000))
		}
		runs[i] = int64(i / 500)
		flat[i] = int64(rng.Intn(7))
	}
	dim := makeTable("dim", makeIntColumn("pk", types.Integer, seqInts(n)),
		makeIntColumn("walk", types.Integer, walk), makeIntColumn("runs", types.Integer, runs),
		makeIntColumn("flat", types.Integer, flat))
	fk := make([]int64, 20000)
	for i := range fk {
		fk[i] = int64(rng.Intn(n))
	}
	outer, _ := NewScan(makeTable("fact", makeIntColumn("fk", types.Integer, fk)))
	dimScan, _ := NewScan(dim)
	j := NewHashJoin(outer, dimScan, 0, 0, JoinAuto)
	qc := NewQueryCtx(nil, 0)
	if err := j.Open(qc); err != nil {
		t.Fatal(err)
	}
	if j.Algo() != JoinFetch {
		t.Fatalf("ran as %v, want fetch", j.Algo())
	}
	kinds := map[enc.Kind]bool{}
	for c := range j.built.Cols {
		kind := j.built.Cols[c].Data.Kind()
		kinds[kind] = true
		if decoded := len(j.part.cols[c]) == n; decoded != (c != j.innerKey) {
			t.Errorf("column %d (%v): decoded flat = %v", c, kind, decoded)
		}
	}
	if !kinds[enc.Delta] || !kinds[enc.RunLength] {
		t.Fatalf("fixture no longer covers both slow encodings: %v", kinds)
	}
	if want := int64(3 * n * 8); qc.Used() != want {
		t.Errorf("%d bytes charged after Open, want %d (three flat payloads)", qc.Used(), want)
	}
	b := vec.NewBlock(len(j.Schema()))
	row := 0
	for {
		ok, err := j.Next(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for i := 0; i < b.N; i, row = i+1, row+1 {
			k := fk[row]
			got := [3]int64{int64(b.Vecs[1].Data[i]), int64(b.Vecs[2].Data[i]), int64(b.Vecs[3].Data[i])}
			if want := [3]int64{walk[k], runs[k], flat[k]}; got != want {
				t.Fatalf("row %d: payload %v, want %v", row, got, want)
			}
		}
	}
	if row != len(fk) {
		t.Fatalf("joined %d rows, want %d", row, len(fk))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if used := qc.Used(); used != 0 {
		t.Errorf("%d bytes still charged after Close", used)
	}
}
