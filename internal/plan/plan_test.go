package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tde/internal/delta"
	"tde/internal/enc"
	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/heap"
	"tde/internal/storage"
	"tde/internal/types"
)

func intColumn(name string, t types.Type, vals []int64) *storage.Column {
	w := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true,
		Sentinel: types.NullBits(t), HasSentinel: true})
	for _, v := range vals {
		w.AppendOne(uint64(v))
	}
	return &storage.Column{Name: name, Type: t, Data: w.Finish(),
		Meta: enc.MetadataFromStats(w.Stats(), true)}
}

// dictDateColumn builds a dictionary-compressed date column: dense tokens
// into a sorted scalar dictionary (the paper's canonical compressed date).
func dictDateColumn(name string, days []int64) *storage.Column {
	// Dictionary = sorted distinct days.
	seen := map[int64]bool{}
	var dict []uint64
	for _, d := range days {
		if !seen[d] {
			seen[d] = true
			dict = append(dict, uint64(d))
		}
	}
	for i := 1; i < len(dict); i++ {
		for j := i; j > 0 && int64(dict[j]) < int64(dict[j-1]); j-- {
			dict[j], dict[j-1] = dict[j-1], dict[j]
		}
	}
	rank := map[int64]uint64{}
	for i, v := range dict {
		rank[int64(v)] = uint64(i)
	}
	w := enc.NewWriter(enc.WriterConfig{ConvertOptimal: true})
	for _, d := range days {
		w.AppendOne(rank[d])
	}
	return &storage.Column{Name: name, Type: types.Date, Data: w.Finish(), Dict: dict}
}

// nullWord stands for a NULL string in strColumn's values.
const nullWord = "\x00NULL"

func strColumn(name string, vals []string, sortHeap bool) *storage.Column {
	h := heap.New(types.CollateBinary)
	acc := heap.NewAccelerator(h, 0)
	toks := make([]uint64, len(vals))
	for i, v := range vals {
		toks[i] = types.NullToken
		if v != nullWord {
			toks[i] = acc.Intern(v)
		}
	}
	if sortHeap {
		sorted, remap := h.SortedRemap()
		for i := range toks {
			if toks[i] != types.NullToken {
				toks[i] = remap[toks[i]]
			}
		}
		h = sorted
	}
	w := enc.NewWriter(enc.WriterConfig{ConvertOptimal: true,
		Sentinel: types.NullToken, HasSentinel: true})
	for _, t := range toks {
		w.AppendOne(t)
	}
	return &storage.Column{Name: name, Type: types.String,
		Collation: types.CollateBinary, Data: w.Finish(), Heap: h,
		Meta: enc.MetadataFromStats(w.Stats(), false)}
}

func TestIndexTable(t *testing.T) {
	// 4 runs of 250.
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i / 250)
	}
	col := intColumn("idx", types.Integer, vals)
	if col.Data.Kind() != enc.RunLength {
		t.Skipf("encoded as %v", col.Data.Kind())
	}
	bt, err := IndexTable(col)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Rows != 4 {
		t.Fatalf("index table has %d runs", bt.Rows)
	}
	rows, err := exec.Collect(exec.NewBuiltScan(bt))
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range rows {
		if want := []uint64{uint64(r), 250, uint64(r) * 250}; !slices.Equal(row, want) {
			t.Errorf("run %d: (value, count, start) = %v, want %v", r, row, want)
		}
	}
	// Sorted metadata must flow through for ordered aggregation.
	if !bt.Cols[0].Info.Meta.SortedKnown || !bt.Cols[0].Info.Meta.SortedAsc {
		t.Error("index value column not marked sorted")
	}
}

// buildRLTable builds the Sect. 5.3 artificial table: primary and
// secondary uniform [0,100), sorted ascending on both.
func buildRLTable(t testing.TB, n int) *storage.Table {
	rng := rand.New(rand.NewSource(42))
	primary := make([]int64, n)
	secondary := make([]int64, n)
	other := make([]int64, n)
	for i := range primary {
		primary[i] = int64(rng.Intn(100))
		secondary[i] = int64(rng.Intn(100))
		other[i] = int64(rng.Intn(1000000))
	}
	// Sort ascending on (primary, secondary).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ { // insertion would be slow; use sort.Slice
		_ = i
	}
	sortPairs(idx, primary, secondary)
	p2 := make([]int64, n)
	s2 := make([]int64, n)
	o2 := make([]int64, n)
	for i, j := range idx {
		p2[i], s2[i], o2[i] = primary[j], secondary[j], other[j]
	}
	return &storage.Table{Name: "rl", Columns: []*storage.Column{
		intColumn("primary", types.Integer, p2),
		intColumn("secondary", types.Integer, s2),
		intColumn("other", types.Integer, o2),
	}}
}

func sortPairs(idx []int, primary, secondary []int64) {
	lessFn := func(a, b int) bool {
		if primary[a] != primary[b] {
			return primary[a] < primary[b]
		}
		return secondary[a] < secondary[b]
	}
	// simple sort
	quickSortIdx(idx, lessFn)
}

func quickSortIdx(idx []int, less func(a, b int) bool) {
	if len(idx) < 2 {
		return
	}
	pivot := idx[len(idx)/2]
	var lo, eq, hi []int
	for _, v := range idx {
		switch {
		case less(v, pivot):
			lo = append(lo, v)
		case less(pivot, v):
			hi = append(hi, v)
		default:
			eq = append(eq, v)
		}
	}
	quickSortIdx(lo, less)
	quickSortIdx(hi, less)
	copy(idx, lo)
	copy(idx[len(lo):], eq)
	copy(idx[len(lo)+len(eq):], hi)
}

// referenceFig10 computes the expected query answer directly.
func referenceFig10(tab *storage.Table, filterCol string, cutoff int64) map[int64]int64 {
	fc := tab.Column(filterCol)
	oc := tab.Column("other")
	out := map[int64]int64{}
	for i := 0; i < tab.Rows(); i++ {
		k := int64(fc.Value(i))
		if k <= cutoff {
			continue
		}
		v := int64(oc.Value(i))
		if cur, ok := out[k]; !ok || v > cur {
			out[k] = v
		}
	}
	return out
}

func fig10Query(tab *storage.Table, filterCol string, cutoff int64) Query {
	return Query{
		Table: tab,
		Where: expr.NewCmp(expr.GT,
			expr.NewColRef(0, filterCol, types.Integer), expr.NewIntConst(cutoff)),
		GroupBy: []string{filterCol},
		Aggs:    []AggItem{{Func: exec.Max, Col: "other"}},
	}
}

func checkFig10(t *testing.T, op exec.Operator, want map[int64]int64) {
	t.Helper()
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d groups, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if int64(r[1]) != want[int64(r[0])] {
			t.Fatalf("group %d: got %d want %d", int64(r[0]), int64(r[1]), want[int64(r[0])])
		}
	}
}

func TestFig10PlansAgree(t *testing.T) {
	tab := buildRLTable(t, 60000)
	if tab.Column("primary").Data.Kind() != enc.RunLength {
		t.Fatalf("primary encoded as %v, want rle", tab.Column("primary").Data.Kind())
	}
	for _, filterCol := range []string{"primary", "secondary"} {
		want := referenceFig10(tab, filterCol, 50)
		q := fig10Query(tab, filterCol, 50)

		// Plan 1: control (Scan => Filter => Aggregate).
		p1, ex1, err := Build(q, Options{NoIndexPlan: true})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ex1.String(), "Scan") {
			t.Errorf("plan 1 is %s", ex1)
		}
		checkFig10(t, p1, want)

		// Plan 2: Index => Filter => Scan(ranges) => Aggregate.
		p2, ex2, err := Build(q, Options{OrderedIndex: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ex2.String(), "IndexTable") || !strings.Contains(ex2.String(), "Scan(rl ranges)") {
			t.Errorf("plan 2 is %s", ex2)
		}
		checkFig10(t, p2, want)

		// Plan 3: Index => Filter => Sort => Scan(ranges) => OrdAggr.
		p3, ex3, err := Build(q, Options{OrderedIndex: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ex3.String(), "Sort") {
			t.Errorf("plan 3 is %s", ex3)
		}
		checkFig10(t, p3, want)
	}
}

func TestFig10Plan3UsesOrderedAggregation(t *testing.T) {
	tab := buildRLTable(t, 60000)
	q := fig10Query(tab, "secondary", 60)
	op, _, err := Build(q, Options{OrderedIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Walk: finishPlan wraps the range scan in an Aggregate.
	agg, ok := op.(*exec.Aggregate)
	if !ok {
		t.Fatalf("top operator is %T", op)
	}
	if _, err := exec.Collect(agg); err != nil {
		t.Fatal(err)
	}
	if agg.Mode() != exec.AggOrdered {
		t.Errorf("plan 3 aggregation mode %v, want ordered", agg.Mode())
	}
}

// runScanPlan builds q, requires the scan plan (a Filter over the scan,
// no rewrite), and runs it, returning the rows and the Select's routine.
func runScanPlan(t *testing.T, q Query) ([][]string, string) {
	t.Helper()
	op, ex, err := Build(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan := ex.String(); !strings.HasPrefix(plan, "Scan(") || !strings.Contains(plan, "Filter[") ||
		strings.Contains(plan, "Index") {
		t.Fatalf("plan %s, want Scan => Filter", plan)
	}
	qc := exec.NewQueryCtx(nil, 0)
	rows, err := exec.CollectStringsCtx(qc, op)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range qc.OpSnapshots(ex.Tree) {
		if s.Kind == "Select" {
			return rows, s.Routine
		}
	}
	t.Fatalf("no Select in the stats of %s", ex)
	return nil, ""
}

// TestDictFilterStringResidual: a string equality runs through the heap's
// token truth table (Sect. 4.1) and a conjunct over two columns stays a
// residual evaluated on the survivors.
func TestDictFilterStringResidual(t *testing.T) {
	n := 30000
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	rng := rand.New(rand.NewSource(7))
	svals := make([]string, n)
	ovals := make([]int64, n)
	for i := range svals {
		svals[i] = words[rng.Intn(len(words))]
		ovals[i] = int64(rng.Intn(1000))
	}
	tab := &storage.Table{Name: "t", Columns: []*storage.Column{
		strColumn("word", svals, true),
		intColumn("v", types.Integer, ovals),
	}}
	word, v := expr.NewColRef(0, "word", types.String), expr.NewColRef(0, "v", types.Integer)
	beta := expr.NewCmp(expr.EQ, word, expr.NewStringConst("beta"))
	residual := expr.NewOr(expr.NewCmp(expr.LT, v, expr.NewIntConst(300)),
		expr.NewCmp(expr.EQ, word, expr.NewStringConst("gamma")))
	for _, c := range []struct {
		where expr.Expr
		keep  func(i int) bool
	}{
		{beta, func(i int) bool { return svals[i] == "beta" }},
		{expr.NewAnd(beta, residual), func(i int) bool { return svals[i] == "beta" && ovals[i] < 300 }},
	} {
		var sum, cnt int64
		for i := range svals {
			if c.keep(i) {
				sum += ovals[i]
				cnt++
			}
		}
		q := Query{Table: tab, Where: c.where,
			Aggs: []AggItem{{Func: exec.Sum, Col: "v"}, {Func: exec.Count, Col: ""}}}
		rows, routine := runScanPlan(t, q)
		if routine != "dict-filter" {
			t.Errorf("WHERE %s: select routine %q, want dict-filter", c.where, routine)
		}
		if len(rows) != 1 || rows[0][0] != fmt.Sprint(sum) || rows[0][1] != fmt.Sprint(cnt) {
			t.Fatalf("WHERE %s: result %v, want sum %d count %d", c.where, rows, sum, cnt)
		}
	}
}

// TestDictFilterCompressedDateRange is the canonical Sect. 4.1.2 case: a
// dictionary-compressed date column with a sorted dictionary under a
// range predicate, filtered through the dictionary's truth table.
func TestDictFilterCompressedDateRange(t *testing.T) {
	n := 50000
	rng := rand.New(rand.NewSource(8))
	base := types.DaysFromCivil(2013, 1, 1)
	days := make([]int64, n)
	vals := make([]int64, n)
	for i := range days {
		days[i] = base + int64(rng.Intn(365))
		vals[i] = int64(rng.Intn(100))
	}
	tab := &storage.Table{Name: "t", Columns: []*storage.Column{
		dictDateColumn("d", days),
		intColumn("v", types.Integer, vals),
	}}
	lo := base + 100
	hi := base + 200
	var want, cnt int64
	for i := range days {
		if days[i] >= lo && days[i] < hi {
			want += vals[i]
			cnt++
		}
	}
	where := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.NewColRef(0, "d", types.Date), expr.NewDateConst(lo)),
		expr.NewCmp(expr.LT, expr.NewColRef(0, "d", types.Date), expr.NewDateConst(hi)))

	rows, routine := runScanPlan(t, Query{Table: tab, Where: where, Aggs: []AggItem{{Func: exec.Sum, Col: "v"}}})
	if routine != "dict-filter" {
		t.Errorf("select routine %q, want dict-filter", routine)
	}
	if len(rows) != 1 || rows[0][0] != fmt.Sprint(want) {
		t.Fatalf("sum %v, want %d", rows, want)
	}
	// The bare plan keeps exactly the rows in the range.
	rows, routine = runScanPlan(t, Query{Table: tab, Where: where, Select: []string{"v"}})
	if routine != "dict-filter" || int64(len(rows)) != cnt {
		t.Fatalf("bare plan kept %d rows [%s], want %d [dict-filter]", len(rows), routine, cnt)
	}
}

func TestRebindAndColumns(t *testing.T) {
	schema := []exec.ColInfo{
		{Name: "a", Type: types.Integer},
		{Name: "b", Type: types.Real},
	}
	e := expr.NewAnd(
		expr.NewCmp(expr.GT, expr.NewColRef(99, "b", types.Real), expr.NewRealConst(1)),
		expr.NewCmp(expr.LT, expr.NewColRef(42, "a", types.Integer), expr.NewIntConst(5)))
	re, err := Rebind(e, schema)
	if err != nil {
		t.Fatal(err)
	}
	cols := Columns(re)
	if len(cols) != 2 {
		t.Fatalf("Columns = %v", cols)
	}
	if _, err := Rebind(expr.NewColRef(0, "zzz", types.Integer), schema); err == nil {
		t.Fatal("unknown column rebound")
	}
}

func TestBuildPlainSelect(t *testing.T) {
	tab := &storage.Table{Name: "t", Columns: []*storage.Column{
		intColumn("a", types.Integer, []int64{3, 1, 2}),
	}}
	q := Query{Table: tab, Select: []string{"a"}, OrderBy: []OrderItem{{Col: "a"}}}
	op, _, err := Build(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || int64(rows[0][0]) != 1 || int64(rows[2][0]) != 3 {
		t.Fatalf("rows %v", rows)
	}
}

func TestBuildComputedGroupBy(t *testing.T) {
	// GROUP BY MONTH(d): compute then aggregate.
	base := types.DaysFromCivil(2014, 1, 15)
	days := []int64{base, base + 31, base + 31, base + 62}
	tab := &storage.Table{Name: "t", Columns: []*storage.Column{
		intColumn("d", types.Date, days),
	}}
	q := Query{
		Table: tab,
		Compute: []Computed{{Name: "m",
			E: expr.NewDatePart(expr.Month, expr.NewColRef(0, "d", types.Date))}},
		GroupBy: []string{"m"},
		Aggs:    []AggItem{{Func: exec.Count, Col: ""}},
	}
	op, _, err := Build(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d month groups", len(rows))
	}
	counts := map[int64]int64{}
	for _, r := range rows {
		counts[int64(r[0])] = int64(r[1])
	}
	if counts[1] != 1 || counts[2] != 2 || counts[3] != 1 {
		t.Fatalf("month counts %v", counts)
	}
}

func TestConjunctSplittingPushesOnlyDictColumn(t *testing.T) {
	// WHERE word = 'beta' AND v > 500: only the string conjunct goes to
	// the heap's token truth table; the numeric one runs as a range kernel.
	n := 20000
	words := []string{"alpha", "beta", "gamma"}
	rng := rand.New(rand.NewSource(31))
	svals := make([]string, n)
	ovals := make([]int64, n)
	for i := range svals {
		svals[i] = words[rng.Intn(len(words))]
		ovals[i] = int64(rng.Intn(1000))
	}
	tab := &storage.Table{Name: "t", Columns: []*storage.Column{
		strColumn("word", svals, true),
		intColumn("v", types.Integer, ovals),
	}}
	where := expr.NewAnd(
		expr.NewCmp(expr.EQ, expr.NewColRef(0, "word", types.String), expr.NewStringConst("beta")),
		expr.NewCmp(expr.GT, expr.NewColRef(0, "v", types.Integer), expr.NewIntConst(500)))
	q := Query{Table: tab, Where: where, Aggs: []AggItem{{Func: exec.Count, Col: ""}}}
	rows, routine := runScanPlan(t, q)
	if routine != "dict-filter+kernel" {
		t.Fatalf("select routine %q, want dict-filter+kernel", routine)
	}
	want := 0
	for i := range svals {
		if svals[i] == "beta" && ovals[i] > 500 {
			want++
		}
	}
	if rows[0][0] != fmt.Sprint(want) {
		t.Fatalf("count %s, want %d", rows[0][0], want)
	}
}

// TestDictFilterKeepsNullTrueConjuncts: the truth table holds an entry
// for the NULL token, so a conjunct true where the column is NULL keeps
// the NULL rows, and one NULL falsifies drops them.
func TestDictFilterKeepsNullTrueConjuncts(t *testing.T) {
	vals := []string{"alpha", nullWord, "beta", "alpha", nullWord, "gamma", "beta"}
	var svals []string
	for i := 0; i < 3000; i++ {
		svals = append(svals, vals[i%len(vals)])
	}
	tab := &storage.Table{Name: "t", Columns: []*storage.Column{strColumn("word", svals, true)}}
	word := expr.NewColRef(0, "word", types.String)
	beta := expr.NewCmp(expr.EQ, word, expr.NewStringConst("beta"))
	for _, c := range []struct {
		where expr.Expr
		keep  func(s string) bool
	}{
		{expr.NewIsNull(word, false), func(s string) bool { return s == nullWord }},
		{expr.NewNot(expr.NewIsNull(word, true)), func(s string) bool { return s == nullWord }},
		{expr.NewOr(expr.NewIsNull(word, false), beta), func(s string) bool { return s == nullWord || s == "beta" }},
		{expr.NewIsNull(word, true), func(s string) bool { return s != nullWord }},
		{expr.NewAnd(expr.NewIsNull(word, false), beta), func(string) bool { return false }},
	} {
		want := 0
		for _, s := range svals {
			if c.keep(s) {
				want++
			}
		}
		rows, routine := runScanPlan(t, Query{Table: tab, Where: c.where, Aggs: []AggItem{{Func: exec.Count}}})
		if routine != "dict-filter" {
			t.Errorf("WHERE %s: select routine %q, want dict-filter", c.where, routine)
		}
		if rows[0][0] != fmt.Sprint(want) {
			t.Errorf("WHERE %s: count %s, want %d", c.where, rows[0][0], want)
		}
	}
}

func TestConjunctSplittingIndexPlan(t *testing.T) {
	tab := buildRLTable(t, 80000)
	where := expr.NewAnd(
		expr.NewCmp(expr.GT, expr.NewColRef(0, "primary", types.Integer), expr.NewIntConst(80)),
		expr.NewCmp(expr.LT, expr.NewColRef(0, "other", types.Integer), expr.NewIntConst(500000)))
	q := Query{Table: tab, Where: where,
		GroupBy: []string{"primary"},
		Aggs:    []AggItem{{Func: exec.Count, Col: ""}}}
	op, ex, err := Build(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.String(), "IndexTable") || !strings.Contains(ex.String(), "ResidualFilter") {
		t.Fatalf("plan: %s", ex)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Reference.
	pc, oc := tab.Column("primary"), tab.Column("other")
	want := map[int64]int64{}
	for i := 0; i < tab.Rows(); i++ {
		p, o := int64(pc.Value(i)), int64(oc.Value(i))
		if p > 80 && o < 500000 {
			want[p]++
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("%d groups, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if want[int64(r[0])] != int64(r[1]) {
			t.Fatalf("group %d: %d want %d", int64(r[0]), int64(r[1]), want[int64(r[0])])
		}
	}
}

// TestIndexPlanOverOverlay: over a dirty view the index rewrite that
// TestConjunctSplittingIndexPlan takes still applies. Its ranges drop a
// deleted row, an inserted row that qualifies follows them, and the whole
// WHERE stays above the scan, so an inserted row that fails the pushed
// conjunct is filtered out.
func TestIndexPlanOverOverlay(t *testing.T) {
	tab := buildRLTable(t, 80000)
	pc, oc := tab.Column("primary"), tab.Column("other")
	qualifies := func(i int) bool { return int64(pc.Value(i)) > 80 && int64(oc.Value(i)) < 500000 }
	gone := tab.Rows() - 1 // the last row the WHERE keeps
	for !qualifies(gone) {
		gone--
	}
	store := delta.NewStore([]*storage.Table{tab})
	row := func(p, o int64) []delta.Value {
		return []delta.Value{delta.Scalar(uint64(p)), delta.Scalar(7), delta.Scalar(uint64(o))}
	}
	if _, err := store.Apply([]delta.Op{
		{Table: "rl", Kind: delta.OpDelete, RowID: uint64(gone)},
		{Table: "rl", Kind: delta.OpInsert, Row: row(90, 1)},
		{Table: "rl", Kind: delta.OpInsert, Row: row(3, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	view, err := store.ViewWith(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	where := expr.NewAnd(
		expr.NewCmp(expr.GT, expr.NewColRef(0, "primary", types.Integer), expr.NewIntConst(80)),
		expr.NewCmp(expr.LT, expr.NewColRef(0, "other", types.Integer), expr.NewIntConst(500000)))
	q := Query{Table: tab, Delta: view, Where: where,
		GroupBy: []string{"primary"},
		Aggs:    []AggItem{{Func: exec.Count, Col: ""}}}
	for _, workers := range []int{-1, 4} {
		op, ex, err := Build(q, Options{ParallelWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if p := ex.String(); !strings.Contains(p, "IndexTable") || !strings.Contains(p, "DeltaScan(rl +2 -1 ranges)") ||
			!strings.Contains(p, "ResidualFilter[((primary > 80) AND (other < 500000))]") {
			t.Fatalf("plan: %s", p)
		}
		rows, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64]int64{90: 1}
		for i := 0; i < tab.Rows(); i++ {
			if i != gone && qualifies(i) {
				want[int64(pc.Value(i))]++
			}
		}
		if len(rows) != len(want) {
			t.Fatalf("workers=%d: %d groups, want %d", workers, len(rows), len(want))
		}
		for _, r := range rows {
			if want[int64(r[0])] != int64(r[1]) {
				t.Fatalf("workers=%d: group %d: %d want %d", workers, int64(r[0]), int64(r[1]), want[int64(r[0])])
			}
		}
	}
}

// TestCountStarOverSingleRunLengthColumn plans SELECT COUNT(*) over a table
// whose only column is a scalar run-length column: the query names no
// column, so the scan selects all of them — that one — and emits runs.
func TestCountStarOverSingleRunLengthColumn(t *testing.T) {
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(i / 1000)
	}
	col := intColumn("a", types.Integer, vals)
	if col.Data.Kind() != enc.RunLength {
		t.Fatalf("column encoded as %v, want run-length", col.Data.Kind())
	}
	tab := &storage.Table{Name: "m", Columns: []*storage.Column{col}}
	q := Query{Table: tab, Aggs: []AggItem{{Func: exec.Count, Col: ""}}}
	for _, opt := range []Options{{ParallelWorkers: 1}, {ParallelWorkers: 1, NoEncodedExec: true}} {
		op, ex, err := Build(q, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if got, want := strings.Contains(ex.String(), "EncodedScan[a runs]"), !opt.NoEncodedExec; got != want {
			t.Errorf("%+v: plan %q, EncodedScan step present = %v, want %v", opt, ex, got, want)
		}
		rows, err := exec.Collect(op)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if len(rows) != 1 || int64(rows[0][0]) != int64(len(vals)) {
			t.Errorf("%+v: rows %v, want one row of %d", opt, rows, len(vals))
		}
	}
}
