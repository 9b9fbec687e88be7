package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tde/internal/delta"
	"tde/internal/enc"
	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/types"
)

func starSchema(t testing.TB, n int) (fact, dim *storage.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	fk := make([]int64, n)
	amount := make([]int64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(50))
		amount[i] = int64(rng.Intn(1000))
	}
	fk[7] = types.NullInteger // a NULL foreign key (Tableau join semantics)
	fact = &storage.Table{Name: "sales", Columns: []*storage.Column{
		intColumn("fk", types.Integer, fk),
		intColumn("amount", types.Integer, amount),
	}}
	pk := make([]int64, 51)
	region := make([]int64, 51)
	for i := 0; i < 50; i++ {
		pk[i] = int64(i)
		region[i] = int64(i % 4)
	}
	pk[50] = types.NullInteger // a NULL primary key row
	region[50] = 99
	dim = &storage.Table{Name: "product", Columns: []*storage.Column{
		intColumn("pk", types.Integer, pk),
		intColumn("region", types.Integer, region),
	}}
	return fact, dim
}

func TestBuildJoinAggregates(t *testing.T) {
	fact, dim := starSchema(t, 20000)
	q := Query{
		Table:   fact,
		Joins:   []JoinSpec{{Table: dim, OuterKey: "fk", InnerKey: "pk"}},
		GroupBy: []string{"region"},
		Aggs:    []AggItem{{Func: exec.Sum, Col: "amount"}, {Func: exec.Count, Col: ""}},
		OrderBy: []OrderItem{{Col: "region"}},
	}
	op, ex, err := Build(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.String(), "Join") {
		t.Fatalf("plan: %s", ex)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Reference.
	fkc, ac := fact.Column("fk"), fact.Column("amount")
	pkToRegion := map[int64]int64{}
	for i := 0; i < dim.Rows(); i++ {
		pkToRegion[int64(dim.Columns[0].Value(i))] = int64(dim.Columns[1].Value(i))
	}
	wantSum := map[int64]int64{}
	wantCnt := map[int64]int64{}
	for i := 0; i < fact.Rows(); i++ {
		r, ok := pkToRegion[int64(fkc.Value(i))]
		if !ok {
			continue
		}
		wantSum[r] += int64(ac.Value(i))
		wantCnt[r]++
	}
	if len(rows) != len(wantSum) {
		t.Fatalf("%d regions, want %d", len(rows), len(wantSum))
	}
	for _, r := range rows {
		reg := int64(r[0])
		if int64(r[1]) != wantSum[reg] || int64(r[2]) != wantCnt[reg] {
			t.Fatalf("region %d: %d/%d want %d/%d", reg,
				int64(r[1]), int64(r[2]), wantSum[reg], wantCnt[reg])
		}
	}
}

func TestJoinNullSemantics(t *testing.T) {
	// Tableau NULL join semantics: the NULL fk row matches the NULL pk
	// dimension row (sentinel equality) — one of the business requirements
	// that motivated the TDE (Sect. 2.3).
	fact, dim := starSchema(t, 1000)
	q := Query{
		Table: fact,
		Joins: []JoinSpec{{Table: dim, OuterKey: "fk", InnerKey: "pk"}},
		Where: expr.NewCmp(expr.EQ, expr.NewColRef(0, "region", types.Integer),
			expr.NewIntConst(99)),
		Aggs: []AggItem{{Func: exec.Count, Col: ""}},
	}
	op, _, err := Build(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the one NULL-fk row lands in the region-99 (NULL pk) group.
	if int64(rows[0][0]) != 1 {
		t.Fatalf("NULL join matched %d rows, want 1", int64(rows[0][0]))
	}
}

func TestLeftOuterJoinKeepsUnmatched(t *testing.T) {
	fact, dim := starSchema(t, 500)
	// Shrink the dimension so some fks are unmatched.
	small := &storage.Table{Name: "product", Columns: []*storage.Column{
		intColumn("pk", types.Integer, []int64{0, 1, 2}),
		intColumn("region", types.Integer, []int64{0, 1, 0}),
	}}
	_ = dim
	q := Query{
		Table: fact,
		Joins: []JoinSpec{{Table: small, OuterKey: "fk", InnerKey: "pk", LeftOuter: true}},
		Aggs:  []AggItem{{Func: exec.Count, Col: ""}, {Func: exec.Count, Col: "region"}},
	}
	op, _, err := Build(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	total, matched := int64(rows[0][0]), int64(rows[0][1])
	if total != 500 {
		t.Fatalf("left outer lost rows: %d", total)
	}
	if matched >= total || matched == 0 {
		t.Fatalf("matched %d of %d — expected a strict subset", matched, total)
	}
}

func TestJoinWithAliases(t *testing.T) {
	fact, dim := starSchema(t, 2000)
	q := Query{
		Table: fact, Alias: "f",
		Joins:   []JoinSpec{{Table: dim, Alias: "d", OuterKey: "f.fk", InnerKey: "pk"}},
		GroupBy: []string{"d.region"},
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
	if len(rows) != 5 { // regions 0..3 plus the NULL-pk region 99
		t.Fatalf("%d alias-qualified groups", len(rows))
	}
}

// TestBuildJoinReadsOnlyTouchedColumns: every side's scan reads the
// columns the query touches plus the join keys — a chained outer key that
// nothing else reads included.
func TestBuildJoinReadsOnlyTouchedColumns(t *testing.T) {
	const n = 2000
	fact, dim := starSchema(t, n)
	fact.Columns = append(fact.Columns, intColumn("unused", types.Integer, make([]int64, n)))
	next := make([]int64, dim.Rows())
	for i := range next {
		next[i] = int64(i % 7)
	}
	dim.Columns = append(dim.Columns, intColumn("next", types.Integer, next))
	hop := &storage.Table{Name: "hop", Columns: []*storage.Column{
		intColumn("id", types.Integer, []int64{0, 1, 2, 3, 4, 5, 6}),
		intColumn("label", types.Integer, []int64{10, 11, 12, 13, 14, 15, 16}),
		intColumn("junk", types.Integer, make([]int64, 7)),
	}}
	q := Query{
		Table: fact,
		Joins: []JoinSpec{{Table: dim, OuterKey: "fk", InnerKey: "pk"},
			{Table: hop, OuterKey: "next", InnerKey: "id"}},
		Where:   expr.NewCmp(expr.GT, expr.NewColRef(-1, "amount", types.Integer), expr.NewIntConst(500)),
		GroupBy: []string{"label"},
		Aggs:    []AggItem{{Func: exec.Sum, Col: "amount"}},
	}
	op, _, err := Build(q, Options{ParallelWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	widths := map[string]int{}
	var walk func(exec.Operator)
	walk = func(o exec.Operator) {
		if s, ok := o.(*exec.Scan); ok {
			widths[s.OpLabel()] = len(s.Schema())
		}
		if inst, ok := o.(exec.Instrumented); ok {
			for _, c := range inst.OpChildren() {
				walk(c)
			}
		}
	}
	walk(op)
	// sales: fk, amount; product: pk, next; hop: id, label.
	for _, table := range []string{"sales", "product", "hop"} {
		if widths[table] != 2 {
			t.Errorf("the %s scan reads %d columns, want 2 (%v)", table, widths[table], widths)
		}
	}
	if _, err := exec.Collect(op); err != nil {
		t.Fatal(err)
	}
}

func TestJoinErrors(t *testing.T) {
	fact, dim := starSchema(t, 100)
	if _, _, err := Build(Query{Table: fact,
		Joins: []JoinSpec{{Table: dim, OuterKey: "nope", InnerKey: "pk"}}}, Options{}); err == nil {
		t.Error("bad outer key accepted")
	}
	if _, _, err := Build(Query{Table: fact,
		Joins: []JoinSpec{{Table: dim, OuterKey: "fk", InnerKey: "nope"}}}, Options{}); err == nil {
		t.Error("bad inner key accepted")
	}
}

// storedInnerFixture is TestStoredInnerJoin's star: a dimension with one
// join key per lookup regime and one payload per stored encoding, and a
// fact table with a foreign key for each. Its rows are kept as rendered
// cells for the map reference.
type storedInnerFixture struct {
	fact, dim *storage.Table
	factRows  [][]string // id, fa, fd, fh, fc, fs
	dimRows   [][]string // in dim's column order
}

var (
	storedInnerKeys     = []string{"ka", "kd", "kh", "kc", "ks"}
	storedInnerPayloads = []string{"pdelta", "prle", "pfor", "paff", "pdict", "pstr"}
)

func newStoredInnerFixture(t *testing.T) *storedInnerFixture {
	t.Helper()
	const nDim, nFact = 3000, 6000
	rng := rand.New(rand.NewSource(41))
	perm := rng.Perm(nDim)
	ints := make([][]int64, 10) // ka kd kh kc pdelta prle pfor paff pdict
	for c := range ints {
		ints[c] = make([]int64, nDim)
	}
	ks, pstr := make([]string, nDim), make([]string, nDim)
	for i := 0; i < nDim; i++ {
		ints[0][i] = int64(10 + 3*i)              // ka: affine, fetched
		ints[1][i] = int64(100 + perm[i])         // kd: an exact narrow envelope, direct
		ints[2][i] = int64(7 + 50003*perm[i])     // kh: too wide for direct, hashed
		ints[3][i] = int64(i % 700 * 11)          // kc: dictionary tokens, duplicated
		ints[5][i] = int64(i / 500)               // prle
		ints[6][i] = int64(rng.Intn(7))           // pfor
		ints[7][i] = int64(5 + 2*i)               // paff
		ints[8][i] = int64((i * 37) % 101 * 1000) // pdict
		if i > 0 {
			ints[4][i] = ints[4][i-1] + 1 + int64(rng.Intn(2000)) // pdelta
		}
		ks[i], pstr[i] = fmt.Sprintf("key-%d", i%1000), fmt.Sprintf("s-%d", i%50)
		if i%97 == 5 {
			ks[i] = nullWord
		}
		if i%11 == 3 {
			pstr[i] = nullWord
		}
	}
	names := []string{"ka", "kd", "kh", "kc", "pdelta", "prle", "pfor", "paff", "pdict"}
	var cols []*storage.Column
	for c, name := range names {
		cols = append(cols, intColumn(name, types.Integer, ints[c]))
	}
	for _, c := range []int{3, 8} {
		if err := storage.ConvertToDictCompression(cols[c]); err != nil {
			t.Fatal(err)
		}
	}
	cols = append(cols[:4], append([]*storage.Column{strColumn("ks", ks, true)}, cols[4:]...)...)
	cols = append(cols, strColumn("pstr", pstr, false))
	fx := &storedInnerFixture{dim: &storage.Table{Name: "dim", Columns: cols}}
	for _, want := range []struct {
		col  string
		kind enc.Kind
	}{{"ka", enc.Affine}, {"pdelta", enc.Delta}, {"prle", enc.RunLength},
		{"pfor", enc.FrameOfReference}, {"paff", enc.Affine}} {
		if got := fx.dim.Column(want.col).Data.Kind(); got != want.kind {
			t.Fatalf("fixture: %s is %v, want %v", want.col, got, want.kind)
		}
	}
	for _, c := range []string{"kc", "pdict"} {
		if fx.dim.Column(c).Dict == nil {
			t.Fatalf("fixture: %s is not dictionary-compressed", c)
		}
	}
	cell := func(s string) string {
		if s == nullWord {
			return "NULL"
		}
		return s
	}
	for i := 0; i < nDim; i++ {
		row := []string{}
		for _, c := range fx.dim.Columns {
			switch c.Name {
			case "ks":
				row = append(row, cell(ks[i]))
			case "pstr":
				row = append(row, cell(pstr[i]))
			default:
				row = append(row, strconv.FormatInt(ints[slices.Index(names, c.Name)][i], 10))
			}
		}
		fx.dimRows = append(fx.dimRows, row)
	}

	// Every fact key hits about three times in four; fs is NULL now and
	// then, which matches ks's first NULL row.
	fk := make([][]int64, 5)
	for c := range fk {
		fk[c] = make([]int64, nFact)
	}
	fs := make([]string, nFact)
	for r := 0; r < nFact; r++ {
		i, miss := rng.Intn(nDim), rng.Intn(4) == 0
		for c := 0; c < 4; c++ {
			fk[c][r] = ints[c][i]
			if miss {
				fk[c][r]++ // between keys, or onto another one of kd's
				if c == 1 {
					fk[c][r] += nDim // past kd's envelope
				}
			}
		}
		fk[4][r] = int64(r)
		fs[r] = ks[i]
		switch {
		case miss:
			fs[r] = "nokey-" + strconv.Itoa(i)
		case r%53 == 0:
			fs[r] = nullWord
		}
		row := []string{strconv.Itoa(r)}
		for c := 0; c < 4; c++ {
			row = append(row, strconv.FormatInt(fk[c][r], 10))
		}
		fx.factRows = append(fx.factRows, append(row, cell(fs[r])))
	}
	fx.fact = &storage.Table{Name: "fact", Columns: []*storage.Column{
		intColumn("id", types.Integer, fk[4]), intColumn("fa", types.Integer, fk[0]),
		intColumn("fd", types.Integer, fk[1]), intColumn("fh", types.Integer, fk[2]),
		intColumn("fc", types.Integer, fk[3]), strColumn("fs", fs, false),
	}}
	return fx
}

// reference joins fact column outer to dim column inner through a map
// from key cell to the first visible dimension row (NULL matches NULL)
// and projects id and the payloads.
func (fx *storedInnerFixture) reference(dimRows [][]string, outer, inner int) []string {
	first := map[string][]string{}
	for _, row := range dimRows {
		if _, ok := first[row[inner]]; !ok {
			first[row[inner]] = row
		}
	}
	var out []string
	for _, f := range fx.factRows {
		d, ok := first[f[outer]]
		if !ok {
			continue
		}
		row := []string{f[0]}
		for _, p := range storedInnerPayloads {
			row = append(row, d[fx.dim.ColumnIndex(p)])
		}
		out = append(out, strings.Join(row, "|"))
	}
	slices.Sort(out)
	return out
}

// dirty gives the dimension a write overlay: it deletes the first row of
// some duplicated dictionary and string keys (so a later duplicate
// becomes the match), and inserts rows that duplicate a base key, bring
// keys and strings the stored domains lack, and carry a NULL string key
// and NULL payloads. It returns the view and its visible rows.
func (fx *storedInnerFixture) dirty(t *testing.T) (*delta.View, [][]string) {
	t.Helper()
	deleted := map[int]bool{0: true, 5: true, 11: true, 702: true}
	ops := []delta.Op{}
	for r := range deleted {
		ops = append(ops, delta.Op{Table: "dim", Kind: delta.OpDelete, RowID: uint64(r)})
	}
	inserted := [][]string{
		// ka kd kh kc ks pdelta prle pfor paff pdict pstr
		{"9010", "3100", "9999", "0", "key-0", "1", "-2", "3", "4", "77", "s-new"},
		{"13", "101", "50010", "7707", "key-new", "5", "6", "7", "8", "9000", "NULL"},
		{"9013", "3101", "10000", "11", "NULL", "-1", "0", "1", "2", "5", "s-1"},
	}
	for _, cells := range inserted {
		var row []delta.Value
		for c, col := range fx.dim.Columns {
			switch v := cells[c]; {
			case v == "NULL":
				row = append(row, delta.NullOf(col.Type))
			case col.Type == types.String:
				row = append(row, delta.String(v))
			default:
				n, _ := strconv.ParseInt(v, 10, 64)
				row = append(row, delta.Scalar(uint64(n)))
			}
		}
		ops = append(ops, delta.Op{Table: "dim", Kind: delta.OpInsert, Row: row})
	}
	store := delta.NewStore([]*storage.Table{fx.dim})
	if _, err := store.Apply(ops); err != nil {
		t.Fatal(err)
	}
	view, err := store.ViewWith(fx.dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for r, row := range fx.dimRows {
		if !deleted[r] {
			rows = append(rows, row)
		}
	}
	return view, append(rows, inserted...)
}

// TestStoredInnerJoin checks a join whose clean dimension is read in
// place — every payload decoded flat from its stored encoding, string
// payloads on their stored heap — against a map reference, under every
// lookup regime, at 1, 2 and 8 workers; then the same with the dimension
// dirty, which a FlowTable materializes. Every charge is returned.
func TestStoredInnerJoin(t *testing.T) {
	fx := newStoredInnerFixture(t)
	view, dirtyRows := fx.dirty(t)
	algos := []exec.JoinAlgo{exec.JoinFetch, exec.JoinDirect, exec.JoinHash, exec.JoinHash, exec.JoinHash}
	for _, dirty := range []bool{false, true} {
		for k, key := range storedInnerKeys {
			spec := JoinSpec{Table: fx.dim, OuterKey: fx.fact.Columns[k+1].Name, InnerKey: key}
			dimRows := fx.dimRows
			if dirty {
				spec.Delta, dimRows = view, dirtyRows
			}
			want := fx.reference(dimRows, k+1, fx.dim.ColumnIndex(key))
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("key %s dirty=%v workers=%d", key, dirty, workers)
				q := Query{Table: fx.fact, Joins: []JoinSpec{spec},
					Select: append([]string{"id"}, storedInnerPayloads...)}
				op, _, err := Build(q, Options{ParallelWorkers: workers})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				qc := exec.NewQueryCtx(nil, 0)
				rows, err := exec.CollectStringsCtx(qc, op)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var got []string
				for _, r := range rows {
					got = append(got, strings.Join(r, "|"))
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("%s: %d rows, want %d; first difference %s", label, len(got), len(want), firstDiff(got, want))
				}
				if qc.Used() != 0 {
					t.Errorf("%s: %d bytes still charged after Close", label, qc.Used())
				}
				j, flow := joinOf(op)
				if flow != dirty {
					t.Errorf("%s: FlowTable inner = %v", label, flow)
				}
				if !dirty && j.Algo() != algos[k] {
					t.Errorf("%s: ran as %v, want %v", label, j.Algo(), algos[k])
				}
			}
		}
	}
}

// joinOf finds the plan's HashJoin and whether its inner is a FlowTable.
func joinOf(op exec.Operator) (j *exec.HashJoin, flow bool) {
	var walk func(exec.Operator)
	walk = func(o exec.Operator) {
		if hj, ok := o.(*exec.HashJoin); ok {
			j = hj
			_, flow = hj.OpChildren()[1].(*exec.FlowTable)
			return
		}
		if inst, ok := o.(exec.Instrumented); ok {
			for _, c := range inst.OpChildren() {
				walk(c)
			}
		}
	}
	walk(op)
	return j, flow
}

func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("%q, want %q", got[i], want[i])
		}
	}
	return "past the shorter side"
}
