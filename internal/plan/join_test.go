package plan

import (
	"math/rand"
	"strings"
	"testing"

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
