package plan

import (
	"reflect"
	"strings"
	"testing"

	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/types"
)

func TestParallelScanPlanMatchesSerial(t *testing.T) {
	tab := buildRLTable(t, 80000)
	q := Query{
		Table:  tab,
		Where:  expr.NewCmp(expr.GT, expr.NewColRef(0, "primary", types.Integer), expr.NewIntConst(60)),
		Select: []string{"primary", "other"},
	}
	op, ex, err := Build(q, Options{NoIndexPlan: true, ParallelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.String(), "Exchange") {
		t.Fatalf("plan did not inject an exchange: %s", ex)
	}
	// Every scanned column of this table is sorted-marked (primary), so
	// order-preserving routing must be forced: the rows come out in table
	// order, exactly as the serial plan emits them.
	if !strings.Contains(ex.String(), "order-preserving") {
		t.Errorf("expected order-preserving routing: %s", ex)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	pc, oc := tab.Column("primary"), tab.Column("other")
	var want [][2]uint64
	for i := 0; i < tab.Rows(); i++ {
		if int64(pc.Value(i)) > 60 {
			want = append(want, [2]uint64{pc.Value(i), oc.Value(i)})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r[0] != want[i][0] || r[1] != want[i][1] {
			t.Fatalf("row %d: got (%d, %d), want (%d, %d)", i, int64(r[0]), int64(r[1]), int64(want[i][0]), int64(want[i][1]))
		}
	}
}

// TestIndexPlanClaimsRanges: with workers, a filtered index plan hands
// its range scan's morsels to an Exchange's workers, which run the
// residual filter on the ranges they claim (order-preserving, since the
// index column comes out sorted in plan 2 and plan 3 alike), or to a
// parallel aggregate's. Either way the answers are the serial plan's,
// in the same order. An index plan with no filter left above its scan
// gets no Exchange: its workers would only copy blocks.
func TestIndexPlanClaimsRanges(t *testing.T) {
	tab := buildRLTable(t, 80000)
	above60 := expr.NewCmp(expr.GT, expr.NewColRef(0, "primary", types.Integer), expr.NewIntConst(60))
	filtered := Query{Table: tab, Select: []string{"primary", "other"}, Where: expr.NewAnd(above60,
		expr.NewCmp(expr.GT, expr.NewColRef(1, "other", types.Integer), expr.NewIntConst(3)))}
	for _, ordered := range []int{0, 1} {
		serial, sx, err := Build(filtered, Options{OrderedIndex: ordered, ParallelWorkers: -1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Collect(serial)
		if err != nil {
			t.Fatal(err)
		}
		op, ex, err := Build(filtered, Options{OrderedIndex: ordered, ParallelWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if p := ex.String(); !strings.Contains(p, "Scan(rl ranges)") || !strings.Contains(p, "Exchange[4 workers, order-preserving]") {
			t.Fatalf("plan %d: want an order-preserving Exchange over the range scan: %s", 2+ordered, p)
		}
		if strings.Contains(sx.String(), "Sort[primary]") != (ordered == 1) {
			t.Fatalf("plan %d: %s", 2+ordered, sx)
		}
		got, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("plan %d: %d rows with 4 workers differ from the %d serial ones", 2+ordered, len(got), len(want))
		}

		op, ex, err = Build(fig10Query(tab, "primary", 60), Options{OrderedIndex: ordered, ParallelWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if p := ex.String(); !strings.Contains(p, "Scan(rl ranges)") || !strings.Contains(p, "ParallelAggregate[4 workers") {
			t.Fatalf("plan %d: want a parallel aggregate over the range scan: %s", 2+ordered, p)
		}
		checkFig10(t, op, referenceFig10(tab, "primary", 60))
	}
	q := Query{Table: tab, Where: above60, Select: []string{"primary", "other"}}
	_, ex, err := Build(q, Options{ParallelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p := ex.String(); !strings.Contains(p, "Scan(rl ranges)") || strings.Contains(p, "Exchange") {
		t.Fatalf("want a bare range scan: %s", p)
	}
}

// TestParallelAggregatePlanHasNoExchange is the aggregate twin of the
// routing tests: the aggregate's workers run the filter on the blocks
// they claim, so no Exchange sits under the aggregate, and the answers
// match the serial reference.
func TestParallelAggregatePlanHasNoExchange(t *testing.T) {
	tab := buildRLTable(t, 80000)
	op, ex, err := Build(fig10Query(tab, "primary", 60), Options{NoIndexPlan: true, ParallelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ex.String(), "Exchange") || !strings.Contains(ex.String(), "ParallelAggregate") {
		t.Fatalf("want a parallel aggregate with no exchange: %s", ex)
	}
	checkFig10(t, op, referenceFig10(tab, "primary", 60))

	u := unsortedTable()
	q := Query{
		Table: u,
		Where: expr.NewCmp(expr.GT, expr.NewColRef(0, "a", types.Integer), expr.NewIntConst(50)),
		Aggs:  []AggItem{{Func: exec.Count, Col: ""}},
	}
	op, ex, err = Build(q, Options{NoIndexPlan: true, ParallelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ex.String(), "Exchange") {
		t.Fatalf("exchange under an aggregate: %s", ex)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if want := unsortedAbove(u, 50); int64(rows[0][0]) != int64(want) {
		t.Fatalf("parallel count %d, want %d", int64(rows[0][0]), want)
	}
}

// unsortedTable is a one-column table with no sorted metadata.
func unsortedTable() *storage.Table {
	vals := make([]int64, 50000)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % 97)
	}
	tab := &storage.Table{Name: "u", Columns: []*storage.Column{
		intColumn("a", types.Integer, vals),
	}}
	// Random data can still be marked sorted=false; ensure the metadata
	// does not accidentally claim order.
	tab.Columns[0].Meta.SortedKnown = false
	return tab
}

// unsortedAbove counts the rows of unsortedTable's column above v.
func unsortedAbove(tab *storage.Table, v int64) int {
	c, n := tab.Column("a"), 0
	for i := 0; i < tab.Rows(); i++ {
		if int64(c.Value(i)) > v {
			n++
		}
	}
	return n
}

func TestParallelFreeRoutingForUnsortedScan(t *testing.T) {
	// A table with no sorted metadata gets free routing.
	tab := unsortedTable()
	q := Query{
		Table:  tab,
		Where:  expr.NewCmp(expr.GT, expr.NewColRef(0, "a", types.Integer), expr.NewIntConst(50)),
		Select: []string{"a"},
	}
	op, ex, err := Build(q, Options{NoIndexPlan: true, ParallelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.String(), "Exchange") || !strings.Contains(ex.String(), "free") {
		t.Errorf("expected an exchange with free routing: %s", ex)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if int64(r[0]) <= 50 {
			t.Fatalf("row %d passed the filter a > 50", int64(r[0]))
		}
	}
	if want := unsortedAbove(tab, 50); len(rows) != want {
		t.Fatalf("parallel filter kept %d rows, want %d", len(rows), want)
	}
}
