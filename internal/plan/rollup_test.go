package plan

import (
	"math/rand"
	"testing"

	"tde/internal/enc"
	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/types"
)

// buildDateRLTable makes a sorted date column with long runs (an RLE
// dimension) plus a payload column.
func buildDateRLTable(t testing.TB, days, perDay int) *storage.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	base := types.DaysFromCivil(2013, 1, 1)
	n := days * perDay
	dvals := make([]int64, 0, n)
	pvals := make([]int64, 0, n)
	for d := 0; d < days; d++ {
		for k := 0; k < perDay; k++ {
			dvals = append(dvals, base+int64(d))
			pvals = append(pvals, int64(rng.Intn(1000)))
		}
	}
	dcol := intColumn("d", types.Date, dvals)
	if dcol.Data.Kind() != enc.RunLength {
		// Force RLE: the experiment requires it.
		vals := make([]uint64, n)
		for i, v := range dvals {
			vals[i] = uint64(v)
		}
		s, err := enc.BuildRLE(vals, perDay, uint64(base+int64(days)))
		if err != nil {
			t.Fatal(err)
		}
		dcol.Data = s
	}
	return &storage.Table{Name: "t", Columns: []*storage.Column{
		dcol, intColumn("p", types.Integer, pvals),
	}}
}

func TestRollUpIndexToMonths(t *testing.T) {
	tab := buildDateRLTable(t, 365, 40)
	idx, err := IndexTable(tab.Column("d"))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Rows != 365 {
		t.Fatalf("index has %d runs", idx.Rows)
	}
	roll := expr.NewDatePart(expr.TruncMonth,
		expr.NewColRef(0, "d", types.Date))
	monthly, err := RollUpIndex(idx, roll)
	if err != nil {
		t.Fatal(err)
	}
	if monthly.Rows != 12 {
		t.Fatalf("rolled index has %d rows, want 12 months", monthly.Rows)
	}
	// Counts must sum per month and starts must be the month's first row.
	totalRows := 0
	prevEnd := int64(0)
	for r := 0; r < monthly.Rows; r++ {
		count := int64(monthly.Value(1, r))
		start := int64(monthly.Value(2, r))
		if start != prevEnd {
			t.Fatalf("month %d starts at %d, want %d", r, start, prevEnd)
		}
		prevEnd = start + count
		totalRows += int(count)
		y, m, d := types.CivilFromDays(int64(monthly.Value(0, r)))
		if d != 1 || y != 2013 || m != r+1 {
			t.Fatalf("month %d rolled to %04d-%02d-%02d", r, y, m, d)
		}
	}
	if totalRows != tab.Rows() {
		t.Fatalf("rolled counts cover %d rows of %d", totalRows, tab.Rows())
	}
	// The rolled index must itself drive an IndexedScan correctly.
	is, err := exec.NewIndexedScan(monthly, []int{0}, 1, 2, tab, "p")
	if err != nil {
		t.Fatal(err)
	}
	agg := exec.NewAggregate(is, []int{0}, []exec.AggSpec{{Func: exec.Count, Col: -1}}, exec.AggOrdered)
	rows, err := exec.Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("aggregated %d month groups", len(rows))
	}
	if int64(rows[0][1]) != 31*40 {
		t.Fatalf("january count %d", int64(rows[0][1]))
	}
}

func TestRollUpRejectsUnsortedIndex(t *testing.T) {
	tab := buildDateRLTable(t, 30, 10)
	idx, err := IndexTable(tab.Column("d"))
	if err != nil {
		t.Fatal(err)
	}
	idx.Cols[0].Info.Meta.SortedKnown = false
	roll := expr.NewDatePart(expr.TruncMonth, expr.NewColRef(0, "d", types.Date))
	if _, err := RollUpIndex(idx, roll); err == nil {
		t.Fatal("unsorted index accepted")
	}
}

func TestPartitionedOrderedAggregate(t *testing.T) {
	tab := buildRLTable(t, 120000)
	idx, err := IndexTable(tab.Column("primary"))
	if err != nil {
		t.Fatal(err)
	}
	// Reference via the serial plan.
	want := ReferenceMax(tab, "primary", "other")
	for _, workers := range []int{1, 3, 8} {
		got, err := PartitionedOrderedAggregate(idx, tab, "other", exec.Max, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d groups, want %d", workers, len(got), len(want))
		}
		for _, kv := range got {
			if want[kv[0]] != kv[1] {
				t.Fatalf("workers=%d: group %d = %d, want %d", workers, kv[0], kv[1], want[kv[0]])
			}
		}
	}
}

// ReferenceMax computes max(other) per key directly.
func ReferenceMax(tab *storage.Table, keyCol, otherCol string) map[int64]int64 {
	k := tab.Column(keyCol)
	o := tab.Column(otherCol)
	out := map[int64]int64{}
	for i := 0; i < tab.Rows(); i++ {
		key := int64(k.Value(i))
		v := int64(o.Value(i))
		if cur, ok := out[key]; !ok || v > cur {
			out[key] = v
		}
	}
	return out
}

func TestPartitionBoundsCoverAndAlign(t *testing.T) {
	tab := buildDateRLTable(t, 100, 7)
	idx, err := IndexTable(tab.Column("d"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 5, 13, 1000} {
		bounds := partitionBounds(idx, k)
		at := 0
		for _, b := range bounds {
			if b[0] != at {
				t.Fatalf("k=%d: gap at %d", k, at)
			}
			if b[1] <= b[0] {
				t.Fatalf("k=%d: empty partition", k)
			}
			// Boundary must not split a value.
			if b[1] < idx.Rows && idx.Value(0, b[1]) == idx.Value(0, b[1]-1) {
				t.Fatalf("k=%d: boundary splits a value", k)
			}
			at = b[1]
		}
		if at != idx.Rows {
			t.Fatalf("k=%d: bounds cover %d of %d", k, at, idx.Rows)
		}
	}
}
