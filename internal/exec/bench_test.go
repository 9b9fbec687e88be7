package exec

import (
	"math/rand"
	"strconv"
	"testing"

	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/types"
)

func benchTable(b *testing.B, n int) *storage.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	small := make([]int64, n)
	wide := make([]int64, n)
	seq := make([]int64, n)
	for i := 0; i < n; i++ {
		small[i] = int64(rng.Intn(100))
		wide[i] = int64(rng.Uint64() >> 1)
		seq[i] = int64(i)
	}
	return makeTable("bench",
		makeIntColumn("small", types.Integer, small),
		makeIntColumn("wide", types.Integer, wide),
		makeIntColumn("seq", types.Integer, seq))
}

func BenchmarkScanThroughput(b *testing.B) {
	tab := benchTable(b, 1<<18)
	b.SetBytes(int64(tab.Rows() * 3 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, err := NewScan(tab)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(scan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterThroughput(b *testing.B) {
	tab := benchTable(b, 1<<18)
	pred := expr.NewCmp(expr.LT, expr.NewColRef(0, "small", types.Integer), expr.NewIntConst(50))
	b.SetBytes(int64(tab.Rows() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, _ := NewScan(tab)
		if _, err := Run(NewSelect(scan, pred)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProjectArithmetic(b *testing.B) {
	tab := benchTable(b, 1<<18)
	e := expr.NewArith(expr.Add,
		expr.NewArith(expr.Mul, expr.NewColRef(0, "small", types.Integer), expr.NewIntConst(3)),
		expr.NewColRef(2, "seq", types.Integer))
	b.SetBytes(int64(tab.Rows() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, _ := NewScan(tab)
		if _, err := Run(NewProject(scan, []expr.Expr{e}, []string{"x"})); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowTableEncodeOn(b *testing.B) {
	benchFlowTable(b, true)
}

func BenchmarkFlowTableEncodeOff(b *testing.B) {
	benchFlowTable(b, false)
}

func benchFlowTable(b *testing.B, encode bool) {
	tab := benchTable(b, 1<<17)
	b.SetBytes(int64(tab.Rows() * 3 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, _ := NewScan(tab)
		cfg := DefaultFlowTableConfig()
		cfg.Encode = encode
		if _, err := NewFlowTable(scan, cfg).BuildTable(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortLimit: ORDER BY … LIMIT 10 over 2^17 rows, as a bounded
// Sort and as a full Sort under a Limit.
func BenchmarkSortLimit(b *testing.B) {
	tab := benchTable(b, 1<<17)
	b.Run("full-sort-limit-10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan, _ := NewScan(tab, "wide")
			if _, err := Run(NewLimit(NewSort(scan, SortKey{Col: 0}), 10)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bounded-sort-10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan, _ := NewScan(tab, "wide")
			if _, err := Run(NewBoundedSort(scan, 10, SortKey{Col: 0})); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchStringTable has two string columns of n rows: "low" cycles through
// a few hundred values (an airport, a carrier), "high" is unique per row
// (a comment).
func benchStringTable(n int) *storage.Table {
	rng := rand.New(rand.NewSource(11))
	low := make([]string, n)
	high := make([]string, n)
	val := make([]int64, n)
	for i := range low {
		low[i] = "key-" + strconv.Itoa(rng.Intn(400))
		high[i] = "comment " + strconv.Itoa(i*7919%n) + " about nothing in particular"
		val[i] = int64(rng.Intn(1000))
	}
	return makeTable("bench", makeStringColumn("low", low), makeStringColumn("high", high),
		makeIntColumn("val", types.Integer, val))
}

// BenchmarkAggStringKeys groups by a string key through the serial hash
// core. Low cardinality is where a token translated once per distinct
// value pays (allocs/op must not scale with the rows); high cardinality is
// where the memo must get out of the way.
func BenchmarkAggStringKeys(b *testing.B) {
	tab := benchStringTable(1 << 17)
	specs := []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 1}}
	for _, bc := range []struct{ name, col string }{{"lowCardinality", "low"}, {"highCardinality", "high"}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scan, _ := NewScan(tab, bc.col, "val")
				if _, err := Run(NewAggregate(scan, []int{0}, specs, AggHash)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tab.Rows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkFlowTableStringColumn materializes both string columns, as the
// inner side of a join does.
func BenchmarkFlowTableStringColumn(b *testing.B) {
	tab := benchStringTable(1 << 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scan, _ := NewScan(tab, "low", "high")
		if _, err := NewFlowTable(scan, DefaultFlowTableConfig()).BuildTable(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tab.Rows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
