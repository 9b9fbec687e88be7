package tde

// Benchmarks regenerating the paper's evaluation (one benchmark family
// per table/figure; see DESIGN.md's experiment index). Sizes are scaled
// to finish under `go test -bench=.` on a laptop; cmd/tdebench runs the
// same drivers at larger scales with the paper-shaped renderings.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"tde/internal/enc"
	"tde/internal/exec"
	"tde/internal/harness"
	"tde/internal/plan"
	"tde/internal/rlegen"
	"tde/internal/storage"
	"tde/internal/textscan"
	"tde/internal/tpch"
	"tde/internal/types"
)

var (
	dsOnce sync.Once
	dsVal  *harness.Datasets
	dsErr  error
)

// benchDatasets generates the shared text corpora once.
func benchDatasets(b *testing.B) *harness.Datasets {
	b.Helper()
	dsOnce.Do(func() {
		dsVal, dsErr = harness.GenerateDatasets(0.01, 50000, 42)
	})
	if dsErr != nil {
		b.Fatal(dsErr)
	}
	return dsVal
}

var (
	rlOnce  sync.Once
	rlSmall *storage.Table
	rlLarge *storage.Table
)

func benchRLTables(b *testing.B) (*storage.Table, *storage.Table) {
	b.Helper()
	rlOnce.Do(func() {
		rlSmall = rlegen.Build(200000, 42)
		rlLarge = rlegen.Build(4000000, 43)
	})
	return rlSmall, rlLarge
}

// --- Figure 4: parsing performance ---

func benchImport(b *testing.B, data []byte, cfg harness.ImportConfig) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Import(data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_Bandwidth(b *testing.B) {
	ds := benchDatasets(b)
	b.SetBytes(int64(len(ds.Lineitem)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textscan.SumBytes(ds.Lineitem)
	}
}

func BenchmarkFig4_Tokenize(b *testing.B) {
	ds := benchDatasets(b)
	b.SetBytes(int64(len(ds.Lineitem)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textscan.CountFields(ds.Lineitem, '|')
	}
}

func BenchmarkFig4_Split(b *testing.B) {
	ds := benchDatasets(b)
	b.SetBytes(int64(len(ds.Lineitem)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textscan.SplitColumns(ds.Lineitem, '|', 16)
	}
}

func BenchmarkFig4_ScalarsEncoded(b *testing.B) {
	benchImport(b, benchDatasets(b).Lineitem,
		harness.ImportConfig{Encode: true, ScalarsOnly: true})
}

func BenchmarkFig4_ScalarsUnencoded(b *testing.B) {
	benchImport(b, benchDatasets(b).Lineitem,
		harness.ImportConfig{Encode: false, ScalarsOnly: true})
}

func BenchmarkFig4_AllEncodedAccelerated(b *testing.B) {
	benchImport(b, benchDatasets(b).Lineitem,
		harness.ImportConfig{Encode: true, Accelerate: true})
}

func BenchmarkFig4_AllUnencoded(b *testing.B) {
	benchImport(b, benchDatasets(b).Lineitem,
		harness.ImportConfig{Encode: false, Accelerate: false})
}

func BenchmarkFig4_FlightsAllEncodedAccelerated(b *testing.B) {
	benchImport(b, benchDatasets(b).Flights,
		harness.ImportConfig{Encode: true, Accelerate: true})
}

// --- Figure 5: compression savings (reported as metrics) ---

func BenchmarkFig5_CompressionSavings(b *testing.B) {
	ds := benchDatasets(b)
	b.ResetTimer()
	var rows []harness.Fig5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Fig5(ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Encoded && r.Accelerated {
			prefix := r.Dataset
			b.ReportMetric(float64(r.PhysicalBytes), prefix+"_physical_bytes")
			b.ReportMetric(float64(r.LogicalBytes), prefix+"_logical_bytes")
			b.ReportMetric(float64(r.TextBytes), prefix+"_text_bytes")
		}
	}
}

// --- Figure 6: heap sorting ---

func BenchmarkFig6_HeapSorting(b *testing.B) {
	ds := benchDatasets(b)
	b.ResetTimer()
	var rows []harness.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Fig6(ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Encoded {
			b.ReportMetric(float64(r.SortedHeaps), "sorted_"+groupKey(r.Group))
			b.ReportMetric(float64(r.StringHeaps), "heaps_"+groupKey(r.Group))
		}
	}
}

func groupKey(g string) string {
	if g == "Large Tables" {
		return "large"
	}
	return "sf1"
}

// --- Figure 7: metadata extraction ---

func BenchmarkFig7_MetadataDetected(b *testing.B) {
	ds := benchDatasets(b)
	b.ResetTimer()
	var rows []harness.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Fig7(ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Properties), "props_"+groupKey(r.Group)+"_enc_"+onoff(r.Encoded))
	}
}

func onoff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

// --- Figures 8 and 9: width reduction ---

func BenchmarkFig8And9_WidthReduction(b *testing.B) {
	ds := benchDatasets(b)
	b.ResetTimer()
	var strs, ints harness.WidthHistogram
	for i := 0; i < b.N; i++ {
		var err error
		strs, ints, err = harness.Fig8And9(ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(strs.Total-strs.Counts[8]), "fig8_strings_narrowed")
	b.ReportMetric(float64(strs.Total), "fig8_strings_total")
	b.ReportMetric(float64(ints.Total-ints.Counts[8]), "fig9_ints_narrowed")
	b.ReportMetric(float64(ints.Total), "fig9_ints_total")
}

// --- Figure 10: filter/aggregate plans ---

func benchFig10(b *testing.B, tab *storage.Table, index string, planNo, sel int) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFig10Point(tab, index, planNo, sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_Small_Primary_Plan1(b *testing.B) {
	s, _ := benchRLTables(b)
	benchFig10(b, s, "primary", 1, 50)
}

func BenchmarkFig10_Small_Primary_Plan2(b *testing.B) {
	s, _ := benchRLTables(b)
	benchFig10(b, s, "primary", 2, 50)
}

func BenchmarkFig10_Small_Primary_Plan3(b *testing.B) {
	s, _ := benchRLTables(b)
	benchFig10(b, s, "primary", 3, 50)
}

func BenchmarkFig10_Small_Secondary_Plan1(b *testing.B) {
	s, _ := benchRLTables(b)
	benchFig10(b, s, "secondary", 1, 50)
}

func BenchmarkFig10_Small_Secondary_Plan2(b *testing.B) {
	s, _ := benchRLTables(b)
	benchFig10(b, s, "secondary", 2, 50)
}

func BenchmarkFig10_Small_Secondary_Plan3(b *testing.B) {
	s, _ := benchRLTables(b)
	benchFig10(b, s, "secondary", 3, 50)
}

func BenchmarkFig10_Large_Primary_Plan1(b *testing.B) {
	_, l := benchRLTables(b)
	benchFig10(b, l, "primary", 1, 50)
}

func BenchmarkFig10_Large_Primary_Plan2(b *testing.B) {
	_, l := benchRLTables(b)
	benchFig10(b, l, "primary", 2, 50)
}

func BenchmarkFig10_Large_Primary_Plan3(b *testing.B) {
	_, l := benchRLTables(b)
	benchFig10(b, l, "primary", 3, 50)
}

func BenchmarkFig10_Large_Secondary_Plan1(b *testing.B) {
	_, l := benchRLTables(b)
	benchFig10(b, l, "secondary", 1, 50)
}

func BenchmarkFig10_Large_Secondary_Plan2(b *testing.B) {
	_, l := benchRLTables(b)
	benchFig10(b, l, "secondary", 2, 50)
}

func BenchmarkFig10_Large_Secondary_Plan3(b *testing.B) {
	_, l := benchRLTables(b)
	benchFig10(b, l, "secondary", 3, 50)
}

// --- Sect. 4.3: exchange routing overhead ---

func BenchmarkExchangeOrdering_Preserve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.ExchangeOrdering(500000, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.PreserveOrder {
				b.ReportMetric(float64(r.PhysicalBytes), "ordered_bytes")
			} else {
				b.ReportMetric(float64(r.PhysicalBytes), "free_bytes")
			}
		}
	}
}

// --- Sect. 5.1.2: locale-lock ablation ---

func BenchmarkLocaleLock_BufferParsers(b *testing.B) {
	benchImport(b, benchDatasets(b).Lineitem,
		harness.ImportConfig{Encode: true, Accelerate: true, Parallel: true})
}

func BenchmarkLocaleLock_LockedParsers(b *testing.B) {
	benchImport(b, benchDatasets(b).Lineitem,
		harness.ImportConfig{Encode: true, Accelerate: true, Parallel: true, LocaleLocked: true})
}

// --- Sect. 3.2: dynamic encoding stability ---

func BenchmarkDynamicEncoding(b *testing.B) {
	ds := benchDatasets(b)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		var err error
		_, total, err = harness.DynamicEncoding(ds.Lineitem)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total), "reencodings")
}

// --- Ablations: design choices called out in DESIGN.md ---

// Tactical join algorithm choice (Sect. 2.3.5/4.1.2): fetch vs direct vs
// hash on the same dense inner key.
func benchJoin(b *testing.B, algo exec.JoinAlgo) {
	s, _ := benchRLTables(b)
	// Join the table's own primary values against a dense 0..99 dimension.
	dimW := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true})
	valW := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true})
	for i := 0; i < 100; i++ {
		dimW.AppendOne(uint64(i))
		valW.AppendOne(uint64(i * 3))
	}
	dimStream := dimW.Finish() // Finish flushes; stats are complete after
	valStream := valW.Finish()
	dimMeta := enc.MetadataFromStats(dimW.Stats(), true)
	inner := &exec.Built{Rows: 100, Cols: []exec.BuiltColumn{
		{Info: exec.ColInfo{Name: "pk", Type: types.Integer, Meta: dimMeta}, Data: dimStream},
		{Info: exec.ColInfo{Name: "val", Type: types.Integer}, Data: valStream},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, err := exec.NewScan(s, "primary")
		if err != nil {
			b.Fatal(err)
		}
		j := exec.NewHashJoin(scan, inner, 0, 0, algo)
		if _, err := exec.Run(j); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinAlgo_Fetch(b *testing.B)  { benchJoin(b, exec.JoinFetch) }
func BenchmarkJoinAlgo_Direct(b *testing.B) { benchJoin(b, exec.JoinDirect) }
func BenchmarkJoinAlgo_Hash(b *testing.B)   { benchJoin(b, exec.JoinHash) }

// Aggregation algorithm choice (Sect. 2.3.4): ordered vs direct vs hash
// over the sorted primary column.
func benchAgg(b *testing.B, mode exec.AggMode) {
	s, _ := benchRLTables(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, err := exec.NewScan(s, "primary", "secondary")
		if err != nil {
			b.Fatal(err)
		}
		agg := exec.NewAggregate(scan, []int{0},
			[]exec.AggSpec{{Func: exec.Max, Col: 1}}, mode)
		if _, err := exec.Run(agg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggMode_Ordered(b *testing.B) { benchAgg(b, exec.AggOrdered) }
func BenchmarkAggMode_Direct(b *testing.B)  { benchAgg(b, exec.AggDirect) }
func BenchmarkAggMode_Hash(b *testing.B)    { benchAgg(b, exec.AggHash) }

// --- Sect. 2.3.3: the single-file copy ---
//
// A database must be written as one file; compression "helps reduce the
// total size and, thus, the cost of making this unavoidable copy".

func benchSave(b *testing.B, encode bool) {
	ds := benchDatasets(b)
	bt, err := harness.Import(ds.Lineitem, harness.ImportConfig{Encode: encode, Accelerate: true})
	if err != nil {
		b.Fatal(err)
	}
	tab := bt.ToTable("lineitem")
	var sink countingWriter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.n = 0
		if err := storage.Write(&sink, []*storage.Table{tab}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(sink.n)
	b.ReportMetric(float64(sink.n), "file_bytes")
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func BenchmarkSingleFileCopy_Encoded(b *testing.B)   { benchSave(b, true) }
func BenchmarkSingleFileCopy_Unencoded(b *testing.B) { benchSave(b, false) }

// --- Morsel parallelism: partial aggregation, partitioned join, import ---
//
// Parallel-vs-serial pairs over an SF 0.1 TPC-H extract; on multi-core
// hosts the 4-worker variants should beat serial. The regression verdict
// is the repository benchmark's (`make bench-compare BASE=<ref>`).

var (
	pbOnce sync.Once
	pbDB   *Database
	pbErr  error
)

// parallelBenchDB imports SF 0.1 lineitem + orders once.
func parallelBenchDB(b *testing.B) *Database {
	b.Helper()
	pbOnce.Do(func() {
		g := tpch.New(0.1, 42)
		db := New()
		var li bytes.Buffer
		if pbErr = g.WriteLineitem(&li); pbErr != nil {
			return
		}
		kinds := []string{"int", "int", "int", "int", "int", "real", "real", "real",
			"str", "str", "date", "date", "date", "str", "str", "str"}
		schema := make([]string, len(tpch.LineitemSchema))
		for i, n := range tpch.LineitemSchema {
			schema[i] = n + ":" + kinds[i]
		}
		opt := DefaultImportOptions()
		opt.Schema = schema
		opt.HeaderSet, opt.HasHeader = true, false
		if pbErr = db.ImportCSV("lineitem", li.Bytes(), opt); pbErr != nil {
			return
		}
		var ord bytes.Buffer
		if pbErr = g.WriteOrders(&ord); pbErr != nil {
			return
		}
		opt = DefaultImportOptions()
		opt.Schema = []string{"o_orderkey:int", "o_custkey:int", "o_orderstatus:str",
			"o_totalprice:real", "o_orderdate:date", "o_orderpriority:str",
			"o_clerk:str", "o_shippriority:int", "o_comment:str"}
		opt.HeaderSet, opt.HasHeader = true, false
		if pbErr = db.ImportCSV("orders", ord.Bytes(), opt); pbErr != nil {
			return
		}
		pbDB = db
	})
	if pbErr != nil {
		b.Fatal(pbErr)
	}
	return pbDB
}

func benchParallelQuery(b *testing.B, sql string, workers int) {
	db := parallelBenchDB(b)
	opt := plan.Options{ParallelWorkers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryWithOptions(sql, opt); err != nil {
			b.Fatal(err)
		}
	}
}

const parallelAggSQL = `SELECT l_returnflag, l_linestatus, SUM(l_quantity),
	AVG(l_extendedprice), COUNT(*) FROM lineitem
	GROUP BY l_returnflag, l_linestatus`

const parallelJoinSQL = `SELECT o_orderpriority, COUNT(*), SUM(l_quantity)
	FROM lineitem JOIN orders ON l_orderkey = o_orderkey
	GROUP BY o_orderpriority`

func BenchmarkParallelAgg_Serial(b *testing.B)    { benchParallelQuery(b, parallelAggSQL, -1) }
func BenchmarkParallelAgg_4Workers(b *testing.B)  { benchParallelQuery(b, parallelAggSQL, 4) }
func BenchmarkParallelJoin_Serial(b *testing.B)   { benchParallelQuery(b, parallelJoinSQL, -1) }
func BenchmarkParallelJoin_4Workers(b *testing.B) { benchParallelQuery(b, parallelJoinSQL, 4) }

// Spill pair: a high-cardinality aggregation run fully in memory and
// under a budget tight enough to force the partitioned spill-to-disk
// path, quantifying the cost of graceful degradation.
const spillAggSQL = `SELECT l_orderkey, COUNT(*), SUM(l_quantity)
	FROM lineitem GROUP BY l_orderkey`

func benchSpillQuery(b *testing.B, mem int64) {
	db := parallelBenchDB(b)
	opt := QueryOptions{MemoryBudget: mem, SpillBudget: 1 << 30}
	opt.Plan.ParallelWorkers = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryContext(context.Background(), spillAggSQL, opt)
		if err != nil {
			b.Fatal(err)
		}
		if mem > 0 && !res.Stats().Spilled() {
			b.Fatal("budgeted run did not spill; the benchmark is not measuring degradation")
		}
	}
}

func BenchmarkParallelSpillAgg_InMemory(b *testing.B) { benchSpillQuery(b, 0) }
func BenchmarkParallelSpillAgg_Spilling(b *testing.B) { benchSpillQuery(b, 512<<10) }

// Import pair: the block-pipeline parse (Sect. 5.1.2) against the serial
// scan over the shared SF 0.01 corpus.
func BenchmarkParallelImport_Serial(b *testing.B) {
	ds := benchDatasets(b)
	benchImport(b, ds.Lineitem, harness.ImportConfig{Encode: true, Accelerate: true})
}

func BenchmarkParallelImport_Pipeline(b *testing.B) {
	ds := benchDatasets(b)
	benchImport(b, ds.Lineitem, harness.ImportConfig{Encode: true, Accelerate: true, Parallel: true})
}
