package tde

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tde/internal/plan"
)

// encodedTestDB builds a table shaped for compressed execution: r is a
// sorted small-domain column (run-length encoded at import), g is a
// small-domain random column dictionary-compressed explicitly, v is a
// plain real payload.
func encodedTestDB(t testing.TB) *Database {
	t.Helper()
	return encodedDB(t, 0, 1)
}

// encodedDB is encodedTestDB with g's values base + step×(0..19), so
// that with base or step moved its dictionary tokens differ from its
// values.
func encodedDB(t testing.TB, base, step int) *Database {
	t.Helper()
	db := New()
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d.%02d\n", i/64, base+step*((i*7)%20), i%97, i%100)
	}
	opt := DefaultImportOptions()
	opt.Schema = []string{"r:int", "g:int", "v:real"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("m", []byte(sb.String()), opt); err != nil {
		t.Fatal(err)
	}
	if err := db.CompressColumn("m", "g"); err != nil {
		t.Fatalf("dictionary-compressing g: %v", err)
	}
	return db
}

// scanPlanSerial disables the index rewrite so the scan-path encoded
// routines (rle-*, dict-filter) are what executes.
func scanPlanSerial(noEncoded bool) plan.Options {
	return plan.Options{ParallelWorkers: -1, NoIndexPlan: true, NoEncodedExec: noEncoded}
}

func routineOf(t *testing.T, res *Result, kind string) string {
	t.Helper()
	for _, op := range res.Stats().Operators {
		if op.Kind == kind {
			return op.Routine
		}
	}
	t.Fatalf("no %s operator in stats", kind)
	return ""
}

// TestEncodedRoutinesChosen pins the routine selection itself: the
// encoded routines engage on dict/RLE columns and fall back when
// encoded execution is off or the column is plain.
func TestEncodedRoutinesChosen(t *testing.T) {
	db := encodedTestDB(t)
	ctx := context.Background()

	// RLE aggregate: single-column scan of an RLE column emits runs and
	// the aggregate folds them run-at-a-time.
	res, err := db.QueryContext(ctx, "SELECT SUM(r) FROM m", QueryOptions{Plan: scanPlanSerial(false)})
	if err != nil {
		t.Fatal(err)
	}
	if r := routineOf(t, res, "Scan"); !strings.Contains(r, "(runs)") {
		t.Fatalf("scan routine %q does not emit runs", r)
	}
	if r := routineOf(t, res, "Aggregate"); r != "rle-sum" {
		t.Fatalf("aggregate routine %q, want rle-sum", r)
	}

	// Dictionary filter plus token-direct grouping.
	res, err = db.QueryContext(ctx, "SELECT g, SUM(v) FROM m WHERE g = 3 GROUP BY g",
		QueryOptions{Plan: scanPlanSerial(false)})
	if err != nil {
		t.Fatal(err)
	}
	if r := routineOf(t, res, "Select"); r != "dict-filter" {
		t.Fatalf("select routine %q, want dict-filter", r)
	}
	if r := routineOf(t, res, "Aggregate"); r != "token-direct" {
		t.Fatalf("aggregate routine %q, want token-direct", r)
	}

	// Escape hatch: NoEncodedExec keeps everything on the decoded path.
	res, err = db.QueryContext(ctx, "SELECT SUM(r) FROM m", QueryOptions{Plan: scanPlanSerial(true)})
	if err != nil {
		t.Fatal(err)
	}
	if r := routineOf(t, res, "Scan"); strings.Contains(r, "(runs)") {
		t.Fatalf("scan routine %q emits runs with encoded execution off", r)
	}
	if r := routineOf(t, res, "Aggregate"); strings.Contains(r, "rle") {
		t.Fatalf("aggregate routine %q uses an encoded routine with encoded execution off", r)
	}

	// The same choice is made inside parallel workers, and the escape
	// hatch reaches them: the dictionary survives the morsel split.
	for _, off := range []bool{false, true} {
		opt := scanPlanSerial(off)
		opt.ParallelWorkers = 2
		res, err = db.QueryContext(ctx, "SELECT g, SUM(v) FROM m GROUP BY g", QueryOptions{Plan: opt})
		if err != nil {
			t.Fatal(err)
		}
		r := routineOf(t, res, "ParallelAggregate")
		if !strings.HasSuffix(r, "(workers=2)") || strings.Contains(r, "token-direct") == off {
			t.Fatalf("parallel aggregate routine %q with NoEncodedExec=%v", r, off)
		}
	}

	// A join's WHERE runs above the last join through the same filter
	// builder, so the escape hatch reaches it too.
	opt := DefaultImportOptions()
	opt.Schema = []string{"dk:int", "label:str"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("d", []byte("0,zero\n1,one\n2,two\n3,three\n"), opt); err != nil {
		t.Fatal(err)
	}
	for _, off := range []bool{false, true} {
		res, err = db.QueryContext(ctx, "SELECT COUNT(*) FROM m JOIN d ON r = dk WHERE g = 3",
			QueryOptions{Plan: scanPlanSerial(off)})
		if err != nil {
			t.Fatal(err)
		}
		if r := routineOf(t, res, "Select"); (r == "dict-filter") == off {
			t.Fatalf("join filter routine %q with NoEncodedExec=%v", r, off)
		}
	}

	// Plain column: the typed comparison kernel applies, and the escape
	// hatch keeps the row path.
	for _, off := range []bool{false, true} {
		res, err = db.QueryContext(ctx, "SELECT SUM(v) FROM m WHERE v > 50",
			QueryOptions{Plan: scanPlanSerial(off)})
		if err != nil {
			t.Fatal(err)
		}
		want := "kernel"
		if off {
			want = ""
		}
		if r := routineOf(t, res, "Select"); r != want {
			t.Fatalf("select routine %q on a plain real column with NoEncodedExec=%v, want %q", r, off, want)
		}
	}
}

// TestOrderByDictionaryColumn: a dictionary-compressed column comes out
// of ORDER BY — a bounded Sort or not, from a scan or the index
// rewrite — as values, not tokens.
func TestOrderByDictionaryColumn(t *testing.T) {
	db := encodedDB(t, 100, 3)
	for _, sql := range []string{
		"SELECT g, v FROM m ORDER BY g, v LIMIT 2",
		"SELECT g FROM m WHERE r < 2 ORDER BY g",
		"SELECT g, v FROM m WHERE r = 5 ORDER BY g, v LIMIT 2",
	} {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0]; got != "100" {
			t.Errorf("%s: first g = %s, want 100\n  plan: %s", sql, got, res.Plan)
		}
	}
}

// TestExplainAnalyzeEncodedGolden pins the EXPLAIN ANALYZE rendering of
// the encoded routines (routine=rle-sum, routine=dict-filter,
// token-direct) and of the decoded fallback. Regenerate with
// `go test -run EncodedGolden -update-golden .`.
func TestExplainAnalyzeEncodedGolden(t *testing.T) {
	db := encodedTestDB(t)
	cases := []struct {
		name string
		sql  string
		off  bool
	}{
		{name: "encoded-rle-sum", sql: "SELECT SUM(r) FROM m"},
		{name: "encoded-dict-filter", sql: "SELECT g, SUM(v) FROM m WHERE g = 3 GROUP BY g"},
		{name: "encoded-off", sql: "SELECT SUM(r) FROM m", off: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := db.QueryContext(context.Background(), tc.sql,
				QueryOptions{Plan: scanPlanSerial(tc.off)})
			if err != nil {
				t.Fatal(err)
			}
			got := redactCounters(res.ExplainAnalyze())
			path := filepath.Join("testdata", "analyze", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN ANALYZE shape changed.\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}

// TestEncodedMatchesDecoded is a direct differential check on the
// fixture: encoded and decoded execution agree on filters, aggregates
// and grouping over the dict/RLE columns, serial and parallel.
func TestEncodedMatchesDecoded(t *testing.T) {
	db := encodedTestDB(t)
	queries := []string{
		"SELECT SUM(r) FROM m",
		"SELECT COUNT(r), MIN(r), MAX(r), AVG(r) FROM m",
		"SELECT g, COUNT(*) FROM m GROUP BY g",
		"SELECT g, SUM(v), MEDIAN(v) FROM m WHERE g >= 7 GROUP BY g",
		"SELECT r, COUNT(*) FROM m WHERE r < 100 GROUP BY r",
		"SELECT SUM(v) FROM m WHERE g = 3 AND v > 10",
	}
	for _, sql := range queries {
		want, err := db.QueryWithOptions(sql, scanPlanSerial(true))
		if err != nil {
			t.Fatalf("%s (decoded): %v", sql, err)
		}
		for _, workers := range []int{-1, 4} {
			opt := scanPlanSerial(false)
			opt.ParallelWorkers = workers
			got, err := db.QueryWithOptions(sql, opt)
			if err != nil {
				t.Fatalf("%s (encoded, workers=%d): %v", sql, workers, err)
			}
			if !rowsMatch(sortedRows(want.Rows), sortedRows(got.Rows)) {
				t.Fatalf("%s: encoded (workers=%d) diverges from decoded:\n%v\n%v",
					sql, workers, want.Rows, got.Rows)
			}
		}
	}
}

// TestDeltaScanKeepsEncodings is the regression test for the write-path
// interaction: a dirty table (live delta) keeps the encoded path — its
// DeltaScan emits the base blocks' runs and the aggregate folds them —
// and answers as the decoded plan does, and as the encoded plan does
// after Compact.
func TestDeltaScanKeepsEncodings(t *testing.T) {
	db := encodedTestDB(t)
	ctx := context.Background()
	const sql = "SELECT SUM(r) FROM m"

	if _, err := db.Exec("INSERT INTO m (r, g, v) VALUES (1000, 3, 1.5)"); err != nil {
		t.Fatal(err)
	}
	dirty, err := db.QueryContext(ctx, sql, QueryOptions{Plan: scanPlanSerial(false)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dirty.Plan, "DeltaScan") {
		t.Fatalf("dirty table did not plan a DeltaScan: %s", dirty.Plan)
	}
	var routines []string
	for _, op := range dirty.Stats().Operators {
		routines = append(routines, op.Kind+"["+op.Routine+"]")
	}
	if r := strings.Join(routines, " "); !strings.Contains(r, "(runs)") || !strings.Contains(r, "rle-") {
		t.Fatalf("dirty table dropped the encoded routines: %s", r)
	}
	decoded, err := db.QueryContext(ctx, sql, QueryOptions{Plan: scanPlanSerial(true)})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsMatch(sortedRows(dirty.Rows), sortedRows(decoded.Rows)) {
		t.Fatalf("dirty encoded-path result %v != decoded %v", dirty.Rows, decoded.Rows)
	}

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	clean, err := db.QueryContext(ctx, sql, QueryOptions{Plan: scanPlanSerial(false)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.Plan, "DeltaScan") {
		t.Fatalf("compacted table still plans a DeltaScan: %s", clean.Plan)
	}
	if !rowsMatch(sortedRows(clean.Rows), sortedRows(dirty.Rows)) {
		t.Fatalf("post-Compact encoded result %v != pre-Compact %v", clean.Rows, dirty.Rows)
	}
}

// TestDirtyScanReadsThroughDecodeCache: a dirty table's base blocks go
// through the governor's decode cache like a clean table's — the second
// run of a query over a live overlay reports warm hits — and the cached
// blocks neither change the answer nor outlive ClearCache in the pool.
func TestDirtyScanReadsThroughDecodeCache(t *testing.T) {
	db := encodedTestDB(t)
	ctx := context.Background()
	const sql = "SELECT g, COUNT(*), SUM(v) FROM m GROUP BY g"
	if _, err := db.Exec("INSERT INTO m (r, g, v) VALUES (1000, 3, 1.5)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM m WHERE r = 2"); err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryContext(ctx, sql, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gov := NewGovernor(GovernorConfig{MemoryBytes: 64 << 20, CacheBytes: 8 << 20})
	for run := 0; run < 2; run++ {
		res, err := db.QueryContext(ctx, sql, QueryOptions{Governor: gov})
		if err != nil {
			t.Fatal(err)
		}
		if !rowsMatch(sortedRows(res.Rows), sortedRows(want.Rows)) {
			t.Fatalf("run %d through the cache: %v, want %v", run, res.Rows, want.Rows)
		}
		var hits, misses int64
		for _, op := range res.Stats().Operators {
			if op.Kind == "DeltaScan" {
				hits, misses = op.CacheHits, op.CacheMisses
			}
		}
		if hits+misses == 0 {
			t.Fatalf("run %d: the dirty scan bypassed the decode cache:\n%s", run, res.ExplainAnalyze())
		}
		if run == 1 && (hits == 0 || !strings.Contains(res.ExplainAnalyze(), "cache=")) {
			t.Fatalf("warm dirty scan reported cache=%d/%d:\n%s", hits, hits+misses, res.ExplainAnalyze())
		}
	}
	if gov.Stats().Cache.Hits == 0 {
		t.Fatalf("governor saw no cache hits: %+v", gov.Stats().Cache)
	}
	gov.ClearCache()
	if used := gov.Stats().MemUsed; used != 0 {
		t.Fatalf("%d pool bytes still charged after the queries finished and the cache was cleared", used)
	}
}
