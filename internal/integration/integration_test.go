// Package integration runs end-to-end tests across the whole stack:
// generators -> TextScan -> FlowTable -> single-file storage -> SQL ->
// plans -> execution, plus plan-equivalence properties (every strategic
// plan shape must produce identical answers).
package integration

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"tde"
	"tde/internal/exec"
	"tde/internal/flights"
	"tde/internal/harness"
	"tde/internal/plan"
	"tde/internal/rlegen"
	"tde/internal/tpch"
)

// buildTPCHDatabase imports lineitem and orders from generated text.
func buildTPCHDatabase(t testing.TB, sf float64) *tde.Database {
	t.Helper()
	g := tpch.New(sf, 11)
	db := tde.New()
	var li bytes.Buffer
	if err := g.WriteLineitem(&li); err != nil {
		t.Fatal(err)
	}
	opt := tde.DefaultImportOptions()
	opt.Schema = lineitemSchema()
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("lineitem", li.Bytes(), opt); err != nil {
		t.Fatal(err)
	}
	var ord bytes.Buffer
	if err := g.WriteOrders(&ord); err != nil {
		t.Fatal(err)
	}
	if err := db.ImportCSV("orders", ord.Bytes(), tde.DefaultImportOptions()); err != nil {
		t.Fatal(err)
	}
	return db
}

func lineitemSchema() []string {
	types := []string{"int", "int", "int", "int", "int", "real", "real", "real",
		"str", "str", "date", "date", "date", "str", "str", "str"}
	out := make([]string, len(tpch.LineitemSchema))
	for i, n := range tpch.LineitemSchema {
		out[i] = n + ":" + types[i]
	}
	return out
}

func TestTPCHEndToEnd(t *testing.T) {
	db := buildTPCHDatabase(t, 0.005)
	rows := db.Rows("lineitem")
	if rows < 5000 {
		t.Fatalf("only %d lineitem rows", rows)
	}

	// Q1-style: aggregation grouped by the two flag columns.
	res, err := db.Query(`SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), AVG(l_quantity)
	                      FROM lineitem GROUP BY l_returnflag, l_linestatus
	                      ORDER BY l_returnflag, l_linestatus`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 3 flags x 2 statuses
		t.Fatalf("%d flag/status groups", len(res.Rows))
	}
	totalCount := 0
	for _, r := range res.Rows {
		var c int
		fmt.Sscan(r[2], &c)
		totalCount += c
	}
	if totalCount != rows {
		t.Fatalf("group counts sum to %d of %d", totalCount, rows)
	}

	// Q6-style: date-range and quantity filter with a revenue aggregate.
	res, err = db.Query(`SELECT COUNT(*), SUM(l_extendedprice * l_discount)
	                     FROM lineitem
	                     WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'`)
	if err != nil {
		t.Fatal(err)
	}
	var cnt int
	fmt.Sscan(res.Rows[0][0], &cnt)
	if cnt <= 0 || cnt >= rows {
		t.Fatalf("1994 shipment count %d of %d", cnt, rows)
	}

	// COUNTD and MEDIAN (the aggregates extracts exist to provide).
	res, err = db.Query(`SELECT COUNTD(l_shipmode), MEDIAN(l_quantity) FROM lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "7" {
		t.Fatalf("COUNTD(l_shipmode) = %s, want 7", res.Rows[0][0])
	}
}

func TestTPCHPersistenceRoundTrip(t *testing.T) {
	db := buildTPCHDatabase(t, 0.002)
	q := `SELECT l_shipmode, COUNT(*), MAX(l_quantity) FROM lineitem
	      GROUP BY l_shipmode ORDER BY l_shipmode`
	before, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tpch.tde")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := tde.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	after, err := db2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != len(after.Rows) {
		t.Fatalf("row counts differ after round trip")
	}
	for i := range before.Rows {
		for c := range before.Rows[i] {
			if before.Rows[i][c] != after.Rows[i][c] {
				t.Fatalf("row %d col %d differs: %q vs %q", i, c,
					before.Rows[i][c], after.Rows[i][c])
			}
		}
	}
	// The physical design must survive too.
	cols, err := db2.Columns("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	encodings := map[string]bool{}
	for _, c := range cols {
		encodings[c.Encoding] = true
	}
	if len(encodings) < 3 {
		t.Errorf("reloaded table uses only %v", encodings)
	}
}

func TestFlightsEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := flights.New(60000, 5).Write(&buf); err != nil {
		t.Fatal(err)
	}
	db := tde.New()
	if err := db.ImportCSV("flights", buf.Bytes(), tde.DefaultImportOptions()); err != nil {
		t.Fatal(err)
	}
	// Carrier counts must sum to the table.
	res, err := db.Query("SELECT Carrier, COUNT(*) FROM flights GROUP BY Carrier")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, r := range res.Rows {
		var c int
		fmt.Sscan(r[1], &c)
		sum += c
	}
	if sum != 60000 {
		t.Fatalf("carrier counts sum to %d", sum)
	}
	// Boolean column filters.
	res, err = db.Query("SELECT COUNT(*) FROM flights WHERE Cancelled = TRUE")
	if err != nil {
		t.Fatal(err)
	}
	var cancelled int
	fmt.Sscan(res.Rows[0][0], &cancelled)
	if cancelled <= 0 || cancelled > 2000 {
		t.Fatalf("cancelled count %d out of expected band (~1%%)", cancelled)
	}
	// Year extraction across ten years of data.
	res, err = db.Query("SELECT YEAR(FlightDate) AS y, COUNT(*) FROM flights GROUP BY y ORDER BY y")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("%d distinct years, want 10", len(res.Rows))
	}
}

// TestPlanEquivalenceFig10 is the central correctness property: all three
// strategic plan shapes must agree on every query in a randomized sweep.
func TestPlanEquivalenceFig10(t *testing.T) {
	tab := rlegen.Build(150000, 99)
	rng := rand.New(rand.NewSource(17))
	opts := []plan.Options{
		{NoIndexPlan: true},
		{OrderedIndex: 0},
		{OrderedIndex: 1},
		{NoIndexPlan: true, ParallelWorkers: 3},
	}
	for trial := 0; trial < 10; trial++ {
		index := "primary"
		if rng.Intn(2) == 0 {
			index = "secondary"
		}
		cutoff := int64(rng.Intn(100))
		var results []map[int64]int64
		for _, opt := range opts {
			q := harness.Fig10Query(tab, index, int(100-cutoff))
			op, _, err := plan.Build(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := exec.Collect(op)
			if err != nil {
				t.Fatal(err)
			}
			m := map[int64]int64{}
			for _, r := range rows {
				m[int64(r[0])] = int64(r[1])
			}
			results = append(results, m)
		}
		for i := 1; i < len(results); i++ {
			if len(results[i]) != len(results[0]) {
				t.Fatalf("trial %d (%s > %d): plan %d has %d groups, plan 0 has %d",
					trial, index, cutoff, i, len(results[i]), len(results[0]))
			}
			for k, v := range results[0] {
				if results[i][k] != v {
					t.Fatalf("trial %d (%s > %d): plan %d disagrees on group %d: %d vs %d",
						trial, index, cutoff, i, k, results[i][k], v)
				}
			}
		}
	}
}

// TestSQLPlanEquivalence drives the same property through SQL strings and
// the public API knobs.
func TestSQLPlanEquivalence(t *testing.T) {
	var buf bytes.Buffer
	if err := flights.New(40000, 6).Write(&buf); err != nil {
		t.Fatal(err)
	}
	db := tde.New()
	if err := db.ImportCSV("flights", buf.Bytes(), tde.DefaultImportOptions()); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT COUNT(*) FROM flights WHERE Carrier = 'DL'",
		"SELECT Origin, COUNT(*) FROM flights WHERE Dest = 'JFK' GROUP BY Origin ORDER BY Origin",
		"SELECT COUNT(*), AVG(ArrDelay) FROM flights WHERE Origin = 'SEA'",
	}
	for _, q := range queries {
		control, err := db.QueryWithOptions(q, plan.Options{NoEncodedExec: true, NoIndexPlan: true})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		optimized, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		dictFilter := false
		for _, op := range optimized.Stats().Operators {
			dictFilter = dictFilter || op.Kind == "Select" && op.Routine == "dict-filter"
		}
		if !dictFilter {
			t.Errorf("%s: expected the dict-filter routine, got %s", q, optimized.Plan)
		}
		if len(control.Rows) != len(optimized.Rows) {
			t.Fatalf("%s: %d vs %d rows", q, len(control.Rows), len(optimized.Rows))
		}
		for i := range control.Rows {
			for c := range control.Rows[i] {
				if control.Rows[i][c] != optimized.Rows[i][c] {
					t.Fatalf("%s: row %d col %d: %q vs %q", q, i, c,
						control.Rows[i][c], optimized.Rows[i][c])
				}
			}
		}
	}
}
