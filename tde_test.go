package tde

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tde/internal/plan"
)

const ordersCSV = `status,amount,when
open,10,2014-01-05
closed,25,2014-01-20
open,5,2014-02-11
closed,40,2014-02-28
open,15,2014-03-03
`

func importOrders(t *testing.T) *Database {
	t.Helper()
	db := New()
	if err := db.ImportCSV("orders", []byte(ordersCSV), DefaultImportOptions()); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestImportAndQuery(t *testing.T) {
	db := importOrders(t)
	if db.Rows("orders") != 5 {
		t.Fatalf("rows %d", db.Rows("orders"))
	}
	res, err := db.Query("SELECT status, SUM(amount) FROM orders GROUP BY status ORDER BY status")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups %v", res.Rows)
	}
	if res.Rows[0][0] != "closed" || res.Rows[0][1] != "65" {
		t.Fatalf("closed group %v", res.Rows[0])
	}
	if res.Rows[1][0] != "open" || res.Rows[1][1] != "30" {
		t.Fatalf("open group %v", res.Rows[1])
	}
}

// TestStringFilterUsesDictFilter: a string filter evaluates once per heap
// entry into a token truth table (Sect. 4.1), in the scan plan.
func TestStringFilterUsesDictFilter(t *testing.T) {
	db := importOrders(t)
	res, err := db.Query("SELECT COUNT(*) FROM orders WHERE status = 'open'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "3" {
		t.Fatalf("count %v", res.Rows)
	}
	if r := routineOf(t, res, "Select"); r != "dict-filter" {
		t.Errorf("select routine %q, want dict-filter: %s", r, res.Plan)
	}
}

func TestSaveAndOpen(t *testing.T) {
	db := importOrders(t)
	path := filepath.Join(t.TempDir(), "orders.tde")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query("SELECT MAX(amount) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "40" {
		t.Fatalf("max %v", res.Rows)
	}
}

func TestColumnsInspection(t *testing.T) {
	db := importOrders(t)
	cols, err := db.Columns("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 {
		t.Fatalf("%d columns", len(cols))
	}
	byName := map[string]ColumnInfo{}
	for _, c := range cols {
		byName[c.Name] = c
	}
	if byName["status"].Type != "str" || byName["amount"].Type != "int" || byName["when"].Type != "date" {
		t.Fatalf("types wrong: %+v", byName)
	}
	if !byName["status"].HeapSorted {
		t.Error("status heap should be sorted (small domain)")
	}
	if byName["status"].Cardinality != 2 || !byName["status"].CardinalityExact {
		t.Errorf("status cardinality %d", byName["status"].Cardinality)
	}
	if !byName["when"].Sorted || !byName["when"].SortedKnown {
		t.Error("when column should be detected sorted")
	}
}

func TestCompressColumnEnablesDictPlan(t *testing.T) {
	// A bigger date table so the conversion is meaningful.
	var sb strings.Builder
	sb.WriteString("d,v\n")
	for i := 0; i < 5000; i++ {
		sb.WriteString(fmt.Sprintf("2013-%02d-%02d,%d\n", i%12+1, i%28+1, i%100))
	}
	db := New()
	if err := db.ImportCSV("t", []byte(sb.String()), DefaultImportOptions()); err != nil {
		t.Fatal(err)
	}
	if err := db.CompressColumn("t", "d"); err != nil {
		t.Fatal(err)
	}
	cols, _ := db.Columns("t")
	var d ColumnInfo
	for _, c := range cols {
		if c.Name == "d" {
			d = c
		}
	}
	if d.DictionarySize == 0 {
		t.Fatal("date column not dictionary compressed")
	}
	res, err := db.Query("SELECT COUNT(*) FROM t WHERE d >= DATE '2013-06-01' AND d < DATE '2013-07-01'")
	if err != nil {
		t.Fatal(err)
	}
	if r := routineOf(t, res, "Select"); r != "dict-filter" {
		t.Errorf("compressed date filter ran routine %q, want dict-filter: %s", r, res.Plan)
	}
	want := 0
	for i := 0; i < 5000; i++ {
		if i%12+1 == 6 {
			want++
		}
	}
	if res.Rows[0][0] != fmt.Sprint(want) {
		t.Fatalf("count %v want %d", res.Rows[0][0], want)
	}
}

func TestQueryErrors(t *testing.T) {
	db := importOrders(t)
	if _, err := db.Query("SELECT x FROM nosuch"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := db.Query("NOT SQL AT ALL"); err == nil {
		t.Error("garbage accepted")
	}
	if err := db.ImportCSV("orders", []byte("a\n1\n"), DefaultImportOptions()); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestExplain(t *testing.T) {
	db := importOrders(t)
	p, err := db.Explain("SELECT COUNT(*) FROM orders WHERE amount > 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "Scan") {
		t.Errorf("explain output %q", p)
	}
}

func TestSchemaOverride(t *testing.T) {
	db := New()
	opt := DefaultImportOptions()
	opt.Schema = []string{"code:str", "n:int"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("t", []byte("007,1\n008,2\n"), opt); err != nil {
		t.Fatal(err)
	}
	cols, _ := db.Columns("t")
	if cols[0].Type != "str" {
		t.Fatalf("schema override ignored: %v", cols[0].Type)
	}
	res, _ := db.Query("SELECT code FROM t WHERE n = 2")
	if res.Rows[0][0] != "008" {
		t.Fatalf("rows %v", res.Rows)
	}
}

func TestCollationOption(t *testing.T) {
	db := New()
	opt := DefaultImportOptions()
	opt.Collation = "ci"
	// An all-string file cannot header-detect (every value parses as a
	// string), so declare the header explicitly.
	opt.HeaderSet, opt.HasHeader = true, true
	opt.Schema = []string{"w:str"}
	if err := db.ImportCSV("t", []byte("w\nApple\nAPPLE\napple\n"), opt); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNTD(w) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "1" {
		t.Fatalf("case-insensitive countd %v", res.Rows)
	}
	if _, ok := interface{}(opt).(ImportOptions); !ok {
		t.Fatal("unreachable")
	}
	if err := db.ImportCSV("bad", []byte("x\n1\n"), ImportOptions{Collation: "klingon"}); err == nil {
		t.Error("bad collation accepted")
	}
}

func TestLimitAndHavingThroughAPI(t *testing.T) {
	db := importOrders(t)
	res, err := db.Query("SELECT amount FROM orders ORDER BY amount DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "40" || res.Rows[1][0] != "25" {
		t.Fatalf("top-2 %v", res.Rows)
	}
	if !strings.Contains(res.Plan, "Sort[1 keys, top 2]") || strings.Contains(res.Plan, "Limit[") {
		t.Errorf("ORDER BY + LIMIT should plan a bounded Sort and no Limit: %s", res.Plan)
	}
	res, err = db.Query("SELECT status, SUM(amount) AS s FROM orders GROUP BY status HAVING s > 40")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "closed" {
		t.Fatalf("having result %v", res.Rows)
	}
}

// TestOrderByLimitSpills: ORDER BY … LIMIT is a bounded Sort, which
// spills like the full one. Over 60 000 rows under a 256 KiB budget with
// spilling on, LIMIT 50 000 answers the first rows of ORDER BY s, and
// neither query leaves a spill file.
func TestOrderByLimitSpills(t *testing.T) {
	db := New()
	var text strings.Builder
	for i, p := range rand.New(rand.NewSource(5)).Perm(60_000) {
		fmt.Fprintf(&text, "%d,s-%08d\n", i, p)
	}
	opt := DefaultImportOptions()
	opt.Schema = []string{"id:int", "s:str"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("t", []byte(text.String()), opt); err != nil {
		t.Fatal(err)
	}
	run := func(sql string) *Result {
		t.Helper()
		dir := t.TempDir()
		res, err := db.QueryContext(context.Background(), sql, QueryOptions{
			MemoryBudget: 256 << 10, SpillBudget: 1 << 30, SpillDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !res.Stats().Spilled() {
			t.Errorf("%s: did not spill under 256 KiB", sql)
		}
		assertNoSpillFiles(t, dir)
		return res
	}
	full := run("SELECT id, s FROM t ORDER BY s")
	top := run("SELECT id, s FROM t ORDER BY s LIMIT 50000")
	if len(full.Rows) != 60_000 || len(top.Rows) != 50_000 {
		t.Fatalf("%d and %d rows, want 60000 and 50000", len(full.Rows), len(top.Rows))
	}
	for i, r := range top.Rows {
		if strings.Join(r, ",") != strings.Join(full.Rows[i], ",") {
			t.Fatalf("row %d: %v, full sort has %v", i, r, full.Rows[i])
		}
	}
}

func TestMonthRollupThroughAPI(t *testing.T) {
	db := importOrders(t)
	res, err := db.Query("SELECT MONTH(when) AS m, COUNT(*) FROM orders GROUP BY m ORDER BY m")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("months %v", res.Rows)
	}
	if res.Rows[0][1] != "2" || res.Rows[1][1] != "2" || res.Rows[2][1] != "1" {
		t.Fatalf("month counts %v", res.Rows)
	}
}

func TestTimestampEndToEnd(t *testing.T) {
	db := New()
	csv := "ts,v\n2014-06-22 08:30:00,1\n2014-06-22 14:45:30,2\n2014-06-23 09:00:00,3\n"
	if err := db.ImportCSV("events", []byte(csv), DefaultImportOptions()); err != nil {
		t.Fatal(err)
	}
	cols, _ := db.Columns("events")
	if cols[0].Type != "timestamp" {
		t.Fatalf("ts inferred as %s", cols[0].Type)
	}
	res, err := db.Query("SELECT MIN(ts), MAX(ts), COUNT(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "2014-06-22 08:30:00" || res.Rows[0][1] != "2014-06-23 09:00:00" {
		t.Fatalf("timestamp range %v", res.Rows[0])
	}
}

func TestSelectStar(t *testing.T) {
	db := importOrders(t)
	res, err := db.Query("SELECT * FROM orders ORDER BY amount LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 || len(res.Rows) != 1 {
		t.Fatalf("select * shape: %v %v", res.Columns, res.Rows)
	}
	if res.Rows[0][1] != "5" {
		t.Fatalf("cheapest order %v", res.Rows[0])
	}
	if _, err := db.Query("SELECT *, COUNT(*) FROM orders"); err == nil {
		t.Error("star mixed with aggregation accepted")
	}
}

func TestJoinThroughPublicAPI(t *testing.T) {
	db := importOrders(t)
	sopt := DefaultImportOptions()
	// All-string files cannot header-detect; declare it.
	sopt.HeaderSet, sopt.HasHeader = true, true
	sopt.Schema = []string{"code:str", "label:str"}
	if err := db.ImportCSV("statuses", []byte("code,label\nopen,active\nclosed,done\n"), sopt); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT label, SUM(amount) FROM orders
	                      JOIN statuses ON orders.status = statuses.code
	                      GROUP BY label ORDER BY label`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "active" || res.Rows[0][1] != "30" {
		t.Fatalf("join rows %v", res.Rows)
	}
	if res.Rows[1][0] != "done" || res.Rows[1][1] != "65" {
		t.Fatalf("join rows %v", res.Rows)
	}
}

// TestSerialAggregateKeepsOrder: in auto mode a single sorted group key
// keeps the aggregate serial, and the ordered aggregate trusts the key's
// sortedness. The workers go to an Exchange below it only over a join,
// and that Exchange must preserve input order; a filtered scan or an
// index plan keeps its serial plan. Every plan must form the serial
// plan's groups.
func TestSerialAggregateKeepsOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := New()
	var fact, dim strings.Builder
	for i := 0; i < 400_000; i++ {
		fmt.Fprintf(&fact, "%d,%d,%d\n", i/1000, i%5000, i%7)
	}
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&dim, "%d,%d\n", i, i%37)
	}
	opt := DefaultImportOptions()
	opt.HeaderSet, opt.HasHeader = true, false
	opt.Schema = []string{"g:int", "fk:int", "c:int"}
	if err := db.ImportCSV("f", []byte(fact.String()), opt); err != nil {
		t.Fatal(err)
	}
	opt.Schema = []string{"dk:int", "dv:int"}
	if err := db.ImportCSV("d", []byte(dim.String()), opt); err != nil {
		t.Fatal(err)
	}
	if err := db.CompressColumn("f", "c"); err != nil {
		t.Fatal(err)
	}
	const join = "SELECT g, COUNT(*), SUM(dv) FROM f JOIN d ON fk = dk GROUP BY g"
	const ordered = ", order-preserving] => Aggregate["
	for _, tc := range []struct {
		name, sql string
		writes    []string // applied before the query, making f dirty
		want      []string // plan substrings
		routine   string   // the Select's routine, if set
		exchange  bool
		groups    int
	}{
		{name: "join", sql: join, want: []string{"Join(", ordered}, exchange: true, groups: 400},
		// The compressed-column filter that once planned an invisible join
		// now runs in the scan as a token truth table.
		{name: "invisible-join", sql: "SELECT g, COUNT(*) FROM f WHERE c = 3 GROUP BY g",
			want: []string{"Filter[", "] => Aggregate["}, routine: "dict-filter", groups: 400},
		{name: "filter", sql: "SELECT g, COUNT(*) FROM f WHERE fk > 3 AND c = 3 GROUP BY g",
			want: []string{"Filter[", "] => Aggregate["}, routine: "dict-filter+kernel", groups: 400},
		{name: "index", sql: "SELECT g, COUNT(*), SUM(fk) FROM f WHERE g >= 100 AND g < 300 GROUP BY g",
			want: []string{"IndexTable(g"}, groups: 200},
		{name: "dirty-join", sql: join, writes: []string{
			"DELETE FROM f WHERE fk = 7",
			"DELETE FROM f WHERE g = 17",
			"INSERT INTO f VALUES (400, 1, 0), (400, 2, 0), (401, 3, 0)",
		}, want: []string{"DeltaScan(f", ordered}, exchange: true, groups: 401},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range tc.writes {
				if _, err := db.Exec(w); err != nil {
					t.Fatal(err)
				}
			}
			serial, err := db.QueryWithOptions(tc.sql, plan.Options{ParallelWorkers: -1})
			if err != nil {
				t.Fatal(err)
			}
			auto, err := db.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				if !strings.Contains(auto.Plan, w) {
					t.Errorf("plan lacks %q: %s", w, auto.Plan)
				}
			}
			if got := strings.Contains(auto.Plan, "Exchange["); got != tc.exchange {
				t.Errorf("Exchange in plan: %v, want %v: %s", got, tc.exchange, auto.Plan)
			}
			if tc.routine != "" {
				if r := routineOf(t, auto, "Select"); r != tc.routine {
					t.Errorf("select routine %q, want %q", r, tc.routine)
				}
			}
			if len(serial.Rows) != tc.groups {
				t.Fatalf("serial plan formed %d groups, want %d", len(serial.Rows), tc.groups)
			}
			want, got := sortedRows(serial.Rows), sortedRows(auto.Rows)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("auto plan formed %d groups, serial %d: %s", len(got), len(want), auto.Plan)
			}
		})
	}
}
