package difftest

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"tde"
	"tde/internal/plan"
)

// TestDMLOracle checks UPDATE and DELETE — whose row selection the
// planner builds like any query's — against SELECTs over the same state.
// WHERE clauses come from the query generator, and every statement runs
// over clean tables, over committed write overlays, or inside a
// transaction over its own pending ops:
//
//   - SELECT COUNT(*) ... WHERE p counts as many rows as the same query
//     planned with the index rewrite off;
//   - a DELETE affects as many rows as SELECT COUNT(*) ... WHERE p counted
//     before it; afterwards no row matches p and the total dropped by
//     that many;
//   - UPDATE ... SET n = n + 1 WHERE p affects the same count, raises
//     SUM(n) by the matches whose n is not NULL and leaves every other
//     column's values as they were;
//   - inside a transaction the statement affects what a query counts once
//     the same pending ops are committed, and committing both leaves the
//     same rows.
//
// The scan, zone-skip and index plans must each be taken, the index plan
// over clean tables and over committed overlays alike, and some filter
// must run through a dictionary's or heap's token truth table
// (dict-filter, Sect. 4.1, inside a scan or zone-skip plan).
func TestDMLOracle(t *testing.T) {
	rounds := 18
	if *long {
		rounds = 72
	}
	db, twin := dmlOracleDB(t), dmlOracleDB(t)
	// At the default size nullRng's seed has two clean rounds test IS NULL
	// on a heap string that holds NULLs.
	rng, nullRng := rand.New(rand.NewSource(29)), rand.New(rand.NewSource(32))
	plans := map[string]int{}
	for r := 0; r < rounds; r++ {
		c := drawDMLCase(rng, nullRng)
		setup := dmlSetup(rng, r)
		state := []string{"clean", "committed", "pending"}[r%3]
		label := fmt.Sprintf("round %d (%s): %s", r, state, c.sql)
		switch state {
		case "clean":
			for _, d := range []*tde.Database{db, twin} {
				if err := d.Compact(); err != nil {
					t.Fatal(err)
				}
				compressColumns(t, d)
			}
		case "committed":
			for _, d := range []*tde.Database{db, twin} {
				execAll(t, d, setup)
			}
		}
		if state == "pending" {
			// The twin runs setup and statement in one transaction; db
			// commits the setup first and answers the oracle's queries.
			execAll(t, db, setup)
			tx, err := twin.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, sql := range setup {
				if _, err := tx.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			pending, err := tx.Exec(c.sql)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if want := count(t, db, c.selectWhere("COUNT(*)")); pending != want {
				t.Errorf("%s: affected %d with pending ops, %d once they commit", label, pending, want)
			}
		}
		class := planClass(t, db, c.sql)
		plans[class]++
		if class == "index" {
			plans["index/"+state]++
		}
		if dictFiltered(t, db, c.selectWhere("COUNT(*)")) {
			plans["dict-filter"]++
		}
		c.check(t, db, label)
		if state != "pending" {
			execAll(t, twin, []string{c.sql})
		}
		if d := diffRows(tableRows(t, db, c.table, ""), tableRows(t, twin, c.table, "")); d != "" {
			t.Fatalf("%s: the transaction's rows and the committed rows differ: %s", label, d)
		}
	}
	for _, p := range []string{"scan", "zone-skip", "dict-filter", "index/clean", "index/committed"} {
		if plans[p] == 0 {
			t.Errorf("no statement took the %s plan (%v)", p, plans)
		}
	}
}

// dmlCase is one UPDATE or DELETE over table, filtered by where; n is the
// integer column an UPDATE increments.
type dmlCase struct {
	table, n, where string
	update          bool
	sql             string
}

// nullableColumns are, per table, a heap string and (lineitem) a
// dictionary-compressed integer that dmlSetup's inserted rows leave NULL,
// each with a value it holds.
var nullableColumns = map[string][][2]string{
	"lineitem": {{"l_shipinstruct", "'NONE'"}, {"l_suppkey", "7"}},
	"flights":  {{"Dest", "'ATL'"}},
}

// drawDMLCase draws a statement over lineitem or flights. A flights
// filter sometimes also isolates the run-length Cancelled column, which
// the index rewrite serves. nullRng decides whether the filter also
// tests a nullable column with IS [NOT] NULL, or is a disjunction that
// holds on NULL.
func drawDMLCase(rng, nullRng *rand.Rand) dmlCase {
	c := dmlCase{table: "lineitem", n: "l_quantity", update: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		c.where = lineitemWhere(rng)
	} else {
		c.table, c.n, c.where = "flights", "Distance", flightsWhere(rng)
		if rng.Intn(3) == 0 {
			c.where += " AND Cancelled = FALSE"
		}
	}
	cols := nullableColumns[c.table]
	pick := cols[nullRng.Intn(len(cols))]
	col, val := pick[0], pick[1]
	switch nullRng.Intn(4) {
	case 0:
		c.where = fmt.Sprintf("%s IS NULL AND %s", col, c.where)
	case 1:
		c.where = fmt.Sprintf("%s IS NOT NULL AND %s", col, c.where)
	case 2:
		c.where = fmt.Sprintf("(%s IS NULL OR %s = %s)", col, col, val)
	}
	if c.update {
		c.sql = fmt.Sprintf("UPDATE %s SET %s = %s + 1 WHERE %s", c.table, c.n, c.n, c.where)
	} else {
		c.sql = fmt.Sprintf("DELETE FROM %s WHERE %s", c.table, c.where)
	}
	return c
}

func (c dmlCase) selectWhere(item string) string {
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s", item, c.table, c.where)
}

// check runs the statement on db and holds it to the oracle's queries.
func (c dmlCase) check(t *testing.T, db *tde.Database, label string) {
	t.Helper()
	matches := count(t, db, c.selectWhere("COUNT(*)"))
	if scanned := countWith(t, db, c.selectWhere("COUNT(*)"),
		plan.Options{NoIndexPlan: true}); matches != scanned {
		t.Errorf("%s: a SELECT counted %d rows, %d with the index rewrite off", label, matches, scanned)
	}
	nonNull := count(t, db, c.selectWhere(fmt.Sprintf("COUNT(%s)", c.n)))
	total := count(t, db, "SELECT COUNT(*) FROM "+c.table)
	sum := count(t, db, fmt.Sprintf("SELECT SUM(%s) FROM %s", c.n, c.table))
	others := tableRows(t, db, c.table, c.n)
	n, err := db.Exec(c.sql)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if n != matches {
		t.Errorf("%s: affected %d rows, a SELECT counted %d", label, n, matches)
	}
	after := count(t, db, "SELECT COUNT(*) FROM "+c.table)
	if c.update {
		if got := count(t, db, fmt.Sprintf("SELECT SUM(%s) FROM %s", c.n, c.table)); got != sum+nonNull || after != total {
			t.Errorf("%s: SUM %d -> %d (want +%d), rows %d -> %d", label, sum, got, nonNull, total, after)
		}
		if d := diffRows(others, tableRows(t, db, c.table, c.n)); d != "" {
			t.Errorf("%s: the columns it does not set changed: %s", label, d)
		}
		return
	}
	if left := count(t, db, c.selectWhere("COUNT(*)")); left != 0 || after != total-n {
		t.Errorf("%s: %d rows still match; rows %d -> %d after deleting %d", label, left, total, after, n)
	}
}

// dmlSetup is one batch of dirtying writes to both tables: inserted rows
// (NULLs in the unlisted columns, a NULL n), an update and a deletion.
func dmlSetup(rng *rand.Rand, round int) []string {
	key := 3000000 + round
	return []string{
		fmt.Sprintf("INSERT INTO lineitem (l_orderkey, l_linenumber, l_quantity, l_discount, l_shipdate, l_shipmode, l_returnflag) "+
			"VALUES (%d, 1, %d, 0.04, DATE '1996-03-%02d', '%s', '%s'), (%d, 2, NULL, 0.01, DATE '1993-01-01', 'AIR', 'N')",
			key, 1+rng.Intn(50), 1+rng.Intn(28), shipmodes[rng.Intn(len(shipmodes))],
			returnflags[rng.Intn(len(returnflags))], key),
		fmt.Sprintf("UPDATE lineitem SET l_shipmode = 'RAIL', l_quantity = 7 WHERE l_orderkey = %d", 1+rng.Intn(2000)),
		fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey = %d", 1+rng.Intn(2000)),
		fmt.Sprintf("INSERT INTO flights (FlightNum, Carrier, Origin, Distance, ArrDelay, Cancelled) "+
			"VALUES (%d, '%s', '%s', %d, %d, FALSE), (%d, 'AA', 'ATL', NULL, NULL, TRUE)",
			key, flightCarriers[rng.Intn(len(flightCarriers))], flightAirports[rng.Intn(len(flightAirports))],
			200+rng.Intn(2000), rng.Intn(90), key),
		fmt.Sprintf("DELETE FROM flights WHERE Distance = %d", 200+rng.Intn(2000)),
	}
}

func dmlOracleDB(t *testing.T) *tde.Database {
	t.Helper()
	db, err := BuildDatabase(0.003, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// compressColumns dictionary-compresses l_linenumber and l_suppkey on a
// clean lineitem, so that an UPDATE there reads dictionary tokens and a
// filter on l_suppkey runs through the dictionary's truth table.
func compressColumns(t *testing.T, db *tde.Database) {
	t.Helper()
	for _, col := range []string{"l_linenumber", "l_suppkey"} {
		if err := db.CompressColumn("lineitem", col); err != nil {
			t.Fatalf("%s: %v", col, err)
		}
	}
}

func execAll(t *testing.T, db *tde.Database, stmts []string) {
	t.Helper()
	for _, sql := range stmts {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

// count runs a one-cell integer query; an aggregate over no rows returns
// no row, and SUM over only NULLs returns NULL: both count as 0.
func count(t *testing.T, db *tde.Database, sql string) int {
	t.Helper()
	return countWith(t, db, sql, plan.Options{})
}

// countWith is count under the given plan options.
func countWith(t *testing.T, db *tde.Database, sql string, opt plan.Options) int {
	t.Helper()
	res, err := db.QueryWithOptions(sql, opt)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if len(res.Rows) == 0 || res.Rows[0][0] == "NULL" {
		return 0
	}
	n, err := strconv.Atoi(res.Rows[0][0])
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return n
}

// planClass names the plan that selects a statement's rows.
func planClass(t *testing.T, db *tde.Database, sql string) string {
	t.Helper()
	p, err := db.Explain(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	switch {
	case strings.Contains(p, " ranges)"):
		return "index"
	case strings.Contains(p, "ZoneSkip["):
		return "zone-skip"
	}
	return "scan"
}

// dictFiltered reports whether the filter of sql's plan used a token
// truth table (the Select's dict-filter routine).
func dictFiltered(t *testing.T, db *tde.Database, sql string) bool {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	for _, op := range res.Stats().Operators {
		if op.Kind == "Select" && strings.Contains(op.Routine, "dict-filter") {
			return true
		}
	}
	return false
}

// tableRows renders every row of a table, without column except, as a
// sorted multiset.
func tableRows(t *testing.T, db *tde.Database, table, except string) []string {
	t.Helper()
	res, err := db.Query("SELECT * FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	for i, c := range res.Columns {
		if c == except {
			rows = make([][]string, len(res.Rows))
			for r, row := range res.Rows {
				rows[r] = append(append([]string{}, row[:i]...), row[i+1:]...)
			}
		}
	}
	return canonicalRows(rows)
}
