package difftest

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"testing"

	"tde"
	"tde/internal/plan"
	"tde/internal/tpch"
)

// TestJoinOracle checks star joins — per-side column pruning, the
// first-match and NULL = NULL rules — against an oracle that
// shares none of the join planner: Go maps over the rows single-table
// SELECTs return. Every case runs on clean tables and again after both
// sides of every join carry a dirty write overlay, serially and with a
// parallel probe.
func TestJoinOracle(t *testing.T) {
	sf := 0.003
	if *long {
		sf = 0.01
	}
	db, err := BuildDatabase(sf, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	addJoinOracleTables(t, db, sf)
	for _, dirty := range []bool{false, true} {
		if dirty {
			dirtyJoinOracleTables(t, db)
		}
		tabs := map[string]*oracleTable{}
		for _, name := range []string{"lineitem", "orders", "modes", "customer", "flags", "suppliers", "supp_plain"} {
			tabs[name] = fetchOracleTable(t, db, name)
		}
		for _, c := range joinOracleCases() {
			want := c.oracle(tabs)
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s dirty=%v workers=%d", c.name, dirty, workers)
				res, err := db.QueryContext(context.Background(), c.sql,
					tde.QueryOptions{Plan: plan.Options{ParallelWorkers: workers}})
				if err != nil {
					t.Fatalf("%s: %v\n  query: %s", label, err, c.sql)
				}
				if d := diffRows(want, canonicalRows(res.Rows)); d != "" {
					t.Errorf("%s: %s\n  query: %s\n  plan: %s", label, d, c.sql, res.Plan)
				}
			}
			if !c.spill {
				continue
			}
			// A budget the inner side cannot fit in sends the join
			// through grace partitioning.
			res, err := db.QueryContext(context.Background(), c.sql,
				tde.QueryOptions{MemoryBudget: 256, SpillBudget: 64 << 20})
			if err != nil {
				t.Fatalf("%s dirty=%v spilled: %v\n  query: %s", c.name, dirty, err, c.sql)
			}
			if !res.Stats().Spilled() {
				t.Errorf("%s dirty=%v: the join did not spill\n  plan: %s", c.name, dirty, res.Plan)
			}
			if d := diffRows(want, canonicalRows(res.Rows)); d != "" {
				t.Errorf("%s dirty=%v spilled: %s\n  query: %s\n  plan: %s", c.name, dirty, d, c.sql, res.Plan)
			}
		}
	}
}

// ref names one column of a join side; side 0 is the fact table, side i
// the i-th joined dimension.
type ref struct {
	side int
	col  string
}

// oracleJoin is one join of a case: dim's inner column equals the outer
// column, the first dim row in table order matches, NULL matches NULL.
type oracleJoin struct {
	dim   string
	outer ref
	inner string
	left  bool
}

type joinCase struct {
	name  string
	sql   string
	fact  string
	joins []oracleJoin
	out   []ref
	where func(get func(ref) string) bool
	// spill also runs the case under a memory budget that forces a
	// grace join.
	spill bool
}

// oracleTable is a stored table as a single-table SELECT returns it: rows
// of rendered cells in table order, and each column's position.
type oracleTable struct {
	col  map[string]int
	rows [][]string
}

func fetchOracleTable(t *testing.T, db *tde.Database, name string) *oracleTable {
	t.Helper()
	res, err := db.QueryWithOptions("SELECT * FROM "+name, plan.Options{ParallelWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	tab := &oracleTable{col: map[string]int{}, rows: res.Rows}
	for i, c := range res.Columns {
		tab.col[c] = i
	}
	return tab
}

// oracle joins the fact rows to each dimension through a map from key
// cell to first row, filters, and projects.
func (c joinCase) oracle(tabs map[string]*oracleTable) []string {
	sideTabs := []*oracleTable{tabs[c.fact]}
	first := make([]map[string]int, len(c.joins))
	for i, j := range c.joins {
		d := tabs[j.dim]
		sideTabs = append(sideTabs, d)
		first[i] = map[string]int{}
		for r, row := range d.rows {
			if _, ok := first[i][row[d.col[j.inner]]]; !ok {
				first[i][row[d.col[j.inner]]] = r
			}
		}
	}
	var out [][]string
	for _, frow := range sideTabs[0].rows {
		rows := [][]string{frow} // nil: the side is NULL-extended
		get := func(x ref) string {
			if rows[x.side] == nil {
				return "NULL"
			}
			return rows[x.side][sideTabs[x.side].col[x.col]]
		}
		for i, j := range c.joins {
			r, ok := first[i][get(j.outer)]
			if ok {
				rows = append(rows, sideTabs[i+1].rows[r])
			} else if j.left {
				rows = append(rows, nil)
			} else {
				break
			}
		}
		if len(rows) <= len(c.joins) || c.where != nil && !c.where(get) {
			continue
		}
		var row []string
		for _, x := range c.out {
			row = append(row, get(x))
		}
		out = append(out, row)
	}
	return canonicalRows(out)
}

// Null-aware cell predicates: a NULL cell satisfies no comparison.
func cellInt(v string) (int64, bool) {
	n, err := strconv.ParseInt(v, 10, 64)
	return n, err == nil
}

func intLT(v string, c int64) bool { n, ok := cellInt(v); return ok && n < c }
func intGT(v string, c int64) bool { n, ok := cellInt(v); return ok && n > c }
func realGT(v string, c float64) bool {
	f, err := strconv.ParseFloat(v, 64)
	return err == nil && f > c
}
func dateLT(v, c string) bool { return v != "NULL" && v < c }
func strEQ(v, c string) bool  { return v != "NULL" && v == c }

func joinOracleCases() []joinCase {
	li := func(col string) ref { return ref{0, col} }
	orders := oracleJoin{dim: "orders", outer: li("l_orderkey"), inner: "o_orderkey"}
	leftOrders := orders
	leftOrders.left = true
	modes := oracleJoin{dim: "modes", outer: li("l_shipmode"), inner: "m_mode"}
	leftModes := modes
	leftModes.left = true
	// l_suppkey and s_suppkey are dictionary-compressed: their blocks
	// carry tokens, which the join must compare as values.
	supp := oracleJoin{dim: "suppliers", outer: li("l_suppkey"), inner: "s_suppkey"}
	leftPlain := oracleJoin{dim: "supp_plain", outer: li("l_suppkey"), inner: "s_suppkey", left: true}
	return []joinCase{
		{
			name:  "compressed keys on both sides",
			sql:   "SELECT l_orderkey, l_linenumber, l_suppkey, s_name FROM lineitem JOIN suppliers ON l_suppkey = s_suppkey",
			fact:  "lineitem",
			joins: []oracleJoin{supp},
			out:   []ref{li("l_orderkey"), li("l_linenumber"), li("l_suppkey"), {1, "s_name"}},
			spill: true,
		},
		{
			name: "compressed fact key, plain dimension key, left join",
			sql: "SELECT l_orderkey, l_linenumber, l_suppkey, s_name FROM lineitem " +
				"LEFT JOIN supp_plain ON l_suppkey = s_suppkey WHERE l_quantity < 25",
			fact:  "lineitem",
			joins: []oracleJoin{leftPlain},
			out:   []ref{li("l_orderkey"), li("l_linenumber"), li("l_suppkey"), {1, "s_name"}},
			where: func(g func(ref) string) bool { return intLT(g(li("l_quantity")), 25) },
			spill: true,
		},
		{
			name:  "bare names",
			sql:   "SELECT l_orderkey, l_linenumber, o_orderpriority FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
			fact:  "lineitem",
			joins: []oracleJoin{orders},
			out:   []ref{li("l_orderkey"), li("l_linenumber"), {1, "o_orderpriority"}},
		},
		{
			name: "aliased, fact and dimension filters",
			sql: "SELECT l.l_orderkey, l.l_linenumber, o.o_orderpriority, o.o_totalprice " +
				"FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey " +
				"WHERE l.l_quantity > 30 AND o.o_totalprice > 150000",
			fact:  "lineitem",
			joins: []oracleJoin{orders},
			out:   []ref{li("l_orderkey"), li("l_linenumber"), {1, "o_orderpriority"}, {1, "o_totalprice"}},
			where: func(g func(ref) string) bool {
				return intGT(g(li("l_quantity")), 30) && realGT(g(ref{1, "o_totalprice"}), 150000)
			},
		},
		{
			// flags shares l_linestatus with lineitem: the bare name reads
			// the fact's, the first in the joined schema.
			name: "a column name on both sides",
			sql: "SELECT l_orderkey, l_linenumber, l_linestatus, f_label FROM lineitem " +
				"JOIN flags ON lineitem.l_returnflag = flags.l_returnflag WHERE l_linestatus = 'F'",
			fact:  "lineitem",
			joins: []oracleJoin{{dim: "flags", outer: li("l_returnflag"), inner: "l_returnflag"}},
			out:   []ref{li("l_orderkey"), li("l_linenumber"), li("l_linestatus"), {1, "f_label"}},
			where: func(g func(ref) string) bool { return strEQ(g(li("l_linestatus")), "F") },
		},
		{
			name:  "left join, unfiltered",
			sql:   "SELECT l_orderkey, l_linenumber, o_orderstatus FROM lineitem LEFT JOIN orders ON l_orderkey = o_orderkey",
			fact:  "lineitem",
			joins: []oracleJoin{leftOrders},
			out:   []ref{li("l_orderkey"), li("l_linenumber"), {1, "o_orderstatus"}},
		},
		{
			// A filter on a LEFT JOIN's dimension drops the NULL-extended
			// rows.
			name: "left join, fact and dimension filters",
			sql: "SELECT l_orderkey, l_linenumber, o_orderstatus FROM lineitem LEFT JOIN orders ON l_orderkey = o_orderkey " +
				"WHERE o_orderstatus = 'O' AND l_quantity < 20",
			fact:  "lineitem",
			joins: []oracleJoin{leftOrders},
			out:   []ref{li("l_orderkey"), li("l_linenumber"), {1, "o_orderstatus"}},
			where: func(g func(ref) string) bool {
				return strEQ(g(ref{1, "o_orderstatus"}), "O") && intLT(g(li("l_quantity")), 20)
			},
		},
		{
			// modes holds AIR twice (ranks 1, 2) and MAIL twice (5, 7): the
			// join takes the first, and only then may the filter look.
			// Filtering first would join AIR to rank 2.
			name: "duplicate keys, dimension filter",
			sql: "SELECT l_orderkey, l_linenumber, l_shipmode, m_rank FROM lineitem " +
				"JOIN modes ON l_shipmode = m_mode WHERE m_rank > 1",
			fact:  "lineitem",
			joins: []oracleJoin{modes},
			out:   []ref{li("l_orderkey"), li("l_linenumber"), li("l_shipmode"), {1, "m_rank"}},
			where: func(g func(ref) string) bool { return intGT(g(ref{1, "m_rank"}), 1) },
		},
		{
			// Dirty lineitem rows with a NULL ship mode match modes' first
			// NULL key.
			name:  "duplicate and NULL keys, left join",
			sql:   "SELECT l_orderkey, l_linenumber, l_shipmode, m_rank FROM lineitem LEFT JOIN modes ON l_shipmode = m_mode",
			fact:  "lineitem",
			joins: []oracleJoin{leftModes},
			out:   []ref{li("l_orderkey"), li("l_linenumber"), li("l_shipmode"), {1, "m_rank"}},
		},
		{
			// o_custkey is read by nothing but the second join's ON.
			name: "two-join chain",
			sql: "SELECT l_orderkey, l_linenumber, c_mktsegment FROM lineitem " +
				"JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey " +
				"WHERE c_mktsegment = 'BUILDING' AND l_quantity < 10",
			fact: "lineitem",
			joins: []oracleJoin{orders,
				{dim: "customer", outer: ref{1, "o_custkey"}, inner: "c_custkey"}},
			out: []ref{li("l_orderkey"), li("l_linenumber"), {2, "c_mktsegment"}},
			where: func(g func(ref) string) bool {
				return strEQ(g(ref{2, "c_mktsegment"}), "BUILDING") && intLT(g(li("l_quantity")), 10)
			},
		},
		{
			// The bound sits in the first days of the generated ship dates,
			// where the dirty overlay inserts rows too.
			name: "narrow fact range",
			sql: "SELECT l.l_orderkey, l.l_linenumber, l.l_shipdate, o.o_orderpriority " +
				"FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE l.l_shipdate < DATE '1992-01-04'",
			fact:  "lineitem",
			joins: []oracleJoin{orders},
			out:   []ref{li("l_orderkey"), li("l_linenumber"), li("l_shipdate"), {1, "o_orderpriority"}},
			where: func(g func(ref) string) bool { return dateLT(g(li("l_shipdate")), "1992-01-04") },
		},
	}
}

// addJoinOracleTables imports the dimensions only the oracle cases join:
// customer (the chain's second hop), flags, which shares a column name
// with lineitem, and two supplier tables keyed by l_suppkey, which it
// dictionary-compresses: suppliers with a compressed key too, supp_plain
// without. Every seventh supplier is missing and the second one is
// listed twice.
func addJoinOracleTables(t *testing.T, db *tde.Database, sf float64) {
	t.Helper()
	var cust bytes.Buffer
	if err := tpch.New(sf, 7).WriteCustomer(&cust); err != nil {
		t.Fatal(err)
	}
	opt := tde.DefaultImportOptions()
	opt.Schema = []string{"c_custkey:int", "c_name:str", "c_address:str", "c_nationkey:int",
		"c_phone:str", "c_acctbal:real", "c_mktsegment:str", "c_comment:str"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("customer", cust.Bytes(), opt); err != nil {
		t.Fatal(err)
	}
	opt.Schema = []string{"l_returnflag:str", "l_linestatus:str", "f_label:str"}
	flags := "A,X,accepted\nN,Y,none\nR,Z,returned\n"
	if err := db.ImportCSV("flags", []byte(flags), opt); err != nil {
		t.Fatal(err)
	}
	var sup bytes.Buffer
	for k := 1; k <= max(10, int(sf*10000)); k++ {
		if k%7 != 0 {
			fmt.Fprintf(&sup, "%d,Supplier#%d\n", k, k)
		}
		if k == 2 {
			sup.WriteString("2,Supplier#2b\n")
		}
	}
	opt.Schema = []string{"s_suppkey:int", "s_name:str"}
	for _, name := range []string{"suppliers", "supp_plain"} {
		if err := db.ImportCSV(name, sup.Bytes(), opt); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range [][2]string{{"lineitem", "l_suppkey"}, {"suppliers", "s_suppkey"}} {
		if err := db.CompressColumn(tc[0], tc[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// dirtyJoinOracleTables gives every joined table a write overlay: inserted
// rows (an orders key that duplicates a base key, lineitem rows with NULL
// keys, with ship dates inside the narrow range and with supplier keys
// the compressed dictionary lacks), updates and deletions that leave fact
// rows unmatched.
func dirtyJoinOracleTables(t *testing.T, db *tde.Database) {
	t.Helper()
	for _, sql := range []string{
		"INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderpriority) " +
			"VALUES (2000001, 1, 'O', 160000.5, '1-URGENT'), (1, 2, 'F', 999999.0, '5-LOW')",
		"UPDATE orders SET o_orderstatus = 'O', o_totalprice = 200000.25 WHERE o_orderkey < 70",
		"DELETE FROM orders WHERE o_orderkey >= 100 AND o_orderkey < 200",
		"INSERT INTO lineitem (l_orderkey, l_linenumber, l_quantity, l_shipdate, l_shipmode, l_linestatus, l_returnflag) " +
			"VALUES (2000001, 1, 5, DATE '1991-12-30', 'AIR', 'F', 'A'), (2000002, 1, 40, DATE '1992-01-02', 'RAIL', 'F', 'N'), " +
			"(1, 9, 3, DATE '1992-01-03', 'MAIL', 'O', 'R')",
		"INSERT INTO lineitem (l_orderkey, l_linenumber, l_quantity) VALUES (3, 9, 7)",
		"UPDATE lineitem SET l_quantity = 45 WHERE l_orderkey >= 200 AND l_orderkey < 230",
		"DELETE FROM lineitem WHERE l_orderkey < 40 AND l_linenumber = 2",
		"INSERT INTO modes (m_mode, m_rank) VALUES ('REG AIR', 10), ('AIR', 11)",
		"INSERT INTO customer (c_custkey, c_mktsegment) VALUES (1, 'BUILDING')",
		"DELETE FROM flags WHERE l_returnflag = 'N'",
		// Supplier keys the compressed dictionaries lack, on both sides.
		"INSERT INTO lineitem (l_orderkey, l_linenumber, l_quantity, l_suppkey) VALUES (4, 9, 2, 900001), (5, 9, 3, 900002)",
		"INSERT INTO suppliers (s_suppkey, s_name) VALUES (900001, 'Supplier#new'), (3, 'Supplier#3b')",
		"INSERT INTO supp_plain (s_suppkey, s_name) VALUES (900002, 'Supplier#new')",
		"DELETE FROM suppliers WHERE s_suppkey = 1",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%v\n  statement: %s", err, sql)
		}
	}
}
