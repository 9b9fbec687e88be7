package difftest

import (
	"fmt"
	"math/rand"
	"strings"
)

// The generator draws from a closed grammar: single-table aggregations
// over lineitem and flights, lineitem-orders and -modes joins, key-ordered
// top-n selections (some of wide rows that keep thousands) and filtered
// flights selections. Every query is deterministic given the rng, and any
// ORDER BY ... LIMIT ends in a total order (a unique key as tiebreaker)
// so the cut is the same no matter which worker produced each row.

type colDef struct {
	name string
	kind byte // 'i' int, 'r' real, 's' string
}

var lineitemGroupCols = []colDef{
	{"l_returnflag", 's'}, {"l_linestatus", 's'}, {"l_shipmode", 's'},
	{"l_linenumber", 'i'}, {"l_shipinstruct", 's'},
	{"l_orderkey", 'i'}, // sorted: grouped on its own, it runs ordered aggregation
}

var lineitemAggCols = []colDef{
	{"l_quantity", 'i'}, {"l_extendedprice", 'r'}, {"l_discount", 'r'},
	{"l_tax", 'r'}, {"l_suppkey", 'i'}, {"l_shipmode", 's'},
	{"l_returnflag", 's'}, {"l_comment", 's'},
}

var flightsGroupCols = []colDef{
	{"Carrier", 's'}, {"Origin", 's'}, {"Dest", 's'},
}

var flightsAggCols = []colDef{
	{"DepDelay", 'i'}, {"ArrDelay", 'i'}, {"Distance", 'i'},
	{"TailNum", 's'}, {"Dest", 's'},
}

var joinGroupCols = []colDef{
	{"o_orderpriority", 's'}, {"o_orderstatus", 's'},
	{"l_returnflag", 's'}, {"l_linestatus", 's'},
}

var joinAggCols = []colDef{
	{"l_quantity", 'i'}, {"l_extendedprice", 'r'}, {"o_totalprice", 'r'},
	{"o_shippriority", 'i'}, {"l_shipmode", 's'},
}

var modesGroupCols = []colDef{{"l_shipmode", 's'}, {"l_returnflag", 's'}}
var modesAggCols = []colDef{{"m_rank", 'i'}, {"l_quantity", 'i'}}

var shipmodes = []string{"AIR", "RAIL", "MAIL", "SHIP", "TRUCK", "FOB", "REG AIR"}
var returnflags = []string{"A", "N", "R"}
var flightCarriers = []string{"AA", "DL", "UA", "WN", "B6"}
var flightAirports = []string{"ATL", "LAX", "ORD", "DFW", "DEN", "JFK"}

// randomQuery draws one SQL statement.
func randomQuery(rng *rand.Rand) string {
	switch rng.Intn(11) {
	case 0, 1, 2, 3: // lineitem aggregation
		return groupQuery(rng, "lineitem", lineitemGroupCols, lineitemAggCols, lineitemWhere)
	case 4, 5: // flights aggregation
		return groupQuery(rng, "flights", flightsGroupCols, flightsAggCols, flightsWhere)
	case 6, 7, 8: // lineitem x orders join
		return joinQuery(rng)
	case 9: // a selection: key-ordered top-n, or filtered flights
		if rng.Intn(2) == 0 {
			return topNSelect(rng)
		}
		return flightsSelect(rng)
	default: // a key-ordered top-n of wide rows
		return wideTopSelect(rng)
	}
}

// aggExpr draws one aggregate over the column pool; string columns only
// take MIN/MAX/COUNTD.
func aggExpr(rng *rand.Rand, cols []colDef, alias string) string {
	c := cols[rng.Intn(len(cols))]
	var fns []string
	if c.kind == 's' {
		fns = []string{"MIN", "MAX", "COUNTD"}
	} else {
		fns = []string{"SUM", "AVG", "MIN", "MAX", "COUNTD", "MEDIAN"}
	}
	fn := fns[rng.Intn(len(fns))]
	return fmt.Sprintf("%s(%s) AS %s", fn, c.name, alias)
}

func lineitemWhere(rng *rand.Rand) string {
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("l_quantity > %d", 1+rng.Intn(45))
	case 1:
		return fmt.Sprintf("l_discount < %.2f", 0.01+0.01*float64(rng.Intn(9)))
	case 2:
		return fmt.Sprintf("l_shipdate >= DATE '%d-01-01'", 1993+rng.Intn(5))
	case 3:
		return fmt.Sprintf("l_shipmode = '%s'", shipmodes[rng.Intn(len(shipmodes))])
	case 4:
		return nullTest(rng, "l_shipmode", "l_quantity", "l_shipdate", "l_comment")
	default:
		return fmt.Sprintf("l_returnflag = '%s'", returnflags[rng.Intn(len(returnflags))])
	}
}

func flightsWhere(rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("Distance > %d", 200+100*rng.Intn(20))
	case 1:
		return fmt.Sprintf("ArrDelay > %d", rng.Intn(60))
	case 2:
		return fmt.Sprintf("Carrier = '%s'", flightCarriers[rng.Intn(len(flightCarriers))])
	case 3:
		return nullTest(rng, "Carrier", "ArrDelay", "TailNum", "Distance")
	default:
		return fmt.Sprintf("Origin = '%s'", flightAirports[rng.Intn(len(flightAirports))])
	}
}

// nullTest draws an IS [NOT] NULL conjunct over one of cols.
func nullTest(rng *rand.Rand, cols ...string) string {
	not := ""
	if rng.Intn(2) == 0 {
		not = " NOT"
	}
	return fmt.Sprintf("%s IS%s NULL", cols[rng.Intn(len(cols))], not)
}

// joinWhere draws a lineitem-orders filter; q qualifies a column name for
// the query's shape. The l_shipdate bound sits in the first days of the
// generated domain, so few rows qualify.
func joinWhere(rng *rand.Rand, q func(string) string) string {
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%s > %d", q("o_totalprice"), 10000+1000*rng.Intn(100))
	case 1:
		return fmt.Sprintf("%s > %d", q("l_quantity"), 1+rng.Intn(45))
	case 2:
		return fmt.Sprintf("%s < DATE '1992-01-%02d'", q("l_shipdate"), 2+rng.Intn(8))
	default:
		return fmt.Sprintf("%s = '%s'", q("o_orderstatus"), []string{"F", "O", "P"}[rng.Intn(3)])
	}
}

// qualifyTPCH qualifies a lineitem or orders column with the aliased
// join shape's table alias (l, o).
func qualifyTPCH(name string) string { return name[:1] + "." + name }

func bareName(name string) string { return name }

func qualifyCols(cols []colDef, q func(string) string) []colDef {
	out := make([]colDef, len(cols))
	for i, c := range cols {
		out[i] = colDef{q(c.name), c.kind}
	}
	return out
}

// groupQuery: [keys,] aggs FROM table [WHERE ...] [GROUP BY keys]
// [ORDER BY agg, keys LIMIT n].
func groupQuery(rng *rand.Rand, table string, groupCols, aggCols []colDef,
	where func(*rand.Rand) string) string {
	keys := pickCols(rng, groupCols, rng.Intn(3)) // 0..2 keys
	var items []string
	for _, k := range keys {
		items = append(items, k)
	}
	nAggs := 1 + rng.Intn(3)
	var aggAliases []string
	for i := 0; i < nAggs; i++ {
		alias := fmt.Sprintf("a%d", i)
		items = append(items, aggExpr(rng, aggCols, alias))
		aggAliases = append(aggAliases, alias)
	}
	if rng.Intn(3) == 0 {
		items = append(items, "COUNT(*) AS cnt")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT %s FROM %s", strings.Join(items, ", "), table)
	if rng.Intn(3) > 0 {
		fmt.Fprintf(&sb, " WHERE %s", where(rng))
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, " AND %s", where(rng))
		}
	}
	if len(keys) > 0 {
		fmt.Fprintf(&sb, " GROUP BY %s", strings.Join(keys, ", "))
		if rng.Intn(4) == 0 { // grouped top-n: order by an aggregate, keys break ties
			order := append([]string{aggAliases[0] + " DESC"}, keys...)
			fmt.Fprintf(&sb, " ORDER BY %s LIMIT %d", strings.Join(order, ", "), 1+rng.Intn(10))
		}
	}
	return sb.String()
}

// joinQuery draws a join of lineitem to orders — with bare names, or
// aliased with qualified references — or to the duplicate- and NULL-keyed
// modes dimension.
func joinQuery(rng *rand.Rand) string {
	from, on, groups, aggs := "lineitem %s orders", "l_orderkey = o_orderkey", joinGroupCols, joinAggCols
	where := func(rng *rand.Rand) string { return joinWhere(rng, bareName) }
	switch rng.Intn(3) {
	case 0:
		from, on, groups, aggs, where = "lineitem %s modes", "l_shipmode = m_mode", modesGroupCols, modesAggCols, lineitemWhere
	case 1:
		from, on = "lineitem l %s orders o", "l.l_orderkey = o.o_orderkey"
		groups, aggs = qualifyCols(joinGroupCols, qualifyTPCH), qualifyCols(joinAggCols, qualifyTPCH)
		where = func(rng *rand.Rand) string { return joinWhere(rng, qualifyTPCH) }
	}
	keys := pickCols(rng, groups, 1+rng.Intn(2))
	items := append([]string{}, keys...)
	nAggs := 1 + rng.Intn(2)
	for i := 0; i < nAggs; i++ {
		items = append(items, aggExpr(rng, aggs, fmt.Sprintf("a%d", i)))
	}
	items = append(items, "COUNT(*) AS cnt")
	join := "JOIN"
	if rng.Intn(4) == 0 {
		join = "LEFT JOIN"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT %s FROM %s ON %s", strings.Join(items, ", "), fmt.Sprintf(from, join), on)
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, " WHERE %s", where(rng))
	}
	fmt.Fprintf(&sb, " GROUP BY %s", strings.Join(keys, ", "))
	return sb.String()
}

// topNSelect is a plain selection ordered by lineitem's unique key
// (l_orderkey, l_linenumber), so the LIMIT cut is deterministic under any
// block routing.
func topNSelect(rng *rand.Rand) string {
	extra := lineitemAggCols[rng.Intn(len(lineitemAggCols))].name
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT l_orderkey, l_linenumber, %s FROM lineitem", extra)
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, " WHERE %s", lineitemWhere(rng))
	}
	desc := ""
	if rng.Intn(2) == 0 {
		desc = " DESC"
	}
	fmt.Fprintf(&sb, " ORDER BY l_orderkey%s, l_linenumber%s LIMIT %d",
		desc, desc, 10+rng.Intn(200))
	return sb.String()
}

// wideTopSelect is topNSelect over a wide row that keeps thousands of rows:
// the bounded Sort that the spill sweep's budgets make spill.
func wideTopSelect(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("SELECT l_orderkey, l_linenumber, l_partkey, l_quantity, l_extendedprice, l_discount, " +
		"l_shipdate, l_shipmode, l_shipinstruct, l_comment FROM lineitem")
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, " WHERE %s", lineitemWhere(rng))
	}
	desc := ""
	if rng.Intn(2) == 0 {
		desc = " DESC"
	}
	fmt.Fprintf(&sb, " ORDER BY l_orderkey%s, l_linenumber%s LIMIT %d", desc, desc, 2000+rng.Intn(3000))
	return sb.String()
}

// flightsSelect is a filtered selection over flights, compared as a
// multiset. It reads no sorted column unless the draw picks one, so its
// parallel plan is an Exchange that may route blocks in completion order.
func flightsSelect(rng *rand.Rand) string {
	cols := pickCols(rng, flightsAggCols, 1+rng.Intn(3))
	return fmt.Sprintf("SELECT %s FROM flights WHERE %s", strings.Join(cols, ", "), flightsWhere(rng))
}

// pickCols draws n distinct column names (order preserved).
func pickCols(rng *rand.Rand, cols []colDef, n int) []string {
	if n > len(cols) {
		n = len(cols)
	}
	idx := rng.Perm(len(cols))[:n]
	sortInts(idx)
	out := make([]string, n)
	for i, j := range idx {
		out[i] = cols[j].name
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
