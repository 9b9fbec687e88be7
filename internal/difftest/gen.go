package difftest

import (
	"fmt"
	"math/rand"
	"strings"
)

// The generator draws from a closed grammar: single-table aggregations
// over lineitem and flights, lineitem-orders and -modes joins, and key-ordered
// top-n selections. Every query is deterministic given the rng, and any
// ORDER BY ... LIMIT ends in a total order (a unique key as tiebreaker)
// so the cut is the same no matter which worker produced each row.

type colDef struct {
	name string
	kind byte // 'i' int, 'r' real, 's' string
}

var lineitemGroupCols = []colDef{
	{"l_returnflag", 's'}, {"l_linestatus", 's'}, {"l_shipmode", 's'},
	{"l_linenumber", 'i'}, {"l_shipinstruct", 's'},
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
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // lineitem aggregation
		return groupQuery(rng, "lineitem", lineitemGroupCols, lineitemAggCols, lineitemWhere)
	case 4, 5: // flights aggregation
		return groupQuery(rng, "flights", flightsGroupCols, flightsAggCols, flightsWhere)
	case 6, 7, 8: // lineitem x orders join
		return joinQuery(rng)
	default: // key-ordered top-n selection
		return topNSelect(rng)
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
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("l_quantity > %d", 1+rng.Intn(45))
	case 1:
		return fmt.Sprintf("l_discount < %.2f", 0.01+0.01*float64(rng.Intn(9)))
	case 2:
		return fmt.Sprintf("l_shipdate >= DATE '%d-01-01'", 1993+rng.Intn(5))
	case 3:
		return fmt.Sprintf("l_shipmode = '%s'", shipmodes[rng.Intn(len(shipmodes))])
	default:
		return fmt.Sprintf("l_returnflag = '%s'", returnflags[rng.Intn(len(returnflags))])
	}
}

func flightsWhere(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("Distance > %d", 200+100*rng.Intn(20))
	case 1:
		return fmt.Sprintf("ArrDelay > %d", rng.Intn(60))
	case 2:
		return fmt.Sprintf("Carrier = '%s'", flightCarriers[rng.Intn(len(flightCarriers))])
	default:
		return fmt.Sprintf("Origin = '%s'", flightAirports[rng.Intn(len(flightAirports))])
	}
}

func joinWhere(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("o_totalprice > %d", 10000+1000*rng.Intn(100))
	case 1:
		return fmt.Sprintf("l_quantity > %d", 1+rng.Intn(45))
	default:
		return fmt.Sprintf("o_orderstatus = '%s'", []string{"F", "O", "P"}[rng.Intn(3)])
	}
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

func joinQuery(rng *rand.Rand) string {
	dim, on, groups, aggs, where := "orders", "l_orderkey = o_orderkey", joinGroupCols, joinAggCols, joinWhere
	if rng.Intn(3) == 0 {
		dim, on, groups, aggs, where = "modes", "l_shipmode = m_mode", modesGroupCols, modesAggCols, lineitemWhere
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
	fmt.Fprintf(&sb, "SELECT %s FROM lineitem %s %s ON %s", strings.Join(items, ", "), join, dim, on)
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
