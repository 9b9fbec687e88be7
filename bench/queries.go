package main

import (
	"fmt"
	"math/rand"
	"time"
)

// The eight dashboard query classes. Each leans on a different part of
// the engine: run-length and dictionary encodings, zone maps, the two
// TPC-H scan-and-aggregate shapes, a join, and a result wide enough that
// building and serialising it matters.
const (
	qRLERuns = iota
	qDictFilter
	qTokenGroup
	qZoneRange
	qTPCHQ1
	qTPCHQ6
	qJoin
	qWideGroup
	nClasses
)

var classNames = [nClasses]string{"q_rle_runs", "q_dict_filter", "q_token_group", "q_zone_range",
	"q_tpch_q1", "q_tpch_q6", "q_join", "q_wide_group"}

// variants is how many literal choices a parametrised class rotates through.
const variants = 4

// query is one SQL text with the answer the oracle expects for it.
type query struct {
	class int
	sql   string
	eval  func(o *oracle) *expected
	want  *expected
	// ignore recognises groups that only the dashboard_dirty writer's
	// marker rows form; nil when markers cannot show in the result.
	ignore func(row []string) bool
}

// Marker rows carry values no generated row has, so every checked answer
// stays what the oracle computed while the writer commits beside the reader.
const (
	markerDate    = "2030-01-01"
	markerCarrier = "ZZ"
)

// markerFlightNum and markerOrderKey identify marker n. Generated flight
// numbers stay below 7001; generated order keys are 1..8 modulo 32, so a
// marker line item joins no order.
func markerFlightNum(n int) int { return 1_000_000 + n }
func markerOrderKey(n int) int  { return 32*n + 20 }

// buildQueries draws every class's literals from the seed. origins is the
// flights Origin domain.
func buildQueries(seed int64, origins []string) [nClasses][]*query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var qs [nClasses][]*query
	add := func(q *query) { qs[q.class] = append(qs[q.class], q) }

	add(&query{class: qRLERuns,
		sql: "SELECT YEAR(FlightDate) AS y, COUNT(*), MIN(FlightDate), MAX(FlightDate) FROM flights GROUP BY y ORDER BY y",
		eval: func(o *oracle) *expected {
			type acc struct {
				n           int
				first, last string
			}
			m := map[string]*acc{}
			for _, f := range o.flights {
				a := m[f.date[:4]]
				if a == nil {
					a = &acc{first: f.date, last: f.date}
					m[f.date[:4]] = a
				}
				a.n++
				a.first, a.last = min(a.first, f.date), max(a.last, f.date)
			}
			e := newExpected(1)
			for y, a := range m {
				e.put([]string{y}, a.n, a.first, a.last)
			}
			return e
		},
		ignore: func(row []string) bool { return row[0] == markerDate[:4] }})

	for _, i := range rng.Perm(len(origins))[:min(variants, len(origins))] {
		origin := origins[i]
		add(&query{class: qDictFilter,
			sql: fmt.Sprintf("SELECT COUNT(*) FROM flights WHERE Origin = '%s'", origin),
			eval: func(o *oracle) *expected {
				n := 0
				for _, f := range o.flights {
					if f.origin == origin {
						n++
					}
				}
				e := newExpected(0)
				e.put(nil, n)
				return e
			}})
	}

	add(&query{class: qTokenGroup,
		sql: "SELECT Carrier, AVG(ArrDelay), COUNT(*) FROM flights GROUP BY Carrier",
		eval: func(o *oracle) *expected {
			type acc struct{ sum, n int }
			m := map[string]*acc{}
			for _, f := range o.flights {
				a := m[f.carrier]
				if a == nil {
					a = &acc{}
					m[f.carrier] = a
				}
				a.sum += f.arrDelay
				a.n++
			}
			e := newExpected(1)
			for c, a := range m {
				e.put([]string{c}, float64(a.sum)/float64(a.n), a.n)
			}
			return e
		},
		ignore: func(row []string) bool { return row[0] == markerCarrier }})

	for v := 0; v < variants; v++ {
		first := time.Date(2004+rng.Intn(10), time.Month(1+rng.Intn(12)), 1, 0, 0, 0, 0, time.UTC)
		lo, hi := first.Format("2006-01-02"), first.AddDate(0, 1, 0).Format("2006-01-02")
		add(&query{class: qZoneRange,
			sql: fmt.Sprintf("SELECT COUNT(*), SUM(DepDelay) FROM flights WHERE FlightDate >= DATE '%s' AND FlightDate < DATE '%s'", lo, hi),
			eval: func(o *oracle) *expected {
				n, sum := 0, 0
				for _, f := range o.flights {
					if f.date >= lo && f.date < hi {
						n++
						sum += f.depDelay
					}
				}
				e := newExpected(0)
				e.put(nil, n, sum)
				return e
			}})
	}

	for v := 0; v < variants; v++ {
		cutoff := time.Date(1998, 12, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, -(60 + rng.Intn(61))).Format("2006-01-02")
		add(&query{class: qTPCHQ1,
			sql: fmt.Sprintf("SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), AVG(l_discount), COUNT(*) "+
				"FROM lineitem WHERE l_shipdate <= DATE '%s' GROUP BY l_returnflag, l_linestatus", cutoff),
			eval: func(o *oracle) *expected {
				type acc struct {
					qty, n      int
					price, disc float64
				}
				m := map[[2]string]*acc{}
				for _, l := range o.lines {
					if l.shipdate > cutoff {
						continue
					}
					k := [2]string{l.returnflag, l.linestatus}
					a := m[k]
					if a == nil {
						a = &acc{}
						m[k] = a
					}
					a.qty += l.quantity
					a.price += l.price
					a.disc += l.discount
					a.n++
				}
				e := newExpected(2)
				for k, a := range m {
					e.put(k[:], a.qty, a.price, a.disc/float64(a.n), a.n)
				}
				return e
			}})
	}

	for v := 0; v < variants; v++ {
		year := 1993 + rng.Intn(5)
		lo, hi := fmt.Sprintf("%d-01-01", year), fmt.Sprintf("%d-01-01", year+1)
		// The discount bounds sit between the two-decimal values the data
		// holds, so the comparison never hinges on how a parser rounds 0.05.
		mid := float64(2+rng.Intn(8)) / 100
		dlo, dhi := mid-0.015, mid+0.015
		qty := 24 + rng.Intn(2)
		add(&query{class: qTPCHQ6,
			sql: fmt.Sprintf("SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s' "+
				"AND l_discount >= %.3f AND l_discount <= %.3f AND l_quantity < %d", lo, hi, dlo, dhi, qty),
			eval: func(o *oracle) *expected {
				sum := 0.0
				for _, l := range o.lines {
					if l.shipdate >= lo && l.shipdate < hi && l.discount >= dlo && l.discount <= dhi && l.quantity < qty {
						sum += l.price * l.discount
					}
				}
				e := newExpected(0)
				e.put(nil, sum)
				return e
			}})
	}

	add(&query{class: qJoin,
		sql: "SELECT o_orderpriority, COUNT(*), SUM(l_quantity) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority",
		eval: func(o *oracle) *expected {
			type acc struct{ n, qty int }
			m := map[string]*acc{}
			for _, l := range o.lines {
				p, ok := o.priority[l.orderkey]
				if !ok {
					continue
				}
				a := m[p]
				if a == nil {
					a = &acc{}
					m[p] = a
				}
				a.n++
				a.qty += l.quantity
			}
			e := newExpected(1)
			for p, a := range m {
				e.put([]string{p}, a.n, a.qty)
			}
			return e
		}})

	add(&query{class: qWideGroup,
		sql: "SELECT Origin, Dest, Carrier, COUNT(*), SUM(Distance) FROM flights GROUP BY Origin, Dest, Carrier",
		eval: func(o *oracle) *expected {
			type acc struct{ n, dist int }
			m := map[[3]string]*acc{}
			for _, f := range o.flights {
				k := [3]string{f.origin, f.dest, f.carrier}
				a := m[k]
				if a == nil {
					a = &acc{}
					m[k] = a
				}
				a.n++
				a.dist += f.distance
			}
			e := newExpected(3)
			for k, a := range m {
				e.put(k[:], a.n, a.dist)
			}
			return e
		},
		ignore: func(row []string) bool { return row[2] == markerCarrier }})

	return qs
}

// answer fills in what the oracle expects for every query.
func answer(qs [nClasses][]*query, o *oracle) {
	for _, class := range qs {
		for _, q := range class {
			q.want = q.eval(o)
		}
	}
}
