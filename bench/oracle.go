package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// The oracle recomputes every expected answer with plain loops and maps
// over the generated text. It shares no code with the engine's parser,
// planner, expression evaluator or operators, so it does not share their
// bugs; it only has to be obviously right, not fast.

type flightRow struct {
	date, carrier, origin, dest             string
	flightNum, depDelay, arrDelay, distance int
}

type lineRow struct {
	orderkey, quantity               int
	price, discount                  float64
	returnflag, linestatus, shipdate string
}

type oracle struct {
	flights  []flightRow
	lines    []lineRow
	priority map[int]string // o_orderkey → o_orderpriority
}

// eachLine calls f with every non-empty line of text.
func eachLine(text []byte, f func(line string) error) error {
	for len(text) > 0 {
		i := bytes.IndexByte(text, '\n')
		if i < 0 {
			i = len(text)
		}
		if i > 0 {
			if err := f(string(text[:i])); err != nil {
				return err
			}
		}
		if i == len(text) {
			break
		}
		text = text[i+1:]
	}
	return nil
}

func countLines(text []byte) int { return bytes.Count(text, []byte("\n")) }

func newOracle(d *dataset) (*oracle, error) {
	o := &oracle{priority: map[int]string{}}
	var bad error
	num := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil && bad == nil {
			bad = err
		}
		return n
	}
	real := func(s string) float64 {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil && bad == nil {
			bad = err
		}
		return f
	}
	header := true
	_ = eachLine(d.flights, func(line string) error {
		if header {
			header = false
			return nil
		}
		f := strings.Split(line, ",")
		if len(f) != 11 {
			bad = fmt.Errorf("flights row has %d fields", len(f))
			return bad
		}
		o.flights = append(o.flights, flightRow{date: f[0], carrier: f[1], flightNum: num(f[2]),
			origin: f[4], dest: f[5], depDelay: num(f[7]), arrDelay: num(f[8]), distance: num(f[9])})
		return nil
	})
	_ = eachLine(d.lineitem, func(line string) error {
		f := strings.Split(line, "|")
		if len(f) < 16 {
			bad = fmt.Errorf("lineitem row has %d fields", len(f))
			return bad
		}
		o.lines = append(o.lines, lineRow{orderkey: num(f[0]), quantity: num(f[4]), price: real(f[5]),
			discount: real(f[6]), returnflag: f[8], linestatus: f[9], shipdate: f[10]})
		return nil
	})
	_ = eachLine(d.orders, func(line string) error {
		f := strings.Split(line, "|")
		if len(f) < 9 {
			bad = fmt.Errorf("orders row has %d fields", len(f))
			return bad
		}
		o.priority[num(f[0])] = f[5]
		return nil
	})
	return o, bad
}

// origins lists the distinct origin airports in order, the domain the
// q_dict_filter literals are drawn from.
func (o *oracle) origins() []string {
	seen := map[string]bool{}
	for i := range o.flights {
		seen[o.flights[i].origin] = true
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// cell is one expected result value: reals are compared with a relative
// tolerance (parallel partial sums add in a different order), everything
// else as the exact formatted string.
type cell struct {
	s    string
	f    float64
	real bool
}

// expected is a result set keyed by its leading key columns, so row order
// does not matter.
type expected struct {
	keys int
	rows map[string][]cell
}

func newExpected(keys int) *expected { return &expected{keys: keys, rows: map[string][]cell{}} }

func (e *expected) put(key []string, vals ...any) {
	cells := make([]cell, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			cells[i] = cell{s: strconv.Itoa(x)}
		case float64:
			cells[i] = cell{f: x, real: true}
		case string:
			cells[i] = cell{s: x}
		}
	}
	e.rows[strings.Join(key, "\x00")] = cells
}

const realTolerance = 1e-9

// check compares an engine result with the expected one. ignore, when set,
// drops rows of groups only the concurrent writer's marker rows can form.
func (e *expected) check(rows [][]string, ignore func(row []string) bool) error {
	seen := 0
	var key []byte // reused: q_wide_group checks ~40 k rows inside the window
	for _, row := range rows {
		if ignore != nil && ignore(row) {
			continue
		}
		if len(row) < e.keys {
			return fmt.Errorf("row has %d columns, want at least %d", len(row), e.keys)
		}
		key = key[:0]
		for i, k := range row[:e.keys] {
			if i > 0 {
				key = append(key, 0)
			}
			key = append(key, k...)
		}
		want, ok := e.rows[string(key)]
		if !ok {
			return fmt.Errorf("unexpected group %q", row[:e.keys])
		}
		if len(row)-e.keys != len(want) {
			return fmt.Errorf("group %q has %d values, want %d", row[:e.keys], len(row)-e.keys, len(want))
		}
		for i, w := range want {
			got := row[e.keys+i]
			if !w.real {
				if got != w.s {
					return fmt.Errorf("group %q value %d = %s, want %s", row[:e.keys], i, got, w.s)
				}
				continue
			}
			g, err := strconv.ParseFloat(got, 64)
			if err != nil || math.Abs(g-w.f) > realTolerance*math.Max(1, math.Abs(w.f)) {
				return fmt.Errorf("group %q value %d = %s, want %v", row[:e.keys], i, got, w.f)
			}
		}
		seen++
	}
	if seen != len(e.rows) {
		return fmt.Errorf("%d groups, want %d", seen, len(e.rows))
	}
	return nil
}

// dml is one write statement with the row count the oracle says it affects.
type dml struct {
	sql  string
	rows int
}

func flightValues(date, carrier string, num int, origin, dest string, dep, arr, dist int) string {
	return fmt.Sprintf("(DATE '%s', '%s', %d, 'N10000', '%s', '%s', 1200, %d, %d, %d, FALSE)",
		date, carrier, num, origin, dest, dep, arr, dist)
}

func lineValues(okey, lineno, qty int, price, disc, flag, status, ship, comment string) string {
	return fmt.Sprintf("(%d, 1, 1, %d, %d, %s, %s, 0.02, '%s', '%s', DATE '%s', DATE '%s', DATE '%s', 'NONE', 'MAIL', '%s')",
		okey, lineno, qty, price, disc, flag, status, ship, ship, ship, comment)
}

// buildOverlay draws dashboard_dirty's set-up overlay from rng — inserts,
// updates and deletes touching about share of the flights and lineitem
// rows — and applies each statement to the oracle's rows as it goes, so
// the expected answers and affected-row counts describe the dirty tables.
func (o *oracle) buildOverlay(rng *rand.Rand, share float64) []dml {
	var out []dml
	perKind := func(rows int) int {
		n := int(share * float64(rows) / 3)
		if n < 4 {
			n = 4
		}
		return n
	}

	n := perKind(len(o.flights))
	for done := 0; done < n; {
		var vals []string
		for k := 0; k < 4 && done < n; k, done = k+1, done+1 {
			a, b, c := o.flights[rng.Intn(len(o.flights))], o.flights[rng.Intn(len(o.flights))], o.flights[rng.Intn(len(o.flights))]
			row := flightRow{date: a.date, carrier: a.carrier, flightNum: 1 + rng.Intn(7000), origin: b.origin,
				dest: c.dest, depDelay: rng.Intn(60), arrDelay: rng.Intn(60), distance: 100 + rng.Intn(2600)}
			o.flights = append(o.flights, row)
			vals = append(vals, flightValues(row.date, row.carrier, row.flightNum, row.origin, row.dest,
				row.depDelay, row.arrDelay, row.distance))
		}
		out = append(out, dml{"INSERT INTO flights VALUES " + strings.Join(vals, ", "), len(vals)})
	}
	for done, tries := 0, 0; done < n && tries < 100; tries++ {
		day := o.flights[rng.Intn(len(o.flights))].date
		hit := 0
		for i := range o.flights {
			if f := &o.flights[i]; f.date == day && f.depDelay < 0 {
				f.depDelay += 7
				hit++
			}
		}
		if hit > 0 {
			out = append(out, dml{fmt.Sprintf("UPDATE flights SET DepDelay = DepDelay + 7 WHERE FlightDate = DATE '%s' AND DepDelay < 0", day), hit})
			done += hit
		}
	}
	for done, tries := 0, 0; done < n && tries < 100; tries++ {
		day := o.flights[rng.Intn(len(o.flights))].date
		kept := o.flights[:0]
		for _, f := range o.flights {
			if f.date != day || f.arrDelay <= 30 {
				kept = append(kept, f)
			}
		}
		if hit := len(o.flights) - len(kept); hit > 0 {
			out = append(out, dml{fmt.Sprintf("DELETE FROM flights WHERE FlightDate = DATE '%s' AND ArrDelay > 30", day), hit})
			done += hit
		}
		o.flights = kept
	}

	n = perKind(len(o.lines))
	for done := 0; done < n; {
		var vals []string
		for k := 0; k < 4 && done < n; k, done = k+1, done+1 {
			a, b := o.lines[rng.Intn(len(o.lines))], o.lines[rng.Intn(len(o.lines))]
			cents, disc := 100000+rng.Intn(9000000), rng.Intn(11)
			price, discount := fmt.Sprintf("%d.%02d", cents/100, cents%100), fmt.Sprintf("0.%02d", disc)
			row := lineRow{orderkey: a.orderkey, quantity: 1 + rng.Intn(50),
				returnflag: b.returnflag, linestatus: b.linestatus, shipdate: b.shipdate}
			// The engine parses the literals; the oracle must see the same values.
			row.price, _ = strconv.ParseFloat(price, 64)
			row.discount, _ = strconv.ParseFloat(discount, 64)
			o.lines = append(o.lines, row)
			vals = append(vals, lineValues(row.orderkey, 8+k, row.quantity, price, discount,
				row.returnflag, row.linestatus, row.shipdate, "overlay row"))
		}
		out = append(out, dml{"INSERT INTO lineitem VALUES " + strings.Join(vals, ", "), len(vals)})
	}
	keyRange := func() (lo, hi int) {
		lo = o.lines[rng.Intn(len(o.lines))].orderkey
		return lo, lo + 32
	}
	for done, tries := 0, 0; done < n && tries < 100; tries++ {
		lo, hi := keyRange()
		hit := 0
		for i := range o.lines {
			if l := &o.lines[i]; l.orderkey >= lo && l.orderkey < hi {
				l.quantity++
				hit++
			}
		}
		out = append(out, dml{fmt.Sprintf("UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey >= %d AND l_orderkey < %d", lo, hi), hit})
		done += hit
	}
	for done, tries := 0, 0; done < n && tries < 100; tries++ {
		lo, hi := keyRange()
		kept := o.lines[:0]
		for _, l := range o.lines {
			if l.orderkey < lo || l.orderkey >= hi {
				kept = append(kept, l)
			}
		}
		out = append(out, dml{fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey >= %d AND l_orderkey < %d", lo, hi), len(o.lines) - len(kept)})
		done += len(o.lines) - len(kept)
		o.lines = kept
	}
	return out
}
