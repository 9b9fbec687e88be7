package difftest

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"tde"
	"tde/internal/plan"
)

// This file is the dirty-equals-compacted sweep: every random query runs
// over a database carrying seeded write overlays — across the worker
// matrix, with encoded execution on and off — and must answer exactly as
// a reference database does, and so must the same database once Compact
// has folded the overlays into its base tables. The reference shares no
// code with the overlay: the overlay's effect is applied in Go to the
// generated text rows, and the result imported as a clean table. Over
// the overlays, scans keep the base encodings and splice the inserted
// rows into them (extended heaps and dictionaries, runs shrunk by
// deletions); Compact reads through those same scans, so only the
// reference can catch a wrong surviving row or a wrongly resolved tail.

// DirtyReport extends Report with coverage counters over the dirty runs.
type DirtyReport struct {
	Report
	// DirectHits counts dirty variant queries whose aggregate grouped
	// directly; RunHits those whose scan emitted runs; IndexHits those
	// whose plan took the index rewrite, a scan of the IndexTable's
	// ranges. Zero means the overlays knocked that path out and the sweep
	// proved little about it.
	DirectHits, RunHits, IndexHits int
}

// BuildDirtyDatabase builds the encoded sweep's corpus and dirties it
// through the write path with dirtyOverlay's statements, drawn from seed.
// ref is the reference: the same corpus with the overlay applied to the
// generated text before import.
func BuildDirtyDatabase(sf float64, flightRows int, seed int64) (db, ref *tde.Database, err error) {
	db, err = BuildEncodedDatabase(sf, flightRows, seed)
	if err != nil {
		return nil, nil, err
	}
	ops := dirtyOverlay(rand.New(rand.NewSource(seed)))
	schemas := map[string][]tde.ColumnInfo{}
	for _, op := range ops {
		if schemas[op.table] == nil {
			if schemas[op.table], err = db.Columns(op.table); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, op := range ops {
		if _, err := db.Exec(op.sql); err != nil {
			return nil, nil, fmt.Errorf("difftest: %s: %w", op.sql, err)
		}
	}
	ref, err = buildEncodedDatabase(sf, flightRows, seed, func(rdb *tde.Database, table string, data []byte, opt tde.ImportOptions) error {
		cols := schemas[table]
		if cols == nil {
			return rdb.ImportCSV(table, data, opt)
		}
		t, err := parseText(data, cols, opt)
		if err != nil {
			return fmt.Errorf("difftest: reference %s: %w", table, err)
		}
		for _, op := range ops {
			if op.table == table {
				op.apply(t)
			}
		}
		opt.Schema = nil
		for _, c := range cols {
			opt.Schema = append(opt.Schema, c.Name+":"+c.Type)
		}
		opt.HeaderSet, opt.HasHeader = true, t.header != ""
		return rdb.ImportCSV(table, t.render(), opt)
	})
	return db, ref, err
}

// textTable is a generated table's text as rows of cells ("" is NULL).
type textTable struct {
	cols   map[string]int
	rows   [][]string
	header string // the header line, "" when the text has none
	delim  string
	trail  bool // every row ends in the delimiter, as TPC-H .tbl rows do
}

func parseText(data []byte, cols []tde.ColumnInfo, opt tde.ImportOptions) (*textTable, error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	t := &textTable{cols: map[string]int{}, delim: ","}
	for i, c := range cols {
		t.cols[c.Name] = i
	}
	if strings.Contains(lines[0], "|") {
		t.delim, t.trail = "|", strings.HasSuffix(lines[0], "|")
	}
	if opt.HeaderSet && opt.HasHeader || !opt.HeaderSet && strings.HasPrefix(lines[0], cols[0].Name+t.delim) {
		t.header, lines = lines[0], lines[1:]
	}
	for _, l := range lines {
		if t.trail {
			l = strings.TrimSuffix(l, t.delim)
		}
		row := strings.Split(l, t.delim)
		if len(row) != len(cols) {
			return nil, fmt.Errorf("row %q has %d cells, want %d", l, len(row), len(cols))
		}
		t.rows = append(t.rows, row)
	}
	return t, nil
}

func (t *textTable) render() []byte {
	var b strings.Builder
	if t.header != "" {
		b.WriteString(t.header + "\n")
	}
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, t.delim))
		if t.trail {
			b.WriteString(t.delim)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// overlayOp is one overlay statement and its effect on the table's text
// rows, which the reference applies.
type overlayOp struct {
	sql, table string
	apply      func(t *textTable)
}

// cellOf renders a SQL literal as its text cell.
func cellOf(lit string) string {
	if lit == "NULL" {
		return ""
	}
	return strings.Trim(strings.TrimPrefix(lit, "DATE "), "'")
}

// insertOp inserts one row: lits are the SQL literals of cols, every
// other column is NULL.
func insertOp(table string, cols, lits []string) overlayOp {
	return overlayOp{
		sql:   fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", table, strings.Join(cols, ", "), strings.Join(lits, ", ")),
		table: table,
		apply: func(t *textTable) {
			row := make([]string, len(t.cols))
			for i, c := range cols {
				row[t.cols[c]] = cellOf(lits[i])
			}
			t.rows = append(t.rows, row)
		},
	}
}

// rowPred is a WHERE clause over a row's cells; a NULL cell satisfies no
// comparison.
type rowPred func(cell func(col string) string) bool

func intWhere(col string, ok func(int64) bool) rowPred {
	return func(cell func(string) string) bool {
		n, err := strconv.ParseInt(cell(col), 10, 64)
		return err == nil && ok(n)
	}
}

func dateWhere(col string, ok func(string) bool) rowPred {
	return func(cell func(string) string) bool { d := cell(col); return d != "" && ok(d) }
}

// whereOp deletes the rows where pred holds or, given col, lit pairs in
// set, updates them.
func whereOp(table, where string, pred rowPred, set ...string) overlayOp {
	sql := "DELETE FROM " + table
	if len(set) > 0 {
		var sets []string
		for i := 0; i < len(set); i += 2 {
			sets = append(sets, set[i]+" = "+set[i+1])
		}
		sql = "UPDATE " + table + " SET " + strings.Join(sets, ", ")
	}
	return overlayOp{sql: sql + " WHERE " + where, table: table, apply: func(t *textTable) {
		kept := t.rows[:0]
		for _, row := range t.rows {
			if !pred(func(c string) string { return row[t.cols[c]] }) {
				kept = append(kept, row)
				continue
			}
			for i := 0; i < len(set); i += 2 {
				row[t.cols[set[i]]] = cellOf(set[i+1])
			}
			if len(set) > 0 {
				kept = append(kept, row)
			}
		}
		t.rows = kept
	}}
}

// dirtyOverlay draws the overlay: inserted rows holding strings and
// dictionary values the base lacks, NULLs (every column an INSERT
// omits) and scalars past the base range; deletions scattered inside
// runs, covering whole runs and whole blocks; and updates.
func dirtyOverlay(rng *rand.Rand) []overlayOp {
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	var out []overlayOp
	for i := 0; i < 40; i++ {
		out = append(out, insertOp("lineitem", []string{"l_orderkey", "l_linenumber", "l_quantity",
			"l_extendedprice", "l_discount", "l_returnflag", "l_shipmode", "l_shipdate"}, []string{
			fmt.Sprint(9_000_000 + i), fmt.Sprint(1 + rng.Intn(9)), pick("77", "99", fmt.Sprint(1+rng.Intn(50))),
			fmt.Sprintf("%d.5", rng.Intn(200_000)), pick("0.5", "0.05"), "'" + pick("X", "A", "N", "R") + "'",
			"'" + pick("ZZMODE", "AIR", "RAIL", "TRUCK") + "'",
			fmt.Sprintf("DATE '%s-0%d-1%d'", pick("1990", "1995", "2030"), 1+rng.Intn(9), rng.Intn(10))}))
		out = append(out, insertOp("flights", []string{"FlightDate", "Carrier", "FlightNum", "Origin", "Dest",
			"DepDelay", "ArrDelay", "Distance"}, []string{
			fmt.Sprintf("DATE '%s-01-0%d'", pick("2030", "1995"), 1+rng.Intn(9)), "'" + pick("ZZ", "AA", "DL") + "'",
			fmt.Sprint(1_000_000 + i), "'" + pick("QQQ", "ATL", "LAX") + "'", "'" + pick("ZZY", "ORD") + "'",
			fmt.Sprint(rng.Intn(20_000) - 10_000), pick("NULL", "9999", "5"), pick("99999", "500", "NULL")}))
	}
	for _, lits := range [][]string{{"DATE '2030-01-01'", "3"}, {"NULL", "1"}, {"DATE '1995-01-01'", "99"}} {
		out = append(out, insertOp("events", []string{"e_date", "e_v"}, lits))
	}
	eq := func(n int64) func(int64) bool { return func(x int64) bool { return x == n } }
	lt := func(n int64) func(int64) bool { return func(x int64) bool { return x < n } }
	maxKey, qty, arr, ev := int64(200+rng.Intn(200)), int64(1+rng.Intn(50)), int64(rng.Intn(30)), int64(rng.Intn(13))
	day := fmt.Sprintf("1995-0%d-%02d", 2+rng.Intn(7), 5+rng.Intn(3)*7)
	from, to := fmt.Sprintf("1996-0%d-01", 2+rng.Intn(3)), fmt.Sprintf("1996-0%d-01", 6+rng.Intn(3))
	maxFlight, line := int64(20+rng.Intn(50)), int64(1+rng.Intn(7))
	return append(out,
		whereOp("lineitem", fmt.Sprintf("l_orderkey < %d", maxKey), intWhere("l_orderkey", lt(maxKey))),
		whereOp("lineitem", fmt.Sprintf("l_quantity = %d", qty), intWhere("l_quantity", eq(qty))),
		whereOp("flights", fmt.Sprintf("ArrDelay = %d", arr), intWhere("ArrDelay", eq(arr))),
		whereOp("events", fmt.Sprintf("e_v = %d", ev), intWhere("e_v", eq(ev))),
		whereOp("events", fmt.Sprintf("e_date = DATE '%s'", day), dateWhere("e_date", func(d string) bool { return d == day })),
		whereOp("events", fmt.Sprintf("e_date >= DATE '%s' AND e_date < DATE '%s'", from, to),
			dateWhere("e_date", func(d string) bool { return d >= from && d < to })),
		whereOp("flights", fmt.Sprintf("FlightNum < %d", maxFlight), intWhere("FlightNum", lt(maxFlight)),
			"Carrier", "'ZZ'"),
		whereOp("lineitem", fmt.Sprintf("l_linenumber = %d", line), intWhere("l_linenumber", eq(line)),
			"l_shipmode", "'NEWMODE'", "l_quantity", "88"),
		whereOp("events", "e_v = 4 AND e_date < DATE '1995-06-01'", func(cell func(string) string) bool {
			return intWhere("e_v", eq(4))(cell) && dateWhere("e_date", func(d string) bool { return d < "1995-06-01" })(cell)
		}, "e_v", "100"),
	)
}

// RunDirty runs the encoded sweep's fixed seeds and cfg.Queries random
// queries over the dirty db under every worker count of cfg, encoded
// execution on and off, and compares each answer with ref's serial one;
// then it compacts db and compares its serial answers with ref's too. A
// mismatch names the seed and the query's index, which replay it.
func RunDirty(db, ref *tde.Database, cfg Config) (*DirtyReport, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &DirtyReport{}
	var sqls []string
	var want [][]string
	for i := 0; i < len(encodedSeeds)+cfg.Queries; i++ {
		sql := randomQuery(rng)
		if i < len(encodedSeeds) {
			sql = encodedSeeds[i]
		}
		res, err := ref.QueryWithOptions(sql, plan.Options{ParallelWorkers: -1})
		if err != nil {
			return rep, fmt.Errorf("difftest: seed %d query %d on the reference: %w\n  query: %s", cfg.Seed, i, err, sql)
		}
		rep.Queries++
		sqls, want = append(sqls, sql), append(want, canonicalRows(res.Rows))
		for _, w := range cfg.Workers {
			for _, off := range []bool{false, true} {
				opt := plan.Options{ParallelWorkers: w, NoEncodedExec: off}
				rep.Comparisons++
				res, err := db.QueryWithOptions(sql, opt)
				if err != nil {
					rep.Mismatches = append(rep.Mismatches, Mismatch{SQL: sql, Opt: opt,
						Detail: fmt.Sprintf("seed %d query %d encoded=%v: dirty query error: %v", cfg.Seed, i, !off, err)})
					continue
				}
				for _, op := range res.Stats().Operators {
					if strings.HasPrefix(op.Routine, "direct") {
						rep.DirectHits++
					}
					if strings.Contains(op.Routine, "(runs)") {
						rep.RunHits++
					}
					if strings.Contains(op.Routine, "+ranges(") {
						rep.IndexHits++
					}
				}
				if d := diffRows(want[i], canonicalRows(res.Rows)); d != "" {
					rep.Mismatches = append(rep.Mismatches, Mismatch{SQL: sql, Opt: opt,
						Detail: fmt.Sprintf("seed %d query %d encoded=%v: dirty differs from the reference (serial = reference, parallel = dirty): %s",
							cfg.Seed, i, !off, d)})
				}
			}
		}
	}
	if err := db.Compact(); err != nil {
		return rep, fmt.Errorf("difftest: compact: %w", err)
	}
	for i, sql := range sqls {
		opt := plan.Options{ParallelWorkers: -1}
		rep.Comparisons++
		res, err := db.QueryWithOptions(sql, opt)
		if err != nil {
			return rep, fmt.Errorf("difftest: seed %d query %d after Compact: %w\n  query: %s", cfg.Seed, i, err, sql)
		}
		if d := diffRows(want[i], canonicalRows(res.Rows)); d != "" {
			rep.Mismatches = append(rep.Mismatches, Mismatch{SQL: sql, Opt: opt,
				Detail: fmt.Sprintf("seed %d query %d: compacted differs from the reference (serial = reference, parallel = compacted): %s",
					cfg.Seed, i, d)})
		}
	}
	return rep, nil
}
