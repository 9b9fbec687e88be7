package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"tde"
	"tde/internal/plan"
)

// This file is the zone-skipping differential sweep: every query runs
// once with zone-map pruning forced off (the oracle decodes every block)
// and once per variant with it forced on. Skipping a block a predicate
// could match is a silent wrong answer, so any mismatch is a bug by
// construction. The database is deliberately hostile to pruning: tables
// carry dirty write overlays (inserted rows that fall inside ranges the
// base blocks would prune, deleted base rows) and NULL-heavy columns,
// including an all-NULL one — the stale-stats hazards this sweep guards.

// SkippingReport extends Report with a pruning-coverage counter.
type SkippingReport struct {
	Report
	// SkipHits counts variant queries in which at least one scan actually
	// skipped a block. Zero means pruning never engaged and the sweep
	// proved nothing.
	SkipHits int
}

func usedSkipping(res *tde.Result) bool {
	for _, op := range res.Stats().Operators {
		if op.BlocksSkipped > 0 {
			return true
		}
	}
	return false
}

// BuildSkippingDatabase builds the standard differential corpus plus a
// sorted, NULL-heavy "sensor" table, dictionary-compresses token
// columns, then dirties the tables through the write path so scans run
// against delta overlays whose insertions may land inside block ranges
// the base zone maps would prune.
func BuildSkippingDatabase(sf float64, flightRows, sensorRows int, seed int64) (*tde.Database, error) {
	db, err := BuildDatabase(sf, flightRows, seed)
	if err != nil {
		return nil, err
	}
	for _, tc := range [][2]string{
		{"lineitem", "l_shipmode"},
		{"lineitem", "l_returnflag"},
	} {
		// Best effort, as in the encoded sweep: token-range pruning just
		// stays untested on a column that would not convert.
		_ = db.CompressColumn(tc[0], tc[1])
	}

	// The sensor table: id sorted and dense (prunable by construction),
	// v sorted with plateaus, reading NULL for the first third of the
	// rows (NULL-heavy blocks), dead all-NULL (rangeless zone entries
	// end to end).
	var sb strings.Builder
	sb.WriteString("id,v,reading,dead\n")
	for i := 0; i < sensorRows; i++ {
		reading := ""
		if i >= sensorRows/3 {
			reading = fmt.Sprint(i % 250)
		}
		fmt.Fprintf(&sb, "%d,%d,%s,\n", i, (i/50)*10, reading)
	}
	opt := tde.DefaultImportOptions()
	opt.Schema = []string{"id:int", "v:int", "reading:int", "dead:int"}
	if err := db.ImportCSV("sensor", []byte(sb.String()), opt); err != nil {
		return nil, fmt.Errorf("difftest: import sensor: %w", err)
	}

	// Dirty the tables: overlay insertions whose values land inside the
	// base blocks' pruned ranges (and NULLs in sargable columns), plus
	// base deletions, so the scan's never-skip-insertions contract is
	// what keeps the answers right.
	rng := rand.New(rand.NewSource(seed + 99))
	for i := 0; i < 40; i++ {
		if _, err := db.Exec(fmt.Sprintf(
			"INSERT INTO sensor (id, v) VALUES (%d, %d)",
			sensorRows+i, rng.Intn(sensorRows/50*10))); err != nil {
			return nil, fmt.Errorf("difftest: dirty sensor: %w", err)
		}
	}
	if _, err := db.Exec(fmt.Sprintf(
		"DELETE FROM sensor WHERE id >= %d AND id < %d", sensorRows/4, sensorRows/4+sensorRows/10)); err != nil {
		return nil, fmt.Errorf("difftest: delete sensor: %w", err)
	}
	for i := 0; i < 25; i++ {
		if _, err := db.Exec(fmt.Sprintf(
			"INSERT INTO lineitem (l_orderkey, l_linenumber, l_quantity, l_shipdate) "+
				"VALUES (%d, %d, %d, DATE '%d-06-%02d')",
			1000000+i, 1+i%7, 1+rng.Intn(50), 1993+rng.Intn(5), 1+rng.Intn(28))); err != nil {
			return nil, fmt.Errorf("difftest: dirty lineitem: %w", err)
		}
	}
	if _, err := db.Exec("DELETE FROM lineitem WHERE l_orderkey < 40"); err != nil {
		return nil, fmt.Errorf("difftest: delete lineitem: %w", err)
	}
	return db, nil
}

// sensorQuery draws a query aimed at the pruning hazards: range
// predicates over the sorted columns, NULL predicates over the
// NULL-heavy and all-NULL ones.
func sensorQuery(rng *rand.Rand, sensorRows int) string {
	switch rng.Intn(6) {
	case 0:
		lo := rng.Intn(sensorRows)
		return fmt.Sprintf("SELECT COUNT(*) AS c, SUM(v) AS s FROM sensor WHERE id >= %d AND id < %d",
			lo, lo+1+rng.Intn(sensorRows/4))
	case 1:
		lo := (rng.Intn(sensorRows/50) + 1) * 10
		return fmt.Sprintf("SELECT COUNT(*) AS c, MIN(id) AS m FROM sensor WHERE v = %d", lo)
	case 2:
		return fmt.Sprintf("SELECT COUNT(*) AS c FROM sensor WHERE reading IS NULL AND id > %d",
			rng.Intn(sensorRows))
	case 3:
		return fmt.Sprintf("SELECT COUNT(*) AS c, SUM(reading) AS s FROM sensor WHERE reading IS NOT NULL AND reading < %d",
			1+rng.Intn(250))
	case 4:
		// The all-NULL column: every comparison is false, every block's
		// zone entry rangeless; a pruner that treats "no range" as "skip
		// freely" or as "cannot possibly match IS NULL" breaks here.
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("SELECT COUNT(*) AS c FROM sensor WHERE dead > %d", rng.Intn(100))
		}
		return fmt.Sprintf("SELECT COUNT(*) AS c FROM sensor WHERE dead IS NULL AND id < %d",
			1+rng.Intn(sensorRows))
	default:
		lo := rng.Intn(sensorRows)
		return fmt.Sprintf("SELECT id, v FROM sensor WHERE id >= %d AND id <= %d ORDER BY id LIMIT %d",
			lo, lo+rng.Intn(sensorRows/2), 5+rng.Intn(50))
	}
}

// RunSkipping executes cfg.Queries queries (alternating the standard
// grammar with sensor-table pruning probes), comparing a skipping-off
// serial oracle to skipping-forced variants across cfg.Workers.
func RunSkipping(db *tde.Database, cfg Config, sensorRows int) (*SkippingReport, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &SkippingReport{}
	for i := 0; i < cfg.Queries; i++ {
		var sql string
		if i%2 == 0 {
			sql = sensorQuery(rng, sensorRows)
		} else {
			sql = randomQuery(rng)
		}
		rep.Queries++
		oracle, err := db.QueryWithOptions(sql, plan.Options{
			ParallelWorkers: -1, NoZoneSkip: true,
		})
		if err != nil {
			return rep, fmt.Errorf("difftest: skipping-off oracle failed: %w\n  query: %s", err, sql)
		}
		want := canonicalRows(oracle.Rows)
		for _, w := range cfg.Workers {
			opt := plan.Options{ParallelWorkers: w}
			rep.Comparisons++
			got, err := db.QueryContext(context.Background(), sql, tde.QueryOptions{
				Plan:         opt,
				MemoryBudget: cfg.MemoryBudget,
				SpillBudget:  cfg.SpillBudget,
			})
			if err != nil {
				rep.Mismatches = append(rep.Mismatches, Mismatch{
					SQL: sql, Opt: opt, Detail: fmt.Sprintf("query error: %v", err)})
				continue
			}
			if usedSkipping(got) {
				rep.SkipHits++
			}
			if d := diffRows(want, canonicalRows(got.Rows)); d != "" {
				rep.Mismatches = append(rep.Mismatches, Mismatch{SQL: sql, Opt: opt, Detail: d})
			}
		}
	}
	return rep, nil
}
