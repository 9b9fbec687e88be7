package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tde"
	"tde/internal/plan"
)

// This file is the encoded-vs-decoded differential sweep: every random
// query runs once with encoded execution forced off (the decoded oracle)
// and once per variant with it forced on, over the worker matrix and
// with the index rewrite on and off (off, a filter on the run-length
// column stays in the scan plan, so rle-filter engages beside
// dict-filter, rle-sum and token-direct).
// Compressed execution must never change an answer, only skip decode
// work, so any mismatch is a bug by construction.

// EncodedReport extends Report with a routine-coverage counter.
type EncodedReport struct {
	Report
	// EncodedHits counts variant queries in which at least one operator
	// reported an encoded routine. Zero means the sweep never exercised
	// compressed execution and proves nothing.
	EncodedHits int
}

// encodedRoutines are the routine substrings that mark compressed
// execution at work in an operator's stats.
var encodedRoutines = []string{"dict-filter", "rle-", "token-direct", "(runs)"}

func usedEncodedRoutine(res *tde.Result) bool {
	for _, op := range res.Stats().Operators {
		for _, r := range encodedRoutines {
			if strings.Contains(op.Routine, r) {
				return true
			}
		}
	}
	return false
}

// BuildEncodedDatabase builds the standard differential corpus and
// dictionary-compresses a set of small-domain scalar columns, so both
// the dict-filter/token-direct routines (dictionary tokens) and the
// rle-* routines (run-length scalars) have material to work on.
func BuildEncodedDatabase(sf float64, flightRows int, seed int64) (*tde.Database, error) {
	return buildEncodedDatabase(sf, flightRows, seed, importText)
}

// buildEncodedDatabase is BuildEncodedDatabase with every table's text
// going through imp.
func buildEncodedDatabase(sf float64, flightRows int, seed int64, imp importer) (*tde.Database, error) {
	db, err := buildDatabase(sf, flightRows, seed, imp)
	if err != nil {
		return nil, err
	}
	compressed := 0
	for _, tc := range [][2]string{
		{"lineitem", "l_quantity"},
		{"lineitem", "l_linenumber"},
		{"flights", "Distance"},
	} {
		// Best effort: a column whose import-time encoding is not
		// dictionary-convertible (e.g. raw) just stays as imported.
		if err := db.CompressColumn(tc[0], tc[1]); err == nil {
			compressed++
		}
	}
	if compressed < 2 {
		return nil, fmt.Errorf("difftest: only %d columns dictionary-compressed; the encoded sweep needs dictionary material", compressed)
	}
	// events holds a sorted date column in long runs, NULLs first, which
	// imports run-length encoded: the material of the run-at-a-time
	// Project and the aligned-run aggregate.
	var ev strings.Builder
	for i := 0; i < 200; i++ {
		ev.WriteString(",0\n")
	}
	day := time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 60_000; i++ {
		fmt.Fprintf(&ev, "%s,%d\n", day.AddDate(0, 0, 7*(i/200)).Format("2006-01-02"), i%13)
	}
	opt := tde.DefaultImportOptions()
	opt.Schema = []string{"e_date:date", "e_v:int"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := imp(db, "events", []byte(ev.String()), opt); err != nil {
		return nil, fmt.Errorf("difftest: import events: %w", err)
	}
	return db, nil
}

// encodedSeeds are fixed queries every encoded sweep runs before its
// random draws, for shapes the generator does not reach.
var encodedSeeds = []string{
	// YEAR of a run-length date column: the scan hands its runs to a
	// Project that computes once per run, and the aggregate folds the
	// aligned runs with one probe per run.
	"SELECT YEAR(e_date) AS y, COUNT(*) AS n, COUNT(e_date) AS c, MIN(e_date) AS lo, MAX(e_date) AS hi FROM events GROUP BY y",
	// A range on the same column: the index rewrite hands the scan the
	// row ranges of the runs it keeps, which a dirty table's deletions
	// thin and its inserted rows follow.
	"SELECT e_v, COUNT(*) AS n, MIN(e_date) AS lo, MAX(e_date) AS hi FROM events WHERE e_date >= DATE '1996-03-01' AND e_date < DATE '1997-06-01' GROUP BY e_v",
}

// RunEncoded executes cfg.Queries random queries against db, comparing a
// decoded serial oracle (NoEncodedExec) to encoded
// variants across cfg.Workers, each in two plan shapes: the default
// strategic plan and the plain scan plan (index rewrite disabled).
func RunEncoded(db *tde.Database, cfg Config) (*EncodedReport, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &EncodedReport{}
	for i := 0; i < len(encodedSeeds)+cfg.Queries; i++ {
		var sql string
		if i < len(encodedSeeds) {
			sql = encodedSeeds[i]
		} else {
			sql = randomQuery(rng)
		}
		rep.Queries++
		oracle, err := db.QueryWithOptions(sql, plan.Options{
			ParallelWorkers: -1, NoEncodedExec: true,
		})
		if err != nil {
			return rep, fmt.Errorf("difftest: decoded oracle failed: %w\n  query: %s", err, sql)
		}
		want := canonicalRows(oracle.Rows)
		for _, w := range cfg.Workers {
			for _, scanOnly := range []bool{false, true} {
				opt := plan.Options{
					ParallelWorkers: w,
					NoIndexPlan:     scanOnly,
				}
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
				if usedEncodedRoutine(got) {
					rep.EncodedHits++
				}
				if got.Stats().Spilled() {
					rep.Spilled++
				}
				if d := diffRows(want, canonicalRows(got.Rows)); d != "" {
					rep.Mismatches = append(rep.Mismatches, Mismatch{SQL: sql, Opt: opt, Detail: d})
				}
			}
		}
	}
	return rep, nil
}
