package difftest

import (
	"flag"
	"math/rand"
	"strings"
	"testing"

	"tde/internal/plan"
)

// -long runs the full sweep (more queries over bigger tables); the
// default stays bounded for the regular test suite while still clearing
// 500 differential comparisons.
var long = flag.Bool("long", false, "run the full differential sweep")

// TestDifferentialQueries is the harness entry point: every randomized
// query must give row-set-identical results under serial execution and
// every worker count. The long sweep must also reach each parallel plan
// shape — an order-preserving Exchange, a free one, and a parallel
// aggregate directly over a join — and a serial ordered aggregate.
func TestDifferentialQueries(t *testing.T) {
	sf, flightRows, queries := 0.003, 6000, 170
	if *long {
		// Sized so the sweep finishes within go test's default 10m
		// package timeout even on a single core; CI passes -timeout
		// explicitly for extra headroom on slow runners.
		sf, flightRows, queries = 0.01, 20000, 500
	}
	db, err := BuildDatabase(sf, flightRows, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, queries)
	rep, err := Run(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Comparisons < 500 {
		t.Fatalf("only %d comparisons ran; the harness must cover at least 500", rep.Comparisons)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	t.Logf("%d queries, %d comparisons, %d mismatches; plans with an order-preserving exchange %d, a free exchange %d, a parallel aggregate over a join %d, an ordered aggregate %d",
		rep.Queries, rep.Comparisons, len(rep.Mismatches),
		rep.PreservingExchanges, rep.FreeExchanges, rep.AggregatesOverJoins, rep.OrderedAggregates)
	if *long && (rep.PreservingExchanges == 0 || rep.FreeExchanges == 0 || rep.AggregatesOverJoins == 0 || rep.OrderedAggregates == 0) {
		t.Errorf("the sweep missed a plan shape: order-preserving exchange %d, free exchange %d, aggregate over a join %d, ordered aggregate %d",
			rep.PreservingExchanges, rep.FreeExchanges, rep.AggregatesOverJoins, rep.OrderedAggregates)
	}
}

// TestDifferentialSpill reruns the differential sweep under memory
// budgets tight enough to force spill-to-disk degradation: every variant
// — serial and parallel alike — must still be row-set-identical to the
// unbudgeted serial oracle, and at least one query must actually have
// spilled (otherwise the budget was too loose to test anything). The one
// error a variant may return instead is ErrBudgetExceeded on a query the
// oracle proves unsplittable — one group whose MEDIAN/COUNTD state alone
// exceeds the budget — and the sweep prints how many it excused. The long
// sweep must also run a serial ordered aggregate under each budget.
func TestDifferentialSpill(t *testing.T) {
	queries := 25
	if *long {
		queries = 80
	}
	db, err := BuildDatabase(0.003, 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{256 << 10, 384 << 10} {
		cfg := DefaultConfig(11, queries)
		cfg.MemoryBudget = budget
		cfg.SpillBudget = 1 << 30
		rep, err := Run(db, cfg)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		for _, m := range rep.Mismatches {
			t.Errorf("budget %d: mismatch: %s", budget, m)
		}
		if rep.Spilled == 0 {
			t.Errorf("budget %d: no query spilled; the budget is too loose to exercise degradation", budget)
		}
		if *long && rep.OrderedAggregates == 0 {
			t.Errorf("budget %d: no query ran an ordered aggregate", budget)
		}
		if *long && rep.BoundedSortSpills == 0 {
			t.Errorf("budget %d: no bounded sort (ORDER BY … LIMIT) spilled", budget)
		}
		t.Logf("budget %d: %d queries, %d comparisons, %d spilled, %d mismatches, %d unsplittable (one group's MEDIAN/COUNTD state exceeds the budget), %d ordered aggregates, %d spilled bounded sorts",
			budget, rep.Queries, rep.Comparisons, rep.Spilled, len(rep.Mismatches), rep.Unsplittable, rep.OrderedAggregates, rep.BoundedSortSpills)
	}
}

// TestGeneratorShape spot-checks the grammar: every draw parses (the
// oracle in Run would otherwise fail late), stays on known tables, and
// every LIMIT is preceded by an ORDER BY so the cut is deterministic.
func TestGeneratorShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sawJoin, sawGroup, sawTopN := false, false, false
	for i := 0; i < 500; i++ {
		q := randomQuery(rng)
		if !strings.HasPrefix(q, "SELECT ") {
			t.Fatalf("bad query: %s", q)
		}
		if strings.Contains(q, " LIMIT ") && !strings.Contains(q, " ORDER BY ") {
			t.Fatalf("LIMIT without total order is nondeterministic: %s", q)
		}
		sawJoin = sawJoin || strings.Contains(q, " JOIN ")
		sawGroup = sawGroup || strings.Contains(q, " GROUP BY ")
		sawTopN = sawTopN || strings.Contains(q, " LIMIT ")
	}
	if !sawJoin || !sawGroup || !sawTopN {
		t.Fatalf("generator never produced some shape: join=%v group=%v topn=%v",
			sawJoin, sawGroup, sawTopN)
	}
}

// TestDifferentialSkipping is the zone-pruning oracle sweep: every query
// runs with block skipping forced off (the oracle decodes everything)
// and forced on across the worker matrix, over tables with dirty write
// overlays and NULL-heavy/all-NULL columns — the configurations where a
// stale or over-eager zone map silently drops rows. The sweep demands
// that pruning actually fired; a run with zero skipped blocks proves
// nothing.
func TestDifferentialSkipping(t *testing.T) {
	sf, flightRows, sensorRows, queries := 0.003, 6000, 40000, 60
	if *long {
		sf, flightRows, sensorRows, queries = 0.01, 20000, 120000, 200
	}
	db, err := BuildSkippingDatabase(sf, flightRows, sensorRows, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(13, queries)
	rep, err := RunSkipping(db, cfg, sensorRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	if rep.SkipHits == 0 {
		t.Fatal("no variant query skipped a block; the sweep exercised nothing")
	}
	t.Logf("%d queries, %d comparisons, %d skip hits, %d mismatches",
		rep.Queries, rep.Comparisons, rep.SkipHits, len(rep.Mismatches))
}

// TestDifferentialEncoded is the encoded-vs-decoded oracle sweep: every
// randomized query runs with compressed execution forced off (the
// decoded oracle) and forced on (across workers and with the plan
// rewrites disabled), demanding row-set-identical results. The sweep
// also demands that encoded routines actually fired — a sweep that never
// touched dict-filter/rle-*/token-direct would prove nothing.
func TestDifferentialEncoded(t *testing.T) {
	sf, flightRows, queries := 0.003, 6000, 60
	if *long {
		sf, flightRows, queries = 0.01, 20000, 200
	}
	db, err := BuildEncodedDatabase(sf, flightRows, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(5, queries)
	rep, err := RunEncoded(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	if rep.EncodedHits == 0 {
		t.Fatal("no variant query used an encoded routine; the sweep exercised nothing")
	}
	// The regression seed takes the run path it guards, at any worker
	// count: a Project computing once per run under an aggregate that
	// folds the aligned runs.
	for _, w := range []int{1, 2} {
		res, err := db.QueryWithOptions(encodedSeeds[0], plan.Options{ParallelWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		var routines []string
		for _, op := range res.Stats().Operators {
			routines = append(routines, op.Kind+"["+op.Routine+"]")
		}
		got := strings.Join(routines, " ")
		if !strings.Contains(got, "Project[rle-project]") || !strings.Contains(got, "Aggregate[rle-") {
			t.Fatalf("workers=%d: %s ran as %s", w, encodedSeeds[0], got)
		}
		if len(res.Rows) != 7 { // 1995 to 2000, and the NULL dates' group
			t.Fatalf("workers=%d: %d groups, want 7: %v", w, len(res.Rows), res.Rows)
		}
	}
	t.Logf("%d queries, %d comparisons, %d encoded-routine hits, %d mismatches",
		rep.Queries, rep.Comparisons, rep.EncodedHits, len(rep.Mismatches))
}

// TestDirtyEqualsCompacted is the overlay oracle sweep: every query over
// a database with seeded write overlays — values the base encodings
// lack, NULLs, out-of-range scalars, deletions splitting runs and
// emptying blocks, updates — must answer, at every worker count with
// encoded execution on and off, as a reference database does that
// imported the overlaid rows as clean tables; after Compact the same
// query must answer so again. The sweep demands that dirty plans still
// grouped directly, emitted runs and took the index rewrite; without them
// it would prove nothing about those paths.
func TestDirtyEqualsCompacted(t *testing.T) {
	sf, flightRows, queries := 0.003, 6000, 40
	if *long {
		sf, flightRows, queries = 0.01, 20000, 150
	}
	const seed = 17
	db, ref, err := BuildDirtyDatabase(sf, flightRows, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seed, queries)
	rep, err := RunDirty(db, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	if rep.DirectHits == 0 || rep.RunHits == 0 || rep.IndexHits == 0 {
		t.Fatalf("dirty plans grouped directly %d times, emitted runs %d times and scanned index ranges %d times; the sweep needs all three",
			rep.DirectHits, rep.RunHits, rep.IndexHits)
	}
	t.Logf("%d queries, %d comparisons, %d direct hits, %d run hits, %d index hits, %d mismatches",
		rep.Queries, rep.Comparisons, rep.DirectHits, rep.RunHits, rep.IndexHits, len(rep.Mismatches))
}

// TestUnsplittableNeedsOneGroup pins what Compare excuses: a budget
// error on a global MEDIAN is the one group's state and passes as
// unsplittable, but a grouped top-n whose LIMIT 1 answer is one row still
// aggregates several groups, so the same error is a mismatch.
func TestUnsplittableNeedsOneGroup(t *testing.T) {
	db, err := BuildDatabase(0.001, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: []int{1}, MemoryBudget: 4 << 10}
	for _, c := range []struct {
		sql          string
		unsplittable bool
	}{
		{"SELECT MEDIAN(l_quantity) AS a0 FROM lineitem", true},
		{"SELECT l_returnflag, MEDIAN(l_quantity) AS a0 FROM lineitem GROUP BY l_returnflag ORDER BY a0 DESC, l_returnflag LIMIT 1", false},
	} {
		rep := &Report{}
		if err := Compare(db, c.sql, plan.Options{ParallelWorkers: -1}, cfg, rep); err != nil {
			t.Fatal(err)
		}
		excused := rep.Unsplittable == 1 && len(rep.Mismatches) == 0
		if excused != c.unsplittable || rep.Unsplittable+len(rep.Mismatches) != 1 {
			t.Errorf("%s: %d unsplittable, mismatches %v; want unsplittable=%v",
				c.sql, rep.Unsplittable, rep.Mismatches, c.unsplittable)
		}
		for _, m := range rep.Mismatches {
			if !strings.Contains(m.Detail, "budget") {
				t.Errorf("%s: want a budget error, got %s", c.sql, m.Detail)
			}
		}
	}
}

// TestSpillHeavyCountDGroups pins a spilling aggregation whose groups
// are each heavy: grouped by l_linenumber (seven values), a COUNTD over
// l_comment holds thousands of distinct strings per group. At 256 KiB the
// groups do not fit together, and the spilled partitions must fold — in
// memory or, where several groups share a partition at every depth,
// through the merge's one running group — within the budget, answering
// like the unbudgeted oracle at every worker count.
func TestSpillHeavyCountDGroups(t *testing.T) {
	db, err := BuildDatabase(0.003, 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: []int{1, 2, 8}, MemoryBudget: 256 << 10, SpillBudget: 1 << 30}
	rep := &Report{}
	sql := "SELECT l_linenumber, SUM(l_tax) AS a0, COUNTD(l_comment) AS a1 FROM lineitem GROUP BY l_linenumber"
	if err := Compare(db, sql, plan.Options{ParallelWorkers: -1}, cfg, rep); err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	if rep.Spilled != len(cfg.Workers) {
		t.Errorf("%d of %d runs spilled", rep.Spilled, len(cfg.Workers))
	}
}
