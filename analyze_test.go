package tde

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the EXPLAIN ANALYZE golden files from this run")

// twoJoinSpillDB builds a fact table with two independent join keys and
// two dimension tables, so one query can carry two hash joins whose
// build sides both overflow a small memory budget.
func twoJoinSpillDB(t testing.TB) *Database {
	t.Helper()
	db := New()
	var fact strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&fact, "%d,%d,%d.%02d\n", i%6000, i%5000, i%97, i%100)
	}
	opt := DefaultImportOptions()
	opt.Schema = []string{"k1:int", "k2:int", "v:real"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("f", []byte(fact.String()), opt); err != nil {
		t.Fatal(err)
	}
	var d1 strings.Builder
	for i := 0; i < 12000; i++ {
		fmt.Fprintf(&d1, "%d,one-%d\n", i, i%700)
	}
	opt = DefaultImportOptions()
	opt.Schema = []string{"d1k:int", "d1v:str"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("d1", []byte(d1.String()), opt); err != nil {
		t.Fatal(err)
	}
	var d2 strings.Builder
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&d2, "%d,two-%d\n", i, i%500)
	}
	opt = DefaultImportOptions()
	opt.Schema = []string{"d2k:int", "d2v:str"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("d2", []byte(d2.String()), opt); err != nil {
		t.Fatal(err)
	}
	return db
}

// Each join carries a payload column: a join builds only the columns the
// query reads, and a key alone would fit the budget.
const twoJoinSpillSQL = "SELECT d1v, COUNT(*), SUM(v), MAX(d2v) FROM f " +
	"JOIN d1 ON k1 = d1k JOIN d2 ON k2 = d2k GROUP BY d1v"

// TestTwoJoinSpillStatsDistinct is the regression test for the operator
// stats keying bug: spill counters used to be registered under the
// operator's *name*, so two hash joins in one plan merged into a single
// "HashJoin" record and the per-join spill volumes were unrecoverable.
// With plan-assigned operator IDs each join must report its own spill.
func TestTwoJoinSpillStatsDistinct(t *testing.T) {
	db := twoJoinSpillDB(t)
	res, err := db.QueryContext(context.Background(), twoJoinSpillSQL, QueryOptions{
		MemoryBudget: 64 << 10,
		SpillBudget:  1 << 30,
		SpillDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var joins []OperatorStats
	for _, s := range res.Stats().Operators {
		if s.Kind == "HashJoin" {
			joins = append(joins, s)
		}
	}
	if len(joins) != 2 {
		t.Fatalf("want 2 HashJoin operator records, got %d: %+v", len(joins), joins)
	}
	if joins[0].ID == joins[1].ID {
		t.Fatalf("the two joins share operator ID %d", joins[0].ID)
	}
	for _, j := range joins {
		if j.Spill == nil || j.Spill.Spills == 0 {
			t.Fatalf("join #%d did not record its own spill: %+v", j.ID, j)
		}
		if j.Spill.BytesWritten == 0 || j.Spill.BytesRead == 0 {
			t.Fatalf("join #%d spilled without byte counters: %+v", j.ID, j.Spill)
		}
		if j.RowsOut == 0 || j.OpenNanos+j.NextNanos == 0 {
			t.Fatalf("join #%d missing runtime actuals: %+v", j.ID, j)
		}
		if j.Routine != "grace" {
			t.Fatalf("join #%d spilled but reports routine %q", j.ID, j.Routine)
		}
	}
	// The rendered tree must show each join's spill on its own line.
	rendered := res.ExplainAnalyze()
	for _, j := range joins {
		line := regexp.MustCompile(fmt.Sprintf(`#%d HashJoin \[grace\].*spill\(`, j.ID))
		if !line.MatchString(rendered) {
			t.Fatalf("EXPLAIN ANALYZE lacks join #%d's spill annotation:\n%s", j.ID, rendered)
		}
	}
	// And the plan's spill summary must carry both IDs, not one merged key.
	for _, j := range joins {
		if !strings.Contains(res.Plan, fmt.Sprintf("#%d HashJoin", j.ID)) {
			t.Fatalf("spill summary lost join #%d: %s", j.ID, res.Plan)
		}
	}
}

// TestLimitStopsUpstreamUnderExchange pins the early-termination
// contract: a LIMIT above an Exchange must stop the producer after the
// bounded channel pipeline fills, not drain the whole scan. The scan's
// BlocksOut counter is the number of successful Next calls the producer
// issued against it.
func TestLimitStopsUpstreamUnderExchange(t *testing.T) {
	db := New()
	var rows strings.Builder
	for i := 0; i < 200000; i++ {
		fmt.Fprintf(&rows, "%d,%d\n", i, i%1000)
	}
	opt := DefaultImportOptions()
	opt.Schema = []string{"a:int", "b:int"}
	opt.HeaderSet, opt.HasHeader = true, false
	if err := db.ImportCSV("big", []byte(rows.String()), opt); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	res, err := db.QueryContext(context.Background(),
		"SELECT a, b FROM big WHERE b >= 0 LIMIT 5",
		QueryOptions{Plan: planWorkers(workers)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(res.Rows))
	}
	var scan, exchange *OperatorStats
	for i, s := range res.Stats().Operators {
		switch s.Kind {
		case "Scan":
			scan = &res.Stats().Operators[i]
		case "Exchange":
			exchange = &res.Stats().Operators[i]
		}
	}
	if scan == nil || exchange == nil {
		t.Fatalf("plan lacks Scan/Exchange: %s", res.Plan)
	}
	// 200k rows = ~196 blocks. The producer may legitimately run ahead of
	// the limit by the pipeline's buffering: the in and out channels hold
	// 2*workers blocks each and every worker can hold one in flight. Zone
	// skipping advances the cursor without a Next call, so total progress
	// is produced plus skipped blocks — measuring BlocksOut alone would
	// let a skipped-to-the-end scan masquerade as an early stop.
	progress := scan.BlocksOut + scan.BlocksSkipped
	maxAhead := int64(5*workers + 10)
	if progress > maxAhead {
		t.Fatalf("LIMIT 5 did not stop the scan: %d blocks advanced (%d read + %d skipped, bound %d)",
			progress, scan.BlocksOut, scan.BlocksSkipped, maxAhead)
	}
	if scan.BlocksOut == 0 {
		t.Fatal("scan reported no blocks at all")
	}
}

// TestStatsExactUnderParallelWorkers runs a parallel plan repeatedly and
// demands exact counters: the snapshot is taken after the exchange's
// goroutines have quiesced, so no worker's contribution may be missing.
// Run with -race to make torn counter updates fail loudly.
func TestStatsExactUnderParallelWorkers(t *testing.T) {
	db := spillTestDB(t)
	const rows = 20000
	for round := 0; round < 5; round++ {
		res, err := db.QueryContext(context.Background(),
			"SELECT k, v FROM t WHERE k >= 0",
			QueryOptions{Plan: planWorkers(8)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != rows {
			t.Fatalf("round %d: want %d rows, got %d", round, rows, len(res.Rows))
		}
		var scan, exchange *OperatorStats
		for i, s := range res.Stats().Operators {
			switch s.Kind {
			case "Scan":
				scan = &res.Stats().Operators[i]
			case "Exchange":
				exchange = &res.Stats().Operators[i]
			}
		}
		if scan == nil || exchange == nil {
			t.Fatalf("round %d: plan lacks Scan/Exchange: %s", round, res.Plan)
		}
		if scan.RowsOut != rows {
			t.Fatalf("round %d: scan counted %d rows, want exactly %d", round, scan.RowsOut, rows)
		}
		if exchange.RowsOut != rows {
			t.Fatalf("round %d: exchange emitted %d rows, want exactly %d (snapshot raced a worker?)",
				round, exchange.RowsOut, rows)
		}
		if exchange.RowsIn != rows {
			t.Fatalf("round %d: exchange rows_in %d, want %d", round, exchange.RowsIn, rows)
		}
	}
}

// redactCounters strips the run-dependent numbers (times, byte volumes,
// row/block/spill counts) from an EXPLAIN ANALYZE rendering, leaving the
// stable skeleton: operator IDs, kinds, labels, routines, tree shape and
// which operators spilled.
func redactCounters(s string) string {
	for _, r := range []struct{ re, repl string }{
		{`rows=\d+`, "rows=_"},
		{`blocks=\d+`, "blocks=_"},
		{`time=[0-9.]+(µs|ms|s)`, "time=_"},
		{`bytes=[0-9.]+(B|KB|MB)`, "bytes=_"},
		{`interned=\d+/\d+`, "interned=_"},
		{`spills=\d+`, "spills=_"},
		{`parts=\d+`, "parts=_"},
		{`depth=\d+`, "depth=_"},
		{`wrote=[0-9.]+(B|KB|MB)`, "wrote=_"},
		{`read=[0-9.]+(B|KB|MB)`, "read=_"},
		{`memory_peak=[0-9.]+(B|KB|MB)`, "memory_peak=_"},
		{`spill_peak=[0-9.]+(B|KB|MB)`, "spill_peak=_"},
	} {
		s = regexp.MustCompile(r.re).ReplaceAllString(s, r.repl)
	}
	return s
}

// TestExplainAnalyzeGolden pins the rendered output shape — stable
// plan-order IDs, deterministic operator ordering, routine annotations —
// for a serial, a parallel, a parallel join and a spilling plan. Counters
// are redacted; regenerate with `go test -run Golden -update-golden .`.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := spillTestDB(t)
	cases := []struct {
		name string
		sql  string
		opt  QueryOptions
	}{
		{
			name: "serial",
			sql:  "SELECT dval, COUNT(*), SUM(v) FROM t JOIN d ON k = dkey GROUP BY dval ORDER BY dval",
			opt:  QueryOptions{Plan: planWorkers(-1)},
		},
		{
			name: "parallel",
			sql:  "SELECT k, v FROM t WHERE k >= 1000",
			opt:  QueryOptions{Plan: planWorkers(4)},
		},
		{
			name: "parallel-join",
			sql:  "SELECT k, dval FROM t JOIN d ON k = dkey WHERE dval = 'dim-7'",
			opt:  QueryOptions{Plan: planWorkers(4)},
		},
		{
			name: "spilling",
			sql:  "SELECT dval, COUNT(*), SUM(v) FROM t JOIN d ON k = dkey GROUP BY dval",
			opt: QueryOptions{
				MemoryBudget: 64 << 10,
				SpillBudget:  1 << 30,
				Plan:         planWorkers(-1),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.opt.SpillBudget > 0 {
				tc.opt.SpillDir = t.TempDir()
			}
			res, err := db.QueryContext(context.Background(), tc.sql, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			got := redactCounters(res.ExplainAnalyze())
			path := filepath.Join("testdata", "analyze", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN ANALYZE shape changed.\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}

// TestStatsJSONRoundTrip: Result.Stats() is the machine-readable form;
// it must survive a JSON round trip with IDs, kinds and counters intact.
func TestStatsJSONRoundTrip(t *testing.T) {
	db := spillTestDB(t)
	res, err := db.QueryContext(context.Background(),
		"SELECT dval, COUNT(*) FROM t JOIN d ON k = dkey GROUP BY dval", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats()
	if len(stats.Operators) == 0 {
		t.Fatal("no operator stats")
	}
	buf, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	var back QueryStats
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Operators) != len(stats.Operators) {
		t.Fatalf("round trip lost operators: %d != %d", len(back.Operators), len(stats.Operators))
	}
	for i, s := range stats.Operators {
		b := back.Operators[i]
		if b.ID != s.ID || b.Kind != s.Kind || b.RowsOut != s.RowsOut || b.NextNanos != s.NextNanos {
			t.Fatalf("operator %d mutated in round trip:\n%+v\n%+v", i, s, b)
		}
		if s.ID != i+1 {
			t.Fatalf("operator IDs are not dense plan-order: index %d has ID %d", i, s.ID)
		}
	}
}

// TestWriteTraceShape validates the Chrome trace export: one complete
// event and one thread_name metadata record per operator, on distinct
// tids equal to the operator IDs.
func TestWriteTraceShape(t *testing.T) {
	db := spillTestDB(t)
	res, err := db.QueryContext(context.Background(),
		"SELECT dval, COUNT(*) FROM t JOIN d ON k = dkey GROUP BY dval", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	ops := len(res.Stats().Operators)
	spans := map[int]bool{}
	named := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		switch ev.Phase {
		case "X":
			if ev.TS < 0 || ev.Dur < 0 {
				t.Fatalf("negative ts/dur: %+v", ev)
			}
			if spans[ev.TID] {
				t.Fatalf("duplicate span for tid %d", ev.TID)
			}
			spans[ev.TID] = true
			if _, ok := ev.Args["rows_out"]; !ok {
				t.Fatalf("span missing rows_out args: %+v", ev)
			}
		case "M":
			named[ev.TID] = true
		}
	}
	if len(spans) != ops {
		t.Fatalf("want %d operator spans, got %d", ops, len(spans))
	}
	for tid := range spans {
		if !named[tid] {
			t.Fatalf("tid %d has no thread_name record", tid)
		}
	}
}

// TestFusedChainStats: a Select, a Project and a join probe that a
// parallel aggregate runs inside its workers book their rows, blocks,
// time and routine to their planned nodes, as they would running
// serially.
func TestFusedChainStats(t *testing.T) {
	db, joined := encodedTestDB(t), spillTestDB(t)
	var kept int64
	cnt, err := db.Query("SELECT COUNT(*) FROM m WHERE v >= 48")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Sscan(cnt.Rows[0][0], &kept)
	for _, c := range []struct {
		db                 *Database
		sql, kind, routine string
		rows               int64
	}{
		{db, "SELECT g, SUM(v) FROM m WHERE v >= 48 GROUP BY g", "Select", "kernel", kept},
		{db, "SELECT r + 1 AS q, COUNT(*) FROM m GROUP BY q", "Project", "rle-project", 20000},
		{joined, "SELECT dval, COUNT(*), SUM(v) FROM t JOIN d ON k = dkey GROUP BY dval", "HashJoin", "fetch", 20000},
	} {
		for _, workers := range []int{-1, 2} {
			opt := scanPlanSerial(false)
			opt.ParallelWorkers = workers
			res, err := c.db.QueryContext(context.Background(), c.sql, QueryOptions{Plan: opt})
			if err != nil {
				t.Fatal(err)
			}
			var op *OperatorStats
			for i, s := range res.Stats().Operators {
				if s.Kind == c.kind {
					op = &res.Stats().Operators[i]
				}
			}
			if op == nil {
				t.Fatalf("%s: no %s in %s", c.sql, c.kind, res.Plan)
			}
			if op.RowsOut != c.rows || op.BlocksOut == 0 || op.NextNanos == 0 || op.Routine != c.routine {
				t.Fatalf("%s workers=%d: %s rows=%d blocks=%d next=%dns routine %q, want rows=%d routine %q",
					c.sql, workers, c.kind, op.RowsOut, op.BlocksOut, op.NextNanos, op.Routine, c.rows, c.routine)
			}
		}
	}
}
