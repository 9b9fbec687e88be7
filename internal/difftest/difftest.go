// Package difftest is a randomized differential query-testing harness:
// it generates SQL over small TPC-H and flights tables, runs every query
// once with parallelism disabled (the oracle) and again under a list of
// worker counts, and demands row-set-identical results. Parallel
// execution must never change an answer — only how fast it arrives — so
// any mismatch is a bug by construction.
package difftest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"tde"
	"tde/internal/flights"
	"tde/internal/plan"
	"tde/internal/tpch"
)

// Config sizes one differential run.
type Config struct {
	Seed    int64
	Queries int // random queries; each is compared under every variant
	// Workers lists the forced worker counts compared against the serial
	// oracle. Zero entries test the auto heuristic.
	Workers []int
	// MemoryBudget caps each variant query's memory (0 = unlimited); the
	// serial oracle always runs unbudgeted, so a budget exercises the
	// spill-to-disk degradation paths against an in-memory ground truth.
	MemoryBudget int64
	// SpillBudget is the variants' spill-to-disk allowance (0 = no
	// spilling; budget overruns then fail the run as mismatches).
	SpillBudget int64
}

// DefaultConfig covers workers 1, 2 and 8 — the worker counts the
// morsel operators must be transparent under.
func DefaultConfig(seed int64, queries int) Config {
	return Config{
		Seed:    seed,
		Queries: queries,
		Workers: []int{1, 2, 8},
	}
}

// Mismatch reports one differential failure with everything needed to
// replay it.
type Mismatch struct {
	SQL    string
	Opt    plan.Options
	Detail string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("workers=%d: %s\n  query: %s",
		m.Opt.ParallelWorkers, m.Detail, m.SQL)
}

// Report is the outcome of a Run.
type Report struct {
	Queries     int
	Comparisons int
	Mismatches  []Mismatch
	// Spilled counts variant queries that actually degraded to disk
	// (meaningful only with a MemoryBudget set).
	Spilled int
	// Unsplittable counts budget errors the oracle proves unavoidable:
	// the query aggregates one group whose MEDIAN/COUNTD state alone
	// exceeds the budget. They are not mismatches.
	Unsplittable int
	// PreservingExchanges, FreeExchanges and AggregatesOverJoins count
	// the variant plans with an order-preserving Exchange, a free
	// (completion-order) one, and a parallel aggregate directly over a
	// join: the parallel shapes the sweep must reach.
	PreservingExchanges, FreeExchanges, AggregatesOverJoins int
	// OrderedAggregates counts the variant plans that ran a serial
	// ordered aggregate (routine "ordered" or "…+ordered").
	OrderedAggregates int
	// BoundedSortSpills counts the variant plans whose bounded Sort
	// (ORDER BY … LIMIT) spilled runs.
	BoundedSortSpills int
}

// countShapes records which shapes the executed plan shows: parallel ones
// from the plan outline, ordered aggregation from the operators' routines
// and a spilled bounded sort from its spill stats.
func (r *Report) countShapes(res *tde.Result) {
	for _, op := range res.Stats().Operators {
		switch {
		case op.Kind == "Aggregate" && strings.HasSuffix(op.Routine, "ordered"):
			r.OrderedAggregates++
		case op.Kind == "Sort" && strings.HasPrefix(op.Label, "top ") && op.Spill != nil && op.Spill.Spills > 0:
			r.BoundedSortSpills++
		}
	}
	steps := strings.Split(res.Plan, " => ")
	for i, s := range steps {
		switch {
		case strings.HasPrefix(s, "Exchange[") && strings.HasSuffix(s, "order-preserving]"):
			r.PreservingExchanges++
		case strings.HasPrefix(s, "Exchange[") && strings.HasSuffix(s, "free]"):
			r.FreeExchanges++
		case strings.HasPrefix(s, "ParallelAggregate[") && i > 0 && strings.Contains(steps[i-1], "Join("):
			r.AggregatesOverJoins++
		}
	}
}

// BuildDatabase imports lineitem + orders at the given TPC-H scale factor, the
// modes dimension and a flights table, through the full text-import pipeline.
func BuildDatabase(sf float64, flightRows int, seed int64) (*tde.Database, error) {
	return buildDatabase(sf, flightRows, seed, importText)
}

// importer imports one generated table's text into db.
type importer func(db *tde.Database, table string, data []byte, opt tde.ImportOptions) error

func importText(db *tde.Database, table string, data []byte, opt tde.ImportOptions) error {
	return db.ImportCSV(table, data, opt)
}

// buildDatabase is BuildDatabase with every table's text going through imp.
func buildDatabase(sf float64, flightRows int, seed int64, imp importer) (*tde.Database, error) {
	g := tpch.New(sf, seed)
	db := tde.New()

	var li bytes.Buffer
	if err := g.WriteLineitem(&li); err != nil {
		return nil, err
	}
	opt := tde.DefaultImportOptions()
	opt.Schema = lineitemSchema()
	opt.HeaderSet, opt.HasHeader = true, false
	if err := imp(db, "lineitem", li.Bytes(), opt); err != nil {
		return nil, fmt.Errorf("difftest: import lineitem: %w", err)
	}

	var ord bytes.Buffer
	if err := g.WriteOrders(&ord); err != nil {
		return nil, err
	}
	opt = tde.DefaultImportOptions()
	opt.Schema = ordersSchema()
	opt.HeaderSet, opt.HasHeader = true, false
	if err := imp(db, "orders", ord.Bytes(), opt); err != nil {
		return nil, fmt.Errorf("difftest: import orders: %w", err)
	}

	// A dimension with duplicate and NULL keys: joins to it rest on the first-match rule.
	opt.Schema = []string{"m_mode:str", "m_rank:int"}
	modes := "AIR,1\nAIR,2\nRAIL,3\n,4\nMAIL,5\nSHIP,6\nMAIL,7\n,8\nTRUCK,9\n"
	if err := imp(db, "modes", []byte(modes), opt); err != nil {
		return nil, fmt.Errorf("difftest: import modes: %w", err)
	}

	var fl bytes.Buffer
	if err := flights.New(flightRows, seed+1).Write(&fl); err != nil {
		return nil, err
	}
	if err := imp(db, "flights", fl.Bytes(), tde.DefaultImportOptions()); err != nil {
		return nil, fmt.Errorf("difftest: import flights: %w", err)
	}
	return db, nil
}

func lineitemSchema() []string {
	kinds := []string{"int", "int", "int", "int", "int", "real", "real", "real",
		"str", "str", "date", "date", "date", "str", "str", "str"}
	out := make([]string, len(tpch.LineitemSchema))
	for i, n := range tpch.LineitemSchema {
		out[i] = n + ":" + kinds[i]
	}
	return out
}

func ordersSchema() []string {
	return []string{"o_orderkey:int", "o_custkey:int", "o_orderstatus:str",
		"o_totalprice:real", "o_orderdate:date", "o_orderpriority:str",
		"o_clerk:str", "o_shippriority:int", "o_comment:str"}
}

// Run executes cfg.Queries random queries against db, comparing the
// serial oracle to every worker-count variant.
func Run(db *tde.Database, cfg Config) (*Report, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{}
	for i := 0; i < cfg.Queries; i++ {
		if err := Compare(db, randomQuery(rng), plan.Options{ParallelWorkers: -1}, cfg, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// Compare runs one query under the oracle's plan options (unbudgeted) and
// under every worker-count variant of cfg, recording into rep.
func Compare(db *tde.Database, sql string, oracleOpt plan.Options, cfg Config, rep *Report) error {
	rep.Queries++
	oracle, err := db.QueryWithOptions(sql, oracleOpt)
	if err != nil {
		return fmt.Errorf("difftest: serial oracle failed: %w\n  query: %s", err, sql)
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
			if cfg.MemoryBudget > 0 && errors.Is(err, tde.ErrBudgetExceeded) {
				ok, uerr := unsplittable(db, sql, cfg.MemoryBudget)
				if uerr != nil {
					return uerr
				}
				if ok {
					rep.Unsplittable++
					continue
				}
			}
			rep.Mismatches = append(rep.Mismatches, Mismatch{
				SQL: sql, Opt: opt, Detail: fmt.Sprintf("query error: %v", err)})
			continue
		}
		rep.countShapes(got)
		if got.Stats().Spilled() {
			rep.Spilled++
		}
		if d := diffRows(want, canonicalRows(got.Rows)); d != "" {
			rep.Mismatches = append(rep.Mismatches, Mismatch{SQL: sql, Opt: opt, Detail: d})
		}
	}
	return nil
}

// stateAggs finds the MEDIAN and COUNTD aggregates of a generated query
// and their input columns.
var stateAggs = regexp.MustCompile(`(MEDIAN|COUNTD)\(([\w.]+)\)`)

// unsplittable reports whether the serial oracle proves a budget error
// unavoidable: the query aggregates one group — it has no GROUP BY, or
// its keys alone, with no ORDER BY or LIMIT, answer one row — and the
// state that group's MEDIAN and COUNTD aggregates hold at once, 16 bytes
// per non-NULL input value each (the engine's per-row charge), exceeds
// the budget. No spilling can split one group's state.
func unsplittable(db *tde.Database, sql string, budget int64) (bool, error) {
	aggs := stateAggs.FindAllStringSubmatch(sql, -1)
	if len(aggs) == 0 {
		return false, nil
	}
	// The group's input: the query's FROM and WHERE.
	from, keys := sql[strings.Index(sql, " FROM "):], ""
	if i := strings.Index(from, " ORDER BY "); i >= 0 {
		from = from[:i]
	}
	if i := strings.Index(from, " GROUP BY "); i >= 0 {
		from, keys = from[:i], from[i+len(" GROUP BY "):]
	}
	serial := plan.Options{ParallelWorkers: -1}
	if keys != "" {
		res, err := db.QueryWithOptions("SELECT "+keys+from+" GROUP BY "+keys, serial)
		if err != nil {
			return false, fmt.Errorf("difftest: counting the groups of %q: %w", sql, err)
		}
		if len(res.Rows) != 1 {
			return false, nil
		}
	}
	counts := make([]string, len(aggs))
	for i, a := range aggs {
		counts[i] = fmt.Sprintf("COUNT(%s) AS n%d", a[2], i)
	}
	res, err := db.QueryWithOptions("SELECT "+strings.Join(counts, ", ")+from, serial)
	if err != nil {
		return false, fmt.Errorf("difftest: sizing the group of %q: %w", sql, err)
	}
	var state int64
	for _, cell := range res.Rows[0] {
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return false, err
		}
		state += 16 * n
	}
	return state > budget, nil
}

// canonicalRows renders a result as a sorted multiset of rows. Group
// keys (or the unique sort key of a top-n selection) lead every row, so
// rows that differ only in the trailing float cells still land at the
// same index on both sides.
func canonicalRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x00")
	}
	sort.Strings(out)
	return out
}

// floatTolerance bounds the relative divergence parallel reassociation
// of SUM/AVG may introduce; anything larger is a real bug.
const floatTolerance = 1e-9

// cellsMatch is the per-cell oracle: exact match, or both cells are
// floats within the reassociation tolerance. String rounding can't do
// this — a sum sitting on a rounding half-point flips its last printed
// digit under any fixed precision.
func cellsMatch(a, b string) bool {
	if a == b {
		return true
	}
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return false
	}
	diff := fa - fb
	if diff < 0 {
		diff = -diff
	}
	scale := 1.0
	if s := absFloat(fa); s > scale {
		scale = s
	}
	if s := absFloat(fb); s > scale {
		scale = s
	}
	return diff <= floatTolerance*scale
}

func absFloat(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// diffRows compares two canonical row sets and describes the first
// divergence ("" when identical).
func diffRows(want, got []string) string {
	if len(want) != len(got) {
		return fmt.Sprintf("row counts differ: serial %d, parallel %d", len(want), len(got))
	}
	for i := range want {
		if want[i] == got[i] {
			continue
		}
		wc := strings.Split(want[i], "\x00")
		gc := strings.Split(got[i], "\x00")
		match := len(wc) == len(gc)
		for j := 0; match && j < len(wc); j++ {
			match = cellsMatch(wc[j], gc[j])
		}
		if !match {
			return fmt.Sprintf("row %d differs:\n  serial:   %q\n  parallel: %q",
				i, strings.Join(wc, "|"), strings.Join(gc, "|"))
		}
	}
	return ""
}
