package plan

import (
	"fmt"
	"runtime"
	"strings"

	"tde/internal/delta"
	"tde/internal/enc"
	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/vec"
)

// AggItem is one aggregate in a query ("" Col means COUNT(*)).
type AggItem struct {
	Func exec.AggFunc
	Col  string
	As   string
}

// Computed is a derived column evaluated before grouping.
type Computed struct {
	Name string
	E    expr.Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  string
	Desc bool
}

// Query is an aggregation query over one table, optionally the fact
// table of a star join — the shape Tableau's visual queries take against
// an extract. The write path plans its UPDATE/DELETE row selection as a
// Query too, selecting exec.RowIDColumn.
type Query struct {
	Table *storage.Table
	// Delta is the table's write-overlay snapshot (nil or clean = none).
	// Every plan reads a dirty delta through the overlaid scan; the index
	// rewrite's IndexTable, built from the base column's runs, names base
	// rows only, so the inserted rows meet the whole WHERE above the scan.
	Delta *delta.View
	// Alias prefixes Table's column names ("alias.col") in a join; empty
	// keeps bare names.
	Alias string
	// Joins are the star join's dimensions, joined in order; Where and
	// the rest of the query then read the joined schema.
	Joins   []JoinSpec
	Where   expr.Expr // over named ColRefs; nil = no filter
	Compute []Computed
	GroupBy []string
	Aggs    []AggItem
	// Select lists plain output columns for non-aggregating queries.
	Select  []string
	OrderBy []OrderItem
	// Having filters groups after aggregation, over the aggregate output
	// schema (aliases or generated names like "SUM(v)").
	Having expr.Expr
	// Limit caps the result; with OrderBy it bounds the Sort instead of
	// planning a Limit over a full sort.
	Limit int
}

// Options control the strategic optimizer.
type Options struct {
	// NoIndexPlan disables the IndexTable range-scan rewrite (plan 1 of
	// Fig. 10 is the control that fulfills the query "using the existing
	// system").
	NoIndexPlan bool
	// NoEncodedExec disables compressed execution (DESIGN.md §12): scans
	// decode every block instead of emitting runs, and Select/Aggregate
	// use the row routines only (no dict-filter, rle-filter, rle-sum or
	// token-direct grouping). It is the encoded sweep's oracle arm and the
	// escape hatch.
	NoEncodedExec bool
	// NoZoneSkip disables zone-map block pruning (DESIGN.md §15): no
	// sargable WHERE conjunct becomes a scan-level zone filter, so scans
	// decode every block. It is the skipping sweep's oracle arm and the
	// escape hatch.
	NoZoneSkip bool
	// OrderedIndex selects Fig. 10's plan 3 (sort the index, use ordered
	// aggregation): <0 = strategic choice by run length, 0 = never,
	// >0 = always.
	OrderedIndex int
	// ParallelWorkers controls parallelism injection (Sect. 2.3.1): the
	// partial-aggregation workers of an aggregating query, which run the
	// filters, computations and join probes below the aggregate on the
	// blocks they claim, or else an Exchange whose workers run them.
	//   >0  force exactly this many workers on every eligible stage;
	//    0  auto: the strategic optimizer picks a worker count from
	//       GOMAXPROCS and the estimated input cardinality (staying
	//       serial for small inputs or single-core hosts);
	//   <0  disable injection entirely (serial plans).
	// Exchanges use order-preserving routing whenever a column of the
	// plan below is sorted, so downstream encodings are not degraded
	// (Sect. 4.3); otherwise blocks route freely.
	ParallelWorkers int
}

// Auto-parallelism thresholds: below parallelMinRows the fan-out costs
// more than it saves; past that, one worker per parallelRowsPerWorker
// rows up to GOMAXPROCS and parallelMaxWorkers.
const (
	parallelMinRows       = 128 << 10
	parallelRowsPerWorker = 64 << 10
	parallelMaxWorkers    = 8
)

// resolveWorkers is the strategic worker-count decision for a plan over
// an estimated rows input. auto reports whether the count came
// from the heuristic (for Explain) rather than an explicit override.
func resolveWorkers(opt Options, rows int) (workers int, auto bool) {
	if opt.ParallelWorkers > 0 {
		return opt.ParallelWorkers, false
	}
	if opt.ParallelWorkers < 0 {
		return 1, false
	}
	maxp := runtime.GOMAXPROCS(0)
	if maxp < 2 || rows < parallelMinRows {
		return 1, true
	}
	w := rows / parallelRowsPerWorker
	if w > maxp {
		w = maxp
	}
	if w > parallelMaxWorkers {
		w = parallelMaxWorkers
	}
	if w < 2 {
		w = 2
	}
	return w, true
}

// workersLabel renders a worker count for Explain, marking heuristic
// choices so the auto-parallelism decision is inspectable.
func workersLabel(workers int, auto bool) string {
	if auto {
		return fmt.Sprintf("%d workers (auto)", workers)
	}
	return fmt.Sprintf("%d workers", workers)
}

// preserveOrderRouting is the strategic routing decision (Sect. 4.3):
// preserve block order when any column is sorted — free routing would
// disturb value order, which an ordered aggregate above relies on and
// downstream encodings profit from.
func preserveOrderRouting(schema []exec.ColInfo) bool {
	for _, info := range schema {
		if info.Meta.SortedKnown && info.Meta.SortedAsc {
			return true
		}
	}
	return false
}

// Explain records the strategic decisions for inspection. Tree is the
// operator tree with the stable per-operator IDs runtime stats key on.
type Explain struct {
	Steps []string
	Tree  *exec.PlanNode
}

func (e *Explain) add(format string, args ...any) {
	e.Steps = append(e.Steps, fmt.Sprintf(format, args...))
}

// String renders the plan outline.
func (e *Explain) String() string { return strings.Join(e.Steps, " => ") }

// Build runs the strategic optimizer over q and returns the physical plan:
// the join step for a star query, otherwise the scan plan or its index
// rewrite, then one shared tail. A filter on a dictionary-compressed or
// string column stays in the scan plan, where Select's token truth table
// evaluates it once per dictionary entry (Sect. 4.1). Tactical
// choices (join algorithm, aggregation algorithm) stay with the
// operators, driven by the metadata FlowTable and the scans derive.
func Build(q Query, opt Options) (exec.Operator, *Explain, error) {
	ex := &Explain{}
	if opt.NoEncodedExec {
		ex.add("EncodedExec[off]")
	}
	if q.Where != nil {
		q.Where = expr.Simplify(q.Where)
	}

	var op exec.Operator
	var err error
	switch {
	case len(q.Joins) > 0:
		op, err = buildJoinPlan(q, opt, ex)
	case !opt.NoIndexPlan && rewrites(q):
		op, err = buildIndexPlan(q, opt, ex)
	default:
		op, err = buildScanPlan(q, opt, ex)
	}
	if err != nil {
		return nil, nil, err
	}

	op, err = finishPlan(op, q, opt, ex)
	if err != nil {
		return nil, nil, err
	}
	ex.Tree = exec.AssignOpIDs(op)
	return op, ex, nil
}

// neededColumns computes the scan column set.
func neededColumns(q Query) []string {
	seen := map[string]bool{}
	computed := map[string]bool{}
	for _, c := range q.Compute {
		computed[c.Name] = true
	}
	// Aggregate output names (aliases or generated like "SUM(v)") are
	// produced above the scan; ORDER BY and HAVING may reference them.
	for _, a := range q.Aggs {
		if a.As != "" {
			computed[a.As] = true
		} else if a.Col != "" {
			computed[fmt.Sprintf("%s(%s)", a.Func, a.Col)] = true
		} else {
			computed["COUNT(*)"] = true
		}
	}
	var out []string
	input := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	add := func(n string) {
		if !computed[n] {
			input(n)
		}
	}
	// WHERE and the computations run below Compute, over stored columns
	// only, even where a computed name shadows one.
	if q.Where != nil {
		for _, n := range Columns(q.Where) {
			input(n)
		}
	}
	for _, c := range q.Compute {
		for _, n := range Columns(c.E) {
			input(n)
		}
	}
	for _, g := range q.GroupBy {
		add(g)
	}
	for _, a := range q.Aggs {
		add(a.Col)
	}
	for _, s := range q.Select {
		add(s)
	}
	for _, o := range q.OrderBy {
		add(o.Col)
	}
	return out
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e expr.Expr) []expr.Expr {
	if l, ok := e.(*expr.Logic); ok && l.Op == expr.And {
		return append(splitConjuncts(l.L), splitConjuncts(l.R)...)
	}
	return []expr.Expr{e}
}

// combineConjuncts rebuilds an AND tree (nil for an empty list).
func combineConjuncts(cs []expr.Expr) expr.Expr {
	var out expr.Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = expr.NewAnd(out, c)
		}
	}
	return out
}

// isolateColumn splits the WHERE conjuncts into those that reference only
// the first run-length encoded column some conjunct isolates (pushable
// into its IndexTable, Sect. 4.2) and the residual. The strategic
// optimizer's "filtering move-around" (Sect. 2.3.1) at work: only whole
// conjuncts move.
func isolateColumn(where expr.Expr, tab *storage.Table) (col *storage.Column, pushed, residual expr.Expr) {
	conjuncts := splitConjuncts(where)
	for _, cj := range conjuncts {
		cols := Columns(cj)
		if len(cols) != 1 {
			continue
		}
		c := tab.Column(cols[0])
		if c == nil || c.Data.Kind() != enc.RunLength {
			continue
		}
		var push, rest []expr.Expr
		for _, other := range conjuncts {
			if oc := Columns(other); len(oc) == 1 && oc[0] == cols[0] {
				push = append(push, other)
			} else {
				rest = append(rest, other)
			}
		}
		return c, combineConjuncts(push), combineConjuncts(rest)
	}
	return nil, nil, nil
}

// rewrites reports whether the index rewrite applies: some WHERE
// conjunct isolates a run-length column.
func rewrites(q Query) bool {
	if q.Where == nil {
		return false
	}
	c, _, _ := isolateColumn(q.Where, q.Table)
	return c != nil
}

// deltaDirty reports whether a view actually changes table contents.
func deltaDirty(v *delta.View) bool { return v != nil && v.Dirty() }

// newTableScan builds the scan source for a table: its compressed
// columns, seen through the write overlay when one is visible.
func newTableScan(t *storage.Table, v *delta.View, ex *Explain, names ...string) (scan *exec.Scan, err error) {
	if deltaDirty(v) {
		scan, err = exec.NewViewScan(v, names...)
	} else {
		scan, err = exec.NewScan(t, names...)
	}
	if err != nil {
		return nil, err
	}
	if ex != nil {
		ex.add("%s(%s)", scan.OpKind(), scan.OpLabel())
	}
	return scan, nil
}

// buildScanPlan is the control: Scan => Filter (Fig. 10 plan 1).
func buildScanPlan(q Query, opt Options, ex *Explain) (exec.Operator, error) {
	cols := neededColumns(q)
	if len(cols) == 0 && len(q.Table.Columns) > 0 {
		// COUNT(*) alone reads no value, only how many rows there are:
		// the column with the fewest stored bytes carries that.
		least := q.Table.Columns[0]
		for _, c := range q.Table.Columns[1:] {
			if len(c.Data.Bytes()) < len(least.Data.Bytes()) {
				least = c
			}
		}
		cols = []string{least.Name}
	}
	scan, err := newTableScan(q.Table, q.Delta, ex, cols...)
	if err != nil {
		return nil, err
	}
	attachZoneFilters(scan, q, opt, ex)
	scan.EmitRuns = !opt.NoEncodedExec
	if scan.EmitsRuns() {
		ex.add("EncodedScan[%s runs]", scan.Schema()[0].Name)
	}
	var op exec.Operator = scan
	if q.Where != nil {
		pred, err := Rebind(q.Where, op.Schema())
		if err != nil {
			return nil, err
		}
		op = newSelect(op, pred, opt)
		ex.add("Filter[%s]", pred)
	}
	return op, nil
}

// buildIndexPlan is the rank-join rewrite (Fig. 10 plans 2 and 3):
// Index => Filter => [Sort =>] Scan(ranges). The filtered, optionally
// value-sorted IndexTable hands the scan the row ranges of its surviving
// runs, which the scan reads in that order. Over a dirty view the ranges
// drop the deleted rows and the inserted ones follow without having met
// the index, so the whole WHERE stays above the scan; on a clean table
// only the residual does, and the scan reads the index column only where
// the query needs it beyond the pushed conjuncts.
func buildIndexPlan(q Query, opt Options, ex *Explain) (exec.Operator, error) {
	col, pushed, residual := isolateColumn(q.Where, q.Table)
	bt, err := IndexTable(col)
	if err != nil {
		return nil, err
	}
	ex.add("IndexTable(%s:%d runs)", col.Name, bt.Rows)
	var index exec.Operator = exec.NewBuiltScan(bt)
	pred, err := Rebind(pushed, index.Schema())
	if err != nil {
		return nil, err
	}
	index = newSelect(index, pred, opt)
	ex.add("Filter[%s]", pred)

	// Strategic choice of ordered retrieval (Sect. 4.2.2): worth it only
	// when runs are long relative to the block iteration size.
	ordered := opt.OrderedIndex > 0
	if opt.OrderedIndex < 0 {
		avgRun := 0
		if bt.Rows > 0 {
			avgRun = col.Rows() / bt.Rows
		}
		ordered = avgRun >= vec.BlockSize
	}
	if ordered {
		index = exec.NewSort(index, exec.SortKey{Col: 0})
		ex.add("Sort[%s]", col.Name)
	}

	if deltaDirty(q.Delta) {
		residual = q.Where
	}
	rq := q
	rq.Where = residual
	cols := neededColumns(rq)
	if len(cols) == 0 {
		cols = []string{col.Name}
	}
	scan, err := newTableScan(q.Table, q.Delta, nil, cols...)
	if err != nil {
		return nil, err
	}
	scan.ReadRanges(index)
	ex.add("%s(%s)", scan.OpKind(), scan.OpLabel())
	var op exec.Operator = scan
	if residual != nil {
		rpred, err := Rebind(residual, op.Schema())
		if err != nil {
			return nil, err
		}
		op = newSelect(op, rpred, opt)
		ex.add("ResidualFilter[%s]", rpred)
	}
	return op, nil
}

// finishPlan appends computation, aggregation, ordering and projection,
// and is the one place that hands out workers.
func finishPlan(op exec.Operator, q Query, opt Options, ex *Explain) (exec.Operator, error) {
	if len(q.Compute) > 0 {
		schema := op.Schema()
		var exprs []expr.Expr
		var names []string
		for _, info := range schema {
			exprs = append(exprs, expr.NewColRef(len(exprs), info.Name, info.Type))
			names = append(names, info.Name)
		}
		for _, c := range q.Compute {
			e, err := Rebind(c.E, schema)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, expr.Simplify(e))
			names = append(names, c.Name)
		}
		op = exec.NewProject(op, exprs, names)
		ex.add("Compute[%s]", strings.Join(names[len(names)-len(q.Compute):], ","))
	}

	// A parallel aggregate takes the workers. In auto mode a single
	// sorted group key keeps the aggregate serial: ordered aggregation
	// emits groups as runs close, which partial aggregation would forfeit
	// by splitting runs across workers. Otherwise the workers go to an
	// Exchange over the plan below when they would run something there:
	// a filtered or joined scan (of blocks or of an index's ranges), or,
	// under a serial aggregate, a join. Over a bare scan they would only
	// copy blocks.
	rows := q.Table.Rows()
	if deltaDirty(q.Delta) {
		rows = q.Delta.VisibleRows()
	}
	workers, auto := resolveWorkers(opt, rows)
	aggregates, aggWorkers := len(q.Aggs) > 0 || len(q.GroupBy) > 0, 1
	fuses, joins := exec.Fuses(op)
	switch {
	case aggregates && !(auto && sortedKey(op.Schema(), q.GroupBy)):
		aggWorkers = workers
	case workers > 1 && fuses && (joins || !aggregates && q.Where != nil):
		preserve := preserveOrderRouting(op.Schema())
		op = exec.NewExchange(op, workers, preserve)
		routing := "free"
		if preserve {
			routing = "order-preserving"
		}
		ex.add("Exchange[%s, %s]", workersLabel(workers, auto), routing)
	}

	if aggregates {
		schema := op.Schema()
		var keyIdxs []int
		for _, g := range q.GroupBy {
			idx := colIndex(schema, g)
			if idx < 0 {
				return nil, fmt.Errorf("plan: unknown group column %q", g)
			}
			keyIdxs = append(keyIdxs, idx)
		}
		var specs []exec.AggSpec
		for _, a := range q.Aggs {
			idx := -1
			if a.Col != "" {
				idx = colIndex(schema, a.Col)
				if idx < 0 {
					return nil, fmt.Errorf("plan: unknown aggregate column %q", a.Col)
				}
			}
			specs = append(specs, exec.AggSpec{Func: a.Func, Col: idx, Name: a.As})
		}
		agg := exec.NewAggregate(op, keyIdxs, specs, exec.AggAuto)
		agg.Workers = aggWorkers
		agg.EncodedOff = opt.NoEncodedExec
		op = agg
		if aggWorkers > 1 {
			ex.add("ParallelAggregate[%s, %d keys, %d aggs]",
				workersLabel(aggWorkers, auto), len(keyIdxs), len(specs))
		} else {
			ex.add("Aggregate[%d keys, %d aggs]", len(keyIdxs), len(specs))
		}
		if q.Having != nil {
			pred, err := Rebind(expr.Simplify(q.Having), op.Schema())
			if err != nil {
				return nil, err
			}
			op = newSelect(op, pred, opt)
			ex.add("Having[%s]", pred)
		}
	} else if len(q.Select) > 0 {
		schema := op.Schema()
		var exprs []expr.Expr
		var names []string
		for _, s := range q.Select {
			idx := colIndex(schema, s)
			if idx < 0 {
				return nil, fmt.Errorf("plan: unknown select column %q", s)
			}
			exprs = append(exprs, expr.NewColRef(idx, s, schema[idx].Type))
			names = append(names, s)
		}
		op = exec.NewProject(op, exprs, names)
		ex.add("Project[%s]", strings.Join(names, ","))
	}

	if len(q.OrderBy) > 0 {
		schema := op.Schema()
		var keys []exec.SortKey
		for _, o := range q.OrderBy {
			idx := colIndex(schema, o.Col)
			if idx < 0 {
				return nil, fmt.Errorf("plan: unknown order column %q", o.Col)
			}
			keys = append(keys, exec.SortKey{Col: idx, Desc: o.Desc})
		}
		if q.Limit > 0 {
			// Bounded sort: it keeps only the first rows instead of
			// materializing everything, and no Limit goes above it.
			op = exec.NewBoundedSort(op, q.Limit, keys...)
			ex.add("Sort[%d keys, top %d]", len(keys), q.Limit)
			return op, nil
		}
		op = exec.NewSort(op, keys...)
		ex.add("Sort[%d keys]", len(keys))
	}
	if q.Limit > 0 {
		op = exec.NewLimit(op, q.Limit)
		ex.add("Limit[%d]", q.Limit)
	}
	return op, nil
}

// sortedKey reports whether keys is one group column sorted ascending.
func sortedKey(schema []exec.ColInfo, keys []string) bool {
	if len(keys) != 1 {
		return false
	}
	i := colIndex(schema, keys[0])
	return i >= 0 && schema[i].Meta.SortedKnown && schema[i].Meta.SortedAsc
}

// newSelect builds a filter with the plan-level encoded-execution switch
// threaded through, so every Select in a plan obeys Options.NoEncodedExec.
func newSelect(child exec.Operator, pred expr.Expr, opt Options) *exec.Select {
	s := exec.NewSelect(child, pred)
	s.EncodedOff = opt.NoEncodedExec
	return s
}

func colIndex(schema []exec.ColInfo, name string) int {
	for i, c := range schema {
		if c.Name == name {
			return i
		}
	}
	return -1
}
