package plan

import (
	"math"
	"sort"

	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/types"
)

// Zone-skipping extraction (DESIGN.md §15): the planner walks the WHERE
// conjuncts and turns the sargable ones — single-column comparisons and
// equalities against non-NULL constants, plus IS [NOT] NULL — into
// exec.ZoneFilters the scans test against per-block zone maps.
//
// Sargability is deliberately narrow, because a filter here skips blocks
// without evaluating the predicate:
//
//   - the conjunct must isolate one stored column compared to a constant
//     (either side; the operator flips);
//   - EQ, LT, LE, GT, GE only — NE excludes single points, which block
//     ranges cannot refute;
//   - column and constant must both be signed scalar types (integers,
//     dates, timestamps), whose comparison semantics are exactly int64
//     order, the zone maps' domain. Reals, booleans and string content
//     comparisons are not extracted;
//   - for dictionary-compressed columns the constant range is mapped into
//     the token domain through the dictionary's sorted order, excluding a
//     NULL dictionary entry (NULL rows never satisfy a comparison). Zone
//     maps for such columns track raw tokens, so this is the only sound
//     comparison domain;
//   - IS [NOT] NULL is extracted only when the column represents NULL
//     exclusively as its stream sentinel (always for plain scalars and
//     strings; for dictionary columns only when no dictionary entry is
//     itself NULL, since zone NULL counts see only the sentinel).
//
// A conjunct that fails any test is simply not extracted — the Filter
// operator above the scan still evaluates the full predicate, so
// extraction is only ever an optimization.

// zoneFilters extracts the sargable conjuncts of where against tab.
func zoneFilters(where expr.Expr, tab *storage.Table) []exec.ZoneFilter {
	if where == nil {
		return nil
	}
	var out []exec.ZoneFilter
	for _, cj := range splitConjuncts(where) {
		if f, ok := zoneFilterFromConjunct(cj, tab); ok {
			out = append(out, f)
		}
	}
	return out
}

// zoneFilterFromConjunct extracts one conjunct, reporting whether it is
// sargable.
func zoneFilterFromConjunct(e expr.Expr, tab *storage.Table) (exec.ZoneFilter, bool) {
	switch x := e.(type) {
	case *expr.IsNull:
		col, idx := refColumn(x.E, tab)
		if col == nil || !nullIsSentinelOnly(col) {
			return exec.ZoneFilter{}, false
		}
		kind := exec.ZFIsNull
		if x.Negate {
			kind = exec.ZFNotNull
		}
		return exec.ZoneFilter{Col: idx, Kind: kind, Name: col.Name}, true
	case *expr.Cmp:
		op := x.Op
		col, idx := refColumn(x.L, tab)
		con, isConst := x.R.(*expr.Const)
		if col == nil || !isConst {
			col, idx = refColumn(x.R, tab)
			con, isConst = x.L.(*expr.Const)
			if col == nil || !isConst {
				return exec.ZoneFilter{}, false
			}
			op = flipCmp(op)
		}
		if !signedZoneType(col.Type) || !signedZoneType(con.Typ) ||
			con.IsNullLiteral() || op == expr.NE {
			return exec.ZoneFilter{}, false
		}
		lo, hi, empty := constRange(op, int64(con.Bits))
		f := exec.ZoneFilter{Col: idx, Kind: exec.ZFRange, Lo: lo, Hi: hi,
			Empty: empty, Name: col.Name}
		if !empty && col.Dict != nil {
			f = dictTokenRange(col, idx, lo, hi)
		}
		return f, true
	}
	return exec.ZoneFilter{}, false
}

// refColumn resolves a ColRef against the stored table, by name — at
// extraction time the WHERE tree is still over named references.
func refColumn(e expr.Expr, tab *storage.Table) (*storage.Column, int) {
	r, ok := e.(*expr.ColRef)
	if !ok {
		return nil, -1
	}
	idx := tab.ColumnIndex(r.Name)
	if idx < 0 {
		return nil, -1
	}
	return tab.Columns[idx], idx
}

// signedZoneType reports whether a type's value bits compare as int64 —
// the zone maps' scalar domain.
func signedZoneType(t types.Type) bool {
	switch t {
	case types.Integer, types.Date, types.Timestamp:
		return true
	}
	return false
}

// nullIsSentinelOnly reports whether the column represents NULL
// exclusively as its stream sentinel. A dictionary column can also carry
// NULL as a dictionary entry, which zone NULL counts do not see.
func nullIsSentinelOnly(c *storage.Column) bool {
	for _, v := range c.Dict {
		if types.IsNull(c.Type, v) {
			return false
		}
	}
	return true
}

// flipCmp mirrors an operator across its operands (const op col -> col
// flip(op) const).
func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	}
	return op // EQ, NE are symmetric
}

// constRange turns `col op v` into the inclusive value interval
// [lo, hi]; empty marks intervals no value satisfies (col < MinInt64).
func constRange(op expr.CmpOp, v int64) (lo, hi int64, empty bool) {
	switch op {
	case expr.EQ:
		return v, v, false
	case expr.LT:
		if v == math.MinInt64 {
			return 0, 0, true
		}
		return math.MinInt64, v - 1, false
	case expr.LE:
		return math.MinInt64, v, false
	case expr.GT:
		if v == math.MaxInt64 {
			return 0, 0, true
		}
		return v + 1, math.MaxInt64, false
	case expr.GE:
		return v, math.MaxInt64, false
	}
	return 0, 0, true
}

// dictTokenRange maps a value interval into a dictionary-compressed
// column's token domain. The dictionary is sorted ascending (signed), so
// the qualifying tokens form one contiguous run; a NULL dictionary entry
// sorts first and is excluded — NULL rows never satisfy a comparison. An
// interval covering no entry is provably unsatisfiable: every block
// skips, cheaper than any scan.
func dictTokenRange(c *storage.Column, idx int, lo, hi int64) exec.ZoneFilter {
	d := c.Dict
	tLo := sort.Search(len(d), func(i int) bool { return int64(d[i]) >= lo })
	tHi := sort.Search(len(d), func(i int) bool { return int64(d[i]) > hi }) - 1
	for tLo <= tHi && types.IsNull(c.Type, d[tLo]) {
		tLo++
	}
	if tLo > tHi {
		return exec.ZoneFilter{Col: idx, Kind: exec.ZFRange, Empty: true, Name: c.Name}
	}
	return exec.ZoneFilter{Col: idx, Kind: exec.ZFRange,
		Lo: int64(tLo), Hi: int64(tHi), Name: c.Name}
}

// attachZoneFilters extracts and attaches zone filters to a freshly
// planned scan, honoring Options.NoZoneSkip, and records the decision.
func attachZoneFilters(scan *exec.Scan, q Query, opt Options, ex *Explain) {
	if q.Where == nil || opt.NoZoneSkip {
		return
	}
	zf := zoneFilters(q.Where, q.Table)
	if len(zf) == 0 {
		return
	}
	scan.Prune = zf
	ex.add("ZoneSkip[%s]", exec.ZoneFilterList(zf))
}
