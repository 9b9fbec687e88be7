package plan

import (
	"fmt"

	"tde/internal/delta"
	"tde/internal/exec"
	"tde/internal/storage"
)

// JoinSpec describes one many-to-one join step against a dimension table.
// Joins follow Tableau's NULL join semantics (a reason the TDE exists,
// Sect. 2.3): NULL keys match NULL keys, because the sentinel value
// compares equal to itself.
type JoinSpec struct {
	Table *storage.Table
	// Delta is the dimension's write-overlay snapshot (nil = none).
	Delta *delta.View
	// Alias prefixes the joined table's column names ("alias.col"); empty
	// keeps bare names.
	Alias string
	// OuterKey names a column of the accumulated outer schema; InnerKey a
	// column of Table.
	OuterKey, InnerKey string
	// LeftOuter keeps unmatched outer rows with NULL inner columns.
	LeftOuter bool
}

// buildJoinPlan is the join step of a star query: scan every side for the
// columns the query touches (joinSides), hash-join each dimension — a
// clean one's stored columns in place, a dirty one through a FlowTable —
// then filter above the last join.
func buildJoinPlan(q Query, opt Options, ex *Explain) (exec.Operator, error) {
	sides, err := joinSides(q)
	if err != nil {
		return nil, err
	}
	var op exec.Operator
	if op, err = sides[0].scan(ex); err != nil {
		return nil, err
	}
	for i, j := range q.Joins {
		dim := sides[i+1]
		scan, err := dim.scan(nil)
		if err != nil {
			return nil, err
		}
		var inner exec.TableSource = scan
		if deltaDirty(dim.delta) {
			inner = exec.NewFlowTable(scan, exec.DefaultFlowTableConfig())
		}
		innerKey := qualify(j.Alias, j.Table.Columns[dim.key].Name)
		join := exec.NewHashJoin(op, inner, colIndex(op.Schema(), j.OuterKey),
			colIndex(inner.Schema(), innerKey), exec.JoinAuto)
		join.LeftOuter = j.LeftOuter
		kind := "Join"
		if j.LeftOuter {
			kind = "LeftJoin"
		}
		ex.add("%s(%s.%s = %s.%s)", kind, q.Table.Name, j.OuterKey, j.Table.Name, j.InnerKey)
		op = join
	}
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

// joinSide is one input of a star join — the fact table (side 0) or a
// dimension — and the stored columns the query needs of it.
type joinSide struct {
	table  *storage.Table
	delta  *delta.View
	alias  string
	key    int // the dimension's inner key column; -1 on the fact side
	needed []bool
}

// joinSides resolves the query's column references against the sides and
// marks the columns each side must read: everything neededColumns lists,
// every join's outer key, and every dimension's inner key.
func joinSides(q Query) ([]*joinSide, error) {
	sides := []*joinSide{{table: q.Table, delta: q.Delta, alias: q.Alias, key: -1,
		needed: make([]bool, len(q.Table.Columns))}}
	for _, j := range q.Joins {
		s := &joinSide{table: j.Table, delta: j.Delta, alias: j.Alias, key: -1,
			needed: make([]bool, len(j.Table.Columns))}
		for ci, c := range j.Table.Columns {
			if c.Name == j.InnerKey || qualify(j.Alias, c.Name) == j.InnerKey {
				s.key = ci
				break
			}
		}
		if s.key < 0 {
			return nil, fmt.Errorf("plan: join key %q not in table %q", j.InnerKey, j.Table.Name)
		}
		s.needed[s.key] = true
		sides = append(sides, s)
	}
	for i, j := range q.Joins {
		// The outer key names a column of the joined schema so far.
		si, ci := resolveColumn(sides[:i+1], j.OuterKey)
		if si < 0 {
			return nil, fmt.Errorf("plan: join key %q not in outer schema", j.OuterKey)
		}
		sides[si].needed[ci] = true
	}
	for _, n := range neededColumns(q) {
		// An unresolved name fails later, where the tail binds it.
		if si, ci := resolveColumn(sides, n); si >= 0 {
			sides[si].needed[ci] = true
		}
	}
	return sides, nil
}

// resolveColumn finds the column a name reads in the joined schema — each
// side's columns in order, alias-qualified, without a dimension's inner
// key (the join drops it) — taking the first match, as binding does.
func resolveColumn(sides []*joinSide, name string) (side, col int) {
	for si, s := range sides {
		for ci, c := range s.table.Columns {
			if ci != s.key && qualify(s.alias, c.Name) == name {
				return si, ci
			}
		}
	}
	return -1, -1
}

// scan reads the side's needed columns under its alias; ex, when set,
// records the scan step.
func (s *joinSide) scan(ex *Explain) (*exec.Scan, error) {
	var cols []string
	for ci, c := range s.table.Columns {
		if s.needed[ci] {
			cols = append(cols, c.Name)
		}
	}
	scan, err := newTableScan(s.table, s.delta, ex, cols...)
	if err != nil {
		return nil, err
	}
	scan.As(s.alias)
	return scan, nil
}

func qualify(alias, name string) string {
	if alias == "" {
		return name
	}
	return alias + "." + name
}
