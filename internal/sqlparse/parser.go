package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"tde/internal/delta"
	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/plan"
	"tde/internal/storage"
	"tde/internal/types"
)

// Statement is a parsed SELECT: one table, or a star join.
type Statement struct {
	Table      string
	TableAlias string
	joins      []joinClause
	items      []selectItem
	where      expr.Expr
	groupBy    []string
	having     expr.Expr
	orderBy    []plan.OrderItem
	limit      int
}

type joinClause struct {
	table     string
	alias     string
	leftKey   string
	rightKey  string
	leftOuter bool
}

type selectItem struct {
	agg   exec.AggFunc
	isAgg bool
	star  bool      // SELECT *
	e     expr.Expr // nil for COUNT(*)
	as    string
}

var aggNames = map[string]exec.AggFunc{
	"SUM": exec.Sum, "COUNT": exec.Count, "COUNTD": exec.CountD,
	"MIN": exec.Min, "MAX": exec.Max, "AVG": exec.Avg, "MEDIAN": exec.Median,
}

var dateFuncs = map[string]expr.DatePartKind{
	"YEAR": expr.Year, "MONTH": expr.Month, "DAY": expr.Day,
	"TRUNC_MONTH": expr.TruncMonth, "TRUNC_YEAR": expr.TruncYear,
}

var strFuncs = map[string]expr.StrFuncKind{
	"FILE_EXT": expr.FileExt, "UPPER": expr.Upper, "LOWER": expr.Lower,
	"LENGTH": expr.Length,
}

type parser struct {
	toks []token
	at   int
}

// Parse parses one SELECT statement.
func Parse(sql string) (*Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.peekIs(tokEOF, "") {
		return nil, fmt.Errorf("sql: trailing input at %q", p.cur().text)
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.at] }
func (p *parser) next() token { t := p.toks[p.at]; p.at++; return t }

func (p *parser) peekIs(k tokenKind, text string) bool {
	t := p.cur()
	if t.kind != k {
		return false
	}
	return text == "" || strings.EqualFold(t.text, text)
}

func (p *parser) acceptKeyword(kw string) bool {
	if isKeyword(p.cur(), kw) {
		p.at++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, got %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.at++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return fmt.Errorf("sql: expected %q, got %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) parseSelect() (*Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &Statement{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.items = append(st.items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if p.cur().kind != tokIdent {
		return nil, fmt.Errorf("sql: expected table name, got %q", p.cur().text)
	}
	st.Table = p.next().text
	st.TableAlias = p.parseTableAlias()
	for {
		leftOuter := false
		if p.acceptKeyword("LEFT") {
			p.acceptKeyword("OUTER")
			leftOuter = true
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		jc := joinClause{leftOuter: leftOuter}
		if p.cur().kind != tokIdent {
			return nil, fmt.Errorf("sql: expected join table, got %q", p.cur().text)
		}
		jc.table = p.next().text
		jc.alias = p.parseTableAlias()
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		lk, err := p.parseQualifiedName()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		rk, err := p.parseQualifiedName()
		if err != nil {
			return nil, err
		}
		jc.leftKey, jc.rightKey = lk, rk
		st.joins = append(st.joins, jc)
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		st.where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			name, err := p.parseQualifiedName()
			if err != nil {
				return nil, fmt.Errorf("sql: expected group column, got %q", p.cur().text)
			}
			st.groupBy = append(st.groupBy, name)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		st.having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			name, err := p.parseQualifiedName()
			if err != nil {
				return nil, fmt.Errorf("sql: expected order column, got %q", p.cur().text)
			}
			item := plan.OrderItem{Col: name}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.orderBy = append(st.orderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		if p.cur().kind != tokNumber {
			return nil, fmt.Errorf("sql: LIMIT needs a number, got %q", p.cur().text)
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: invalid LIMIT")
		}
		st.limit = n
	}
	return st, nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	t := p.cur()
	if t.kind == tokSymbol && t.text == "*" {
		p.at++
		return selectItem{star: true}, nil
	}
	if t.kind == tokIdent {
		if agg, ok := aggNames[strings.ToUpper(t.text)]; ok && p.toks[p.at+1].kind == tokSymbol && p.toks[p.at+1].text == "(" {
			p.at += 2
			item := selectItem{agg: agg, isAgg: true}
			if p.acceptSymbol("*") {
				if agg != exec.Count {
					return item, fmt.Errorf("sql: %s(*) is not valid", t.text)
				}
			} else {
				e, err := p.parseOr()
				if err != nil {
					return item, err
				}
				item.e = e
			}
			if err := p.expectSymbol(")"); err != nil {
				return item, err
			}
			item.as = p.parseAlias()
			return item, nil
		}
	}
	e, err := p.parseOr()
	if err != nil {
		return selectItem{}, err
	}
	return selectItem{e: e, as: p.parseAlias()}, nil
}

// reserved continuation keywords that cannot be table aliases.
var reservedAfterTable = []string{"JOIN", "LEFT", "ON", "WHERE", "GROUP",
	"ORDER", "HAVING", "LIMIT", "AS"}

func (p *parser) parseTableAlias() string {
	if p.acceptKeyword("AS") {
		if p.cur().kind == tokIdent {
			return p.next().text
		}
		return ""
	}
	if p.cur().kind != tokIdent {
		return ""
	}
	for _, kw := range reservedAfterTable {
		if isKeyword(p.cur(), kw) {
			return ""
		}
	}
	return p.next().text
}

// parseQualifiedName reads ident[.ident] into a single dotted name.
func (p *parser) parseQualifiedName() (string, error) {
	if p.cur().kind != tokIdent {
		return "", fmt.Errorf("sql: expected column name, got %q", p.cur().text)
	}
	name := p.next().text
	if p.cur().kind == tokSymbol && p.cur().text == "." {
		p.at++
		if p.cur().kind != tokIdent {
			return "", fmt.Errorf("sql: expected column after %q.", name)
		}
		name += "." + p.next().text
	}
	return name, nil
}

func (p *parser) parseAlias() string {
	if p.acceptKeyword("AS") {
		if p.cur().kind == tokIdent {
			return p.next().text
		}
	}
	return ""
}

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = expr.NewOr(l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for isKeyword(p.cur(), "AND") {
		p.at++
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = expr.NewAnd(l, r)
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.NewNot(e), nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]expr.CmpOp{
	"=": expr.EQ, "<>": expr.NE, "!=": expr.NE,
	"<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
}

func (p *parser) parseCmp() (expr.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokSymbol {
		if op, ok := cmpOps[p.cur().text]; ok {
			p.at++
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return expr.NewCmp(op, l, r), nil
		}
	}
	if p.acceptKeyword("IS") {
		negate := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return expr.NewIsNull(l, negate), nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return expr.NewAnd(expr.NewCmp(expr.GE, l, lo), expr.NewCmp(expr.LE, l, hi)), nil
	}
	return l, nil
}

func (p *parser) parseAdd() (expr.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = expr.NewArith(expr.Add, l, r)
		case p.acceptSymbol("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = expr.NewArith(expr.Sub, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (expr.Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			l = expr.NewArith(expr.Mul, l, r)
		case p.acceptSymbol("/"):
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			l = expr.NewArith(expr.Div, l, r)
		case p.acceptSymbol("%"):
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			l = expr.NewArith(expr.Mod, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.at++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.text)
			}
			return expr.NewRealConst(f), nil
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad integer %q", t.text)
		}
		return expr.NewIntConst(v), nil
	case tokString:
		p.at++
		return expr.NewStringConst(t.text), nil
	case tokSymbol:
		if t.text == "(" {
			p.at++
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "-" {
			p.at++
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return expr.NewArith(expr.Sub, expr.NewIntConst(0), e), nil
		}
	case tokIdent:
		upper := strings.ToUpper(t.text)
		switch upper {
		case "TRUE":
			p.at++
			return expr.NewBoolConst(true), nil
		case "FALSE":
			p.at++
			return expr.NewBoolConst(false), nil
		case "NULL":
			p.at++
			return expr.NewNullConst(types.Integer), nil
		case "DATE":
			p.at++
			if p.cur().kind != tokString {
				return nil, fmt.Errorf("sql: DATE needs a 'YYYY-MM-DD' literal")
			}
			lit := p.next().text
			days, err := parseDateLiteral(lit)
			if err != nil {
				return nil, err
			}
			return expr.NewDateConst(days), nil
		}
		if k, ok := dateFuncs[upper]; ok && p.symbolAfter("(") {
			p.at += 2
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return expr.NewDatePart(k, e), nil
		}
		if k, ok := strFuncs[upper]; ok && p.symbolAfter("(") {
			p.at += 2
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return expr.NewStrFunc(k, e), nil
		}
		p.at++
		name := t.text
		if p.cur().kind == tokSymbol && p.cur().text == "." && p.toks[p.at+1].kind == tokIdent {
			p.at++
			name += "." + p.next().text
		}
		// Column reference: type resolved at plan time by Rebind.
		return expr.NewColRef(-1, name, types.Integer), nil
	}
	return nil, fmt.Errorf("sql: unexpected token %q", t.text)
}

func (p *parser) symbolAfter(s string) bool {
	return p.toks[p.at+1].kind == tokSymbol && p.toks[p.at+1].text == s
}

func parseDateLiteral(s string) (int64, error) {
	var y, m, d int
	if _, err := fmt.Sscanf(s, "%d-%d-%d", &y, &m, &d); err != nil {
		return 0, fmt.Errorf("sql: bad date literal %q", s)
	}
	if m < 1 || m > 12 || d < 1 || d > types.DaysInMonth(y, m) {
		return 0, fmt.Errorf("sql: invalid date %q", s)
	}
	return types.DaysFromCivil(y, m, d), nil
}

// ToQuery lowers the statement onto a stored table, producing the planner
// input. Non-trivial select expressions become Compute items; aggregates
// over expressions aggregate the computed column.
func (st *Statement) ToQuery(table *storage.Table) (plan.Query, error) {
	q := plan.Query{Table: table, Where: st.where, GroupBy: st.groupBy,
		OrderBy: st.orderBy, Having: st.having, Limit: st.limit}
	genID := 0
	hasAgg := false
	for _, it := range st.items {
		if it.isAgg {
			hasAgg = true
			break
		}
	}
	for _, it := range st.items {
		switch {
		case it.star:
			if hasAgg || len(st.groupBy) > 0 {
				return q, fmt.Errorf("sql: SELECT * cannot mix with aggregation")
			}
			if len(st.joins) > 0 {
				return q, fmt.Errorf("sql: SELECT * is not supported with joins; list columns")
			}
			for _, c := range table.Columns {
				q.Select = append(q.Select, c.Name)
			}
		case it.isAgg && it.e == nil: // COUNT(*)
			q.Aggs = append(q.Aggs, plan.AggItem{Func: it.agg, Col: "", As: it.as})
		case it.isAgg:
			col, ok := asColumnName(it.e)
			if !ok {
				name := fmt.Sprintf("$expr%d", genID)
				genID++
				q.Compute = append(q.Compute, plan.Computed{Name: name, E: it.e})
				col = name
			}
			q.Aggs = append(q.Aggs, plan.AggItem{Func: it.agg, Col: col, As: it.as})
		default:
			col, ok := asColumnName(it.e)
			if !ok || it.as != "" {
				name := it.as
				if name == "" {
					name = fmt.Sprintf("$expr%d", genID)
					genID++
				}
				if !ok || name != col {
					q.Compute = append(q.Compute, plan.Computed{Name: name, E: it.e})
				}
				col = name
			}
			if hasAgg || len(st.groupBy) > 0 {
				if !contains(q.GroupBy, col) {
					q.GroupBy = append(q.GroupBy, col)
				}
			} else {
				q.Select = append(q.Select, col)
			}
		}
	}
	// GROUP BY items that name computed aliases work because Compute runs
	// before aggregation in the plan.
	return q, nil
}

func asColumnName(e expr.Expr) (string, bool) {
	if c, ok := e.(*expr.ColRef); ok {
		return c.Name, true
	}
	return "", false
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// Build plans the statement against the given tables through the one
// strategic planner, plan.Build; joins become the query's JoinSpecs.
func (st *Statement) Build(tables []*storage.Table, opt plan.Options) (exec.Operator, *plan.Explain, error) {
	return st.BuildViews(tables, nil, opt)
}

// BuildViews is Build with per-table write-overlay snapshots (keyed by
// stored table name): a table with a dirty view scans base + delta
// instead of the compressed base alone. A nil or empty map plans against
// the bases exactly like Build.
func (st *Statement) BuildViews(tables []*storage.Table, views map[string]*delta.View,
	opt plan.Options) (exec.Operator, *plan.Explain, error) {
	lookup := func(name string) *storage.Table {
		for _, t := range tables {
			if strings.EqualFold(t.Name, name) {
				return t
			}
		}
		return nil
	}
	fact := lookup(st.Table)
	if fact == nil {
		return nil, nil, fmt.Errorf("sql: unknown table %q", st.Table)
	}
	q, err := st.ToQuery(fact)
	if err != nil {
		return nil, nil, err
	}
	q.Delta, q.Alias = views[fact.Name], st.TableAlias
	for _, jc := range st.joins {
		dim := lookup(jc.table)
		if dim == nil {
			return nil, nil, fmt.Errorf("sql: unknown join table %q", jc.table)
		}
		// ON a.x = b.y: decide which side belongs to the joined table.
		leftKey, rightKey := jc.leftKey, jc.rightKey
		if belongsTo(rightKey, st.TableAlias, st.Table) ||
			belongsTo(leftKey, jc.alias, jc.table) {
			leftKey, rightKey = rightKey, leftKey
		}
		// Bare fact tables have unprefixed schema names: strip a
		// table-name qualifier from the outer key.
		if st.TableAlias == "" {
			if i := strings.IndexByte(leftKey, '.'); i >= 0 && strings.EqualFold(leftKey[:i], st.Table) {
				leftKey = leftKey[i+1:]
			}
		}
		inner := rightKey
		if i := strings.IndexByte(inner, '.'); i >= 0 {
			inner = inner[i+1:]
		}
		q.Joins = append(q.Joins, plan.JoinSpec{
			Table: dim, Delta: views[dim.Name], Alias: jc.alias,
			OuterKey: leftKey, InnerKey: inner, LeftOuter: jc.leftOuter,
		})
	}
	return plan.Build(q, opt)
}

// belongsTo reports whether a possibly-qualified column name is qualified
// by the given alias or table name.
func belongsTo(name, alias, table string) bool {
	i := strings.IndexByte(name, '.')
	if i < 0 {
		return false
	}
	q := name[:i]
	return q == alias || strings.EqualFold(q, table)
}

// Run parses sql, plans it against tables, executes it and returns the
// column names and formatted rows — the one-call path used by cmd/tdequery
// and the examples.
func Run(sql string, tables []*storage.Table, opt plan.Options) ([]string, [][]string, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	op, _, err := st.Build(tables, opt)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(op.Schema()))
	for _, c := range op.Schema() {
		names = append(names, c.Name)
	}
	rows, err := exec.CollectStrings(op)
	if err != nil {
		return nil, nil, err
	}
	return names, rows, nil
}
