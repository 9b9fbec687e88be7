package plan

import (
	"fmt"

	"tde/internal/exec"
	"tde/internal/expr"
)

// Rebind clones e with every column reference resolved by name against
// schema. The strategic optimizer uses it when it moves predicates and
// computations between plan positions (push-down into the IndexTable's
// inner side changes the input schema under the expression).
func Rebind(e expr.Expr, schema []exec.ColInfo) (expr.Expr, error) {
	switch n := e.(type) {
	case *expr.ColRef:
		for i, c := range schema {
			if c.Name == n.Name {
				return expr.NewColRef(i, n.Name, c.Type), nil
			}
		}
		return nil, fmt.Errorf("plan: unknown column %q", n.Name)
	case *expr.Const:
		return n, nil
	case *expr.Cmp:
		l, err := Rebind(n.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := Rebind(n.R, schema)
		if err != nil {
			return nil, err
		}
		return expr.NewCmp(n.Op, l, r), nil
	case *expr.Logic:
		l, err := Rebind(n.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := Rebind(n.R, schema)
		if err != nil {
			return nil, err
		}
		return &expr.Logic{Op: n.Op, L: l, R: r}, nil
	case *expr.Not:
		inner, err := Rebind(n.E, schema)
		if err != nil {
			return nil, err
		}
		return expr.NewNot(inner), nil
	case *expr.IsNull:
		inner, err := Rebind(n.E, schema)
		if err != nil {
			return nil, err
		}
		return expr.NewIsNull(inner, n.Negate), nil
	case *expr.Arith:
		l, err := Rebind(n.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := Rebind(n.R, schema)
		if err != nil {
			return nil, err
		}
		return expr.NewArith(n.Op, l, r), nil
	case *expr.DatePart:
		inner, err := Rebind(n.E, schema)
		if err != nil {
			return nil, err
		}
		return expr.NewDatePart(n.Kind, inner), nil
	case *expr.StrFunc:
		inner, err := Rebind(n.E, schema)
		if err != nil {
			return nil, err
		}
		return expr.NewStrFunc(n.Kind, inner), nil
	default:
		return nil, fmt.Errorf("plan: cannot rebind %T", e)
	}
}

// Columns collects the distinct column names referenced by e.
func Columns(e expr.Expr) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(expr.Expr)
	walk = func(x expr.Expr) {
		switch n := x.(type) {
		case *expr.ColRef:
			if !seen[n.Name] {
				seen[n.Name] = true
				out = append(out, n.Name)
			}
		case *expr.Cmp:
			walk(n.L)
			walk(n.R)
		case *expr.Logic:
			walk(n.L)
			walk(n.R)
		case *expr.Not:
			walk(n.E)
		case *expr.IsNull:
			walk(n.E)
		case *expr.Arith:
			walk(n.L)
			walk(n.R)
		case *expr.DatePart:
			walk(n.E)
		case *expr.StrFunc:
			walk(n.E)
		}
	}
	walk(e)
	return out
}
