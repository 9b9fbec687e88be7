package expr

import (
	"tde/internal/types"
	"tde/internal/vec"
)

// Simplify performs the strategic optimizer's expression simplification
// pass (Sect. 2.3.1): constant folding and boolean identity elimination.
// It returns a semantically equivalent expression.
func Simplify(e Expr) Expr {
	switch n := e.(type) {
	case *Cmp:
		l, r := Simplify(n.L), Simplify(n.R)
		if lc, ok := l.(*Const); ok {
			if rc, ok2 := r.(*Const); ok2 {
				return foldCmp(n.Op, lc, rc)
			}
		}
		return &Cmp{Op: n.Op, L: l, R: r}
	case *Logic:
		l, r := Simplify(n.L), Simplify(n.R)
		if folded := foldLogic(n.Op, l, r); folded != nil {
			return folded
		}
		return &Logic{Op: n.Op, L: l, R: r}
	case *Not:
		inner := Simplify(n.E)
		if c, ok := inner.(*Const); ok && c.Typ == types.Boolean && c.Bits != types.NullBoolean {
			return NewBoolConst(c.Bits == 0)
		}
		if nn, ok := inner.(*Not); ok {
			return nn.E
		}
		return &Not{E: inner}
	case *Arith:
		l, r := Simplify(n.L), Simplify(n.R)
		if lc, ok := l.(*Const); ok {
			if rc, ok2 := r.(*Const); ok2 {
				return foldArith(n.Op, lc, rc, n)
			}
		}
		return &Arith{Op: n.Op, L: l, R: r}
	case *DatePart:
		inner := Simplify(n.E)
		if c, ok := inner.(*Const); ok && !c.IsNullLiteral() {
			return foldConstUnary(&DatePart{Kind: n.Kind, E: c})
		}
		return &DatePart{Kind: n.Kind, E: inner}
	case *IsNull:
		inner := Simplify(n.E)
		if c, ok := inner.(*Const); ok && c.Typ != types.String {
			return NewBoolConst(c.IsNullLiteral() != n.Negate)
		}
		return &IsNull{E: inner, Negate: n.Negate}
	default:
		return e
	}
}

func foldCmp(op CmpOp, l, r *Const) Expr {
	if l.IsNullLiteral() || r.IsNullLiteral() {
		return &Const{Typ: types.Boolean, Bits: types.NullBoolean}
	}
	if l.Typ == types.String && r.Typ == types.String {
		return NewBoolConst(op.match(types.CollateBinary.Compare(l.Str, r.Str)))
	}
	return NewBoolConst(op.match(compareMixed(l.Typ, l.Bits, r.Typ, r.Bits)))
}

func foldLogic(op LogicOp, l, r Expr) Expr {
	lc, lok := boolConst(l)
	rc, rok := boolConst(r)
	switch op {
	case And:
		if lok && !lc {
			return NewBoolConst(false)
		}
		if rok && !rc {
			return NewBoolConst(false)
		}
		if lok && lc {
			return r
		}
		if rok && rc {
			return l
		}
	case Or:
		if lok && lc {
			return NewBoolConst(true)
		}
		if rok && rc {
			return NewBoolConst(true)
		}
		if lok && !lc {
			return r
		}
		if rok && !rc {
			return l
		}
	}
	return nil
}

func boolConst(e Expr) (val, ok bool) {
	c, isConst := e.(*Const)
	if !isConst || c.Typ != types.Boolean || c.Bits == types.NullBoolean {
		return false, false
	}
	return c.Bits != 0, true
}

func foldArith(op ArithOp, l, r *Const, n *Arith) Expr {
	// Evaluate through the normal path over a one-row block.
	return foldConstUnary(&Arith{Op: op, L: l, R: r})
}

// foldConstUnary evaluates a constant-only expression to a literal.
func foldConstUnary(e Expr) Expr {
	b := &vec.Block{N: 1}
	out := borrow(1)
	defer release(out)
	e.Eval(b, out)
	t := e.Type()
	if t == types.String {
		// Keep string-producing folds unfolded; literals carry Str.
		return e
	}
	return &Const{Typ: t, Bits: out.Data[0]}
}
