// Package expr implements the TDE calculation language subset used by the
// engine's Select and Project operators and by the decompression-join
// rewrites: comparisons, boolean logic, arithmetic, date part extraction
// and the string functions the paper's examples rely on (file-extension
// extraction on URL columns, Sect. 4.1.2; month roll-ups, Sect. 8).
//
// Expressions evaluate block-at-a-time over vec.Block inputs. NULL follows
// Tableau semantics: any NULL operand yields NULL, and predicates treat
// NULL as false.
package expr

import (
	"fmt"
	"strings"

	"tde/internal/types"
	"tde/internal/vec"
)

// Expr is a typed expression over the columns of a block.
type Expr interface {
	// Type returns the expression's result type.
	Type() types.Type
	// Eval evaluates over b, writing b.N results into out (whose Data must
	// have capacity for b.N values). String-typed results set out.Heap.
	Eval(b *vec.Block, out *vec.Vector)
	// String renders the expression for plans and EXPLAIN output.
	String() string
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// match reports whether a three-way comparison result satisfies op.
func (op CmpOp) match(c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	default:
		return c >= 0
	}
}

// --- column reference ---

// ColRef reads column Idx of the input block.
type ColRef struct {
	Idx  int
	Name string
	Typ  types.Type
}

// NewColRef builds a column reference.
func NewColRef(idx int, name string, t types.Type) *ColRef {
	return &ColRef{Idx: idx, Name: name, Typ: t}
}

func (c *ColRef) Type() types.Type { return c.Typ }

func (c *ColRef) Eval(b *vec.Block, out *vec.Vector) {
	in := &b.Vecs[c.Idx]
	out.Type = c.Typ
	out.Heap = in.Heap
	out.Dict = in.Dict
	copy(out.Data[:b.N], in.Data[:b.N])
}

func (c *ColRef) String() string { return c.Name }

// --- constant ---

// Const is a literal value.
type Const struct {
	Typ  types.Type
	Bits uint64
	Str  string // for string literals
}

// NewIntConst builds an integer literal.
func NewIntConst(v int64) *Const { return &Const{Typ: types.Integer, Bits: uint64(v)} }

// NewRealConst builds a real literal.
func NewRealConst(v float64) *Const { return &Const{Typ: types.Real, Bits: types.FromReal(v)} }

// NewBoolConst builds a boolean literal.
func NewBoolConst(v bool) *Const { return &Const{Typ: types.Boolean, Bits: types.FromBool(v)} }

// NewDateConst builds a date literal from days since epoch.
func NewDateConst(days int64) *Const { return &Const{Typ: types.Date, Bits: uint64(days)} }

// NewStringConst builds a string literal.
func NewStringConst(s string) *Const { return &Const{Typ: types.String, Str: s} }

// NewNullConst builds a typed NULL.
func NewNullConst(t types.Type) *Const { return &Const{Typ: t, Bits: types.NullBits(t)} }

func (c *Const) Type() types.Type { return c.Typ }

func (c *Const) Eval(b *vec.Block, out *vec.Vector) {
	out.Type = c.Typ
	out.Heap = nil
	out.Dict = nil
	for i := 0; i < b.N; i++ {
		out.Data[i] = c.Bits
	}
}

func (c *Const) String() string {
	if c.Typ == types.String {
		return fmt.Sprintf("%q", c.Str)
	}
	return types.Format(c.Typ, c.Bits)
}

// IsNullLiteral reports whether the constant is a NULL.
func (c *Const) IsNullLiteral() bool {
	return c.Typ != types.String && types.IsNull(c.Typ, c.Bits)
}

// --- comparison ---

// Cmp compares two subexpressions. String comparisons use heap tokens
// directly when the heap is sorted, otherwise collated content comparison
// (Sect. 2.3.4).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp builds a comparison.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

func (c *Cmp) Type() types.Type { return types.Boolean }

func (c *Cmp) Eval(b *vec.Block, out *vec.Vector) {
	lv := borrow(b.N)
	rv := borrow(b.N)
	defer release(lv)
	defer release(rv)
	c.L.Eval(b, lv)
	c.R.Eval(b, rv)
	out.Type = types.Boolean
	out.Heap = nil
	out.Dict = nil
	t := c.L.Type()
	// Literal string against a token column.
	if t == types.String {
		c.evalString(b, lv, rv, out)
		return
	}
	rt := c.R.Type()
	for i := 0; i < b.N; i++ {
		a, bb := lv.Value(i), rv.Value(i)
		if types.IsNull(t, a) || types.IsNull(rt, bb) {
			out.Data[i] = types.NullBoolean
			continue
		}
		out.Data[i] = types.FromBool(c.Op.match(compareMixed(t, a, rt, bb)))
	}
}

// compareMixed compares a of type lt with b of type rt: as reals when
// exactly one side is real, the promotion arithmetic applies too
// (o_totalprice > 150000), otherwise in lt's domain.
func compareMixed(lt types.Type, a uint64, rt types.Type, b uint64) int {
	if lt != rt && (lt == types.Real || rt == types.Real) {
		return types.Compare(types.Real, types.FromReal(asReal(lt, a)), types.FromReal(asReal(rt, b)))
	}
	return types.Compare(lt, a, b)
}

func (c *Cmp) evalString(b *vec.Block, lv, rv *vec.Vector, out *vec.Vector) {
	// Resolve either side: a token vector with a heap, or a literal.
	lc, _ := c.L.(*Const)
	rc, _ := c.R.(*Const)
	get := func(v *vec.Vector, lit *Const, i int) (string, bool) {
		if lit != nil {
			return lit.Str, false
		}
		tok := v.Data[i]
		if tok == types.NullToken {
			return "", true
		}
		return v.Heap.Get(tok), false
	}
	// Fast path: both sides token vectors over the same sorted heap —
	// integer comparison of tokens (the sorted-heap win of Sect. 2.3.4).
	if lc == nil && rc == nil && lv.Heap != nil && lv.Heap == rv.Heap && lv.Heap.Sorted() {
		for i := 0; i < b.N; i++ {
			a, bb := lv.Data[i], rv.Data[i]
			if a == types.NullToken || bb == types.NullToken {
				out.Data[i] = types.NullBoolean
				continue
			}
			out.Data[i] = types.FromBool(c.Op.match(types.Compare(types.String, a, bb)))
		}
		return
	}
	coll := types.CollateBinary
	if lv.Heap != nil {
		coll = lv.Heap.Collation()
	} else if rv.Heap != nil {
		coll = rv.Heap.Collation()
	}
	for i := 0; i < b.N; i++ {
		a, an := get(lv, lc, i)
		bb, bn := get(rv, rc, i)
		if an || bn {
			out.Data[i] = types.NullBoolean
			continue
		}
		out.Data[i] = types.FromBool(c.Op.match(coll.Compare(a, bb)))
	}
}

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// --- boolean logic ---

// LogicOp is a boolean connective.
type LogicOp uint8

// Boolean connectives.
const (
	And LogicOp = iota
	Or
)

// Logic combines boolean subexpressions with three-valued NULL logic.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// NewAnd conjoins two predicates.
func NewAnd(l, r Expr) *Logic { return &Logic{Op: And, L: l, R: r} }

// NewOr disjoins two predicates.
func NewOr(l, r Expr) *Logic { return &Logic{Op: Or, L: l, R: r} }

func (l *Logic) Type() types.Type { return types.Boolean }

func (l *Logic) Eval(b *vec.Block, out *vec.Vector) {
	lv := borrow(b.N)
	rv := borrow(b.N)
	defer release(lv)
	defer release(rv)
	l.L.Eval(b, lv)
	l.R.Eval(b, rv)
	out.Type = types.Boolean
	out.Heap = nil
	out.Dict = nil
	for i := 0; i < b.N; i++ {
		a, bb := lv.Data[i], rv.Data[i]
		an := a == types.NullBoolean
		bn := bb == types.NullBoolean
		switch l.Op {
		case And:
			switch {
			case !an && a == 0, !bn && bb == 0:
				out.Data[i] = 0
			case an || bn:
				out.Data[i] = types.NullBoolean
			default:
				out.Data[i] = 1
			}
		case Or:
			switch {
			case !an && a != 0, !bn && bb != 0:
				out.Data[i] = 1
			case an || bn:
				out.Data[i] = types.NullBoolean
			default:
				out.Data[i] = 0
			}
		}
	}
}

func (l *Logic) String() string {
	op := "AND"
	if l.Op == Or {
		op = "OR"
	}
	return fmt.Sprintf("(%s %s %s)", l.L, op, l.R)
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// NewNot negates a predicate.
func NewNot(e Expr) *Not { return &Not{E: e} }

func (n *Not) Type() types.Type { return types.Boolean }

func (n *Not) Eval(b *vec.Block, out *vec.Vector) {
	n.E.Eval(b, out)
	for i := 0; i < b.N; i++ {
		if out.Data[i] != types.NullBoolean {
			out.Data[i] ^= 1
		}
	}
}

func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// IsNull tests for the NULL sentinel.
type IsNull struct {
	E      Expr
	Negate bool
}

// NewIsNull builds an IS [NOT] NULL test.
func NewIsNull(e Expr, negate bool) *IsNull { return &IsNull{E: e, Negate: negate} }

func (n *IsNull) Type() types.Type { return types.Boolean }

func (n *IsNull) Eval(b *vec.Block, out *vec.Vector) {
	v := borrow(b.N)
	defer release(v)
	n.E.Eval(b, v)
	out.Type = types.Boolean
	out.Heap = nil
	out.Dict = nil
	for i := 0; i < b.N; i++ {
		// Vector.IsNull knows the representation: the NULL token for
		// dictionary/heap vectors, the type sentinel for plain scalars.
		// Checking the type sentinel on raw token data would miss
		// dictionary NULLs.
		out.Data[i] = types.FromBool(v.IsNull(i) != n.Negate)
	}
}

func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.E)
	}
	return fmt.Sprintf("(%s IS NULL)", n.E)
}

// --- arithmetic ---

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[op] }

// Arith combines numeric subexpressions. Integer division by zero yields
// NULL (Tableau calculation semantics).
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith builds an arithmetic node.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

func (a *Arith) Type() types.Type {
	if a.L.Type() == types.Real || a.R.Type() == types.Real {
		return types.Real
	}
	return types.Integer
}

func (a *Arith) Eval(b *vec.Block, out *vec.Vector) {
	lv := borrow(b.N)
	rv := borrow(b.N)
	defer release(lv)
	defer release(rv)
	a.L.Eval(b, lv)
	a.R.Eval(b, rv)
	t := a.Type()
	out.Type = t
	out.Heap = nil
	out.Dict = nil
	lt, rt := a.L.Type(), a.R.Type()
	for i := 0; i < b.N; i++ {
		x, y := lv.Value(i), rv.Value(i)
		if types.IsNull(lt, x) || types.IsNull(rt, y) {
			out.Data[i] = types.NullBits(t)
			continue
		}
		if t == types.Real {
			fx := asReal(lt, x)
			fy := asReal(rt, y)
			var r float64
			switch a.Op {
			case Add:
				r = fx + fy
			case Sub:
				r = fx - fy
			case Mul:
				r = fx * fy
			case Div:
				if fy == 0 {
					out.Data[i] = types.NullBits(types.Real)
					continue
				}
				r = fx / fy
			case Mod:
				out.Data[i] = types.NullBits(types.Real)
				continue
			}
			out.Data[i] = types.FromReal(r)
			continue
		}
		ix, iy := int64(x), int64(y)
		switch a.Op {
		case Add:
			out.Data[i] = uint64(ix + iy)
		case Sub:
			out.Data[i] = uint64(ix - iy)
		case Mul:
			out.Data[i] = uint64(ix * iy)
		case Div:
			if iy == 0 {
				out.Data[i] = types.NullBits(types.Integer)
			} else {
				out.Data[i] = uint64(ix / iy)
			}
		case Mod:
			if iy == 0 {
				out.Data[i] = types.NullBits(types.Integer)
			} else {
				out.Data[i] = uint64(ix % iy)
			}
		}
	}
}

func asReal(t types.Type, bits uint64) float64 {
	if t == types.Real {
		return types.ToReal(bits)
	}
	return float64(int64(bits))
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// --- date functions ---

// DatePartKind selects a date extraction or truncation.
type DatePartKind uint8

// Date functions.
const (
	Year DatePartKind = iota
	Month
	Day
	TruncMonth
	TruncYear
)

func (k DatePartKind) String() string {
	return [...]string{"YEAR", "MONTH", "DAY", "TRUNC_MONTH", "TRUNC_YEAR"}[k]
}

// DatePart extracts or truncates a component of a Date expression. These
// are the "expensive calculations" on date domains that dictionary
// compression amortizes (Sect. 3.4.3): computed once per domain value
// instead of once per row when a filter's token truth table is built.
type DatePart struct {
	Kind DatePartKind
	E    Expr
}

// NewDatePart builds a date part node.
func NewDatePart(k DatePartKind, e Expr) *DatePart { return &DatePart{Kind: k, E: e} }

func (d *DatePart) Type() types.Type {
	switch d.Kind {
	case TruncMonth, TruncYear:
		return types.Date
	default:
		return types.Integer
	}
}

func (d *DatePart) Eval(b *vec.Block, out *vec.Vector) {
	v := borrow(b.N)
	defer release(v)
	d.E.Eval(b, v)
	out.Type = d.Type()
	out.Heap = nil
	out.Dict = nil
	for i := 0; i < b.N; i++ {
		bits := v.Value(i)
		if types.IsNull(types.Date, bits) {
			out.Data[i] = types.NullBits(out.Type)
			continue
		}
		days := int64(bits)
		switch d.Kind {
		case Year:
			out.Data[i] = uint64(int64(types.DateYear(days)))
		case Month:
			out.Data[i] = uint64(int64(types.DateMonth(days)))
		case Day:
			out.Data[i] = uint64(int64(types.DateDay(days)))
		case TruncMonth:
			out.Data[i] = uint64(types.DateTruncMonth(days))
		case TruncYear:
			out.Data[i] = uint64(types.DateTruncYear(days))
		}
	}
}

func (d *DatePart) String() string {
	return fmt.Sprintf("%s(%s)", d.Kind, d.E)
}

// --- string functions ---

// StrFuncKind selects a string function.
type StrFuncKind uint8

// String functions.
const (
	// FileExt extracts the file extension from a path/URL — the
	// Sect. 4.1.2 workload ("counting the number of requests for each
	// file type").
	FileExt StrFuncKind = iota
	// Upper upper-cases ASCII.
	Upper
	// Lower lower-cases ASCII.
	Lower
	// Length returns the byte length as an integer.
	Length
)

func (k StrFuncKind) String() string {
	return [...]string{"FILE_EXT", "UPPER", "LOWER", "LENGTH"}[k]
}

// StrFunc applies a string function. Results that are strings are interned
// into a fresh unsorted heap with non-distinct, wide tokens — exactly the
// situation FlowTable's post-processing then cleans up (Sect. 4.1.2: "the
// computation therefore produces a column with wide tokens and an
// unsorted heap").
type StrFunc struct {
	Kind StrFuncKind
	E    Expr
}

// NewStrFunc builds a string function node.
func NewStrFunc(k StrFuncKind, e Expr) *StrFunc { return &StrFunc{Kind: k, E: e} }

func (s *StrFunc) Type() types.Type {
	if s.Kind == Length {
		return types.Integer
	}
	return types.String
}

func (s *StrFunc) Eval(b *vec.Block, out *vec.Vector) {
	v := borrow(b.N)
	defer release(v)
	s.E.Eval(b, v)
	out.Type = s.Type()
	out.Dict = nil
	if s.Kind == Length {
		out.Heap = nil
		for i := 0; i < b.N; i++ {
			if v.Data[i] == types.NullToken {
				out.Data[i] = types.NullBits(types.Integer)
				continue
			}
			out.Data[i] = uint64(int64(len(v.Heap.Get(v.Data[i]))))
		}
		return
	}
	// String-producing functions: the library "is probably unable to
	// estimate the resulting domain ahead of time", so results go into a
	// plain per-block heap with no dedup or ordering guarantees.
	outHeap := newScratchHeap(v.Heap)
	out.Heap = outHeap
	for i := 0; i < b.N; i++ {
		if v.Data[i] == types.NullToken {
			out.Data[i] = types.NullToken
			continue
		}
		in := v.Heap.Get(v.Data[i])
		var r string
		switch s.Kind {
		case FileExt:
			r = fileExt(in)
		case Upper:
			r = strings.ToUpper(in)
		case Lower:
			r = strings.ToLower(in)
		}
		out.Data[i] = outHeap.Append(r)
	}
}

// fileExt extracts the extension of the path component of a URL or file
// name, ignoring query strings and fragments.
func fileExt(s string) string {
	if i := strings.IndexAny(s, "?#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	if i := strings.LastIndexByte(s, '.'); i > 0 {
		return s[i+1:]
	}
	return ""
}

func (s *StrFunc) String() string {
	return fmt.Sprintf("%s(%s)", s.Kind, s.E)
}
