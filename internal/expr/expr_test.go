package expr

import (
	"testing"

	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// evalOne evaluates e over a block of n copies of the given column values.
func evalBlock(e Expr, b *vec.Block) []uint64 {
	out := &vec.Vector{Data: make([]uint64, b.N)}
	e.Eval(b, out)
	return out.Data[:b.N]
}

func intBlock(cols ...[]int64) *vec.Block {
	b := &vec.Block{N: len(cols[0])}
	for _, c := range cols {
		v := vec.Vector{Type: types.Integer, Data: make([]uint64, len(c))}
		for i, x := range c {
			v.Data[i] = uint64(x)
		}
		b.Vecs = append(b.Vecs, v)
	}
	return b
}

// TestCmpRealAgainstInteger: a real column against an integer literal
// compares values, not bit patterns (o_totalprice > 150000), and so does
// folding two such literals.
func TestCmpRealAgainstInteger(t *testing.T) {
	b := &vec.Block{N: 3, Vecs: []vec.Vector{{Type: types.Real,
		Data: []uint64{types.FromReal(149999.5), types.FromReal(150000.25), types.NullBits(types.Real)}}}}
	got := evalBlock(NewCmp(GT, NewColRef(0, "p", types.Real), NewIntConst(150000)), b)
	if got[0] != 0 || got[1] != 1 || got[2] != types.NullBoolean {
		t.Errorf("real > integer literal: %v", got)
	}
	got = evalBlock(NewCmp(LT, NewIntConst(150000), NewColRef(0, "p", types.Real)), b)
	if got[0] != 0 || got[1] != 1 || got[2] != types.NullBoolean {
		t.Errorf("integer literal < real: %v", got)
	}
	if c, ok := Simplify(NewCmp(LT, NewIntConst(1), NewRealConst(1.5))).(*Const); !ok || c.Bits != types.FromBool(true) {
		t.Errorf("1 < 1.5 folded to %v", c)
	}
}

func TestCmpIntegers(t *testing.T) {
	b := intBlock([]int64{1, 5, -3, types.NullInteger})
	e := NewCmp(GT, NewColRef(0, "a", types.Integer), NewIntConst(0))
	got := evalBlock(e, b)
	if got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Errorf("comparison wrong: %v", got[:3])
	}
	if got[3] != types.NullBoolean {
		t.Error("NULL comparison must yield NULL")
	}
}

func TestCmpOps(t *testing.T) {
	b := intBlock([]int64{5})
	for _, c := range []struct {
		op   CmpOp
		rhs  int64
		want uint64
	}{
		{EQ, 5, 1}, {EQ, 4, 0}, {NE, 4, 1}, {LT, 6, 1}, {LT, 5, 0},
		{LE, 5, 1}, {GT, 4, 1}, {GE, 5, 1}, {GE, 6, 0},
	} {
		e := NewCmp(c.op, NewColRef(0, "a", types.Integer), NewIntConst(c.rhs))
		if got := evalBlock(e, b)[0]; got != c.want {
			t.Errorf("5 %v %d = %d, want %d", c.op, c.rhs, got, c.want)
		}
	}
}

func TestLogicThreeValued(t *testing.T) {
	null := NewNullConst(types.Boolean)
	tr := NewBoolConst(true)
	fa := NewBoolConst(false)
	b := &vec.Block{N: 1, Vecs: []vec.Vector{{Data: make([]uint64, 1)}}}
	cases := []struct {
		e    Expr
		want uint64
	}{
		{NewAnd(tr, tr), 1},
		{NewAnd(tr, fa), 0},
		{NewAnd(fa, null), 0}, // false AND NULL = false
		{NewAnd(tr, null), types.NullBoolean},
		{NewOr(fa, fa), 0},
		{NewOr(fa, tr), 1},
		{NewOr(tr, null), 1}, // true OR NULL = true
		{NewOr(fa, null), types.NullBoolean},
		{NewNot(tr), 0},
		{NewNot(fa), 1},
		{NewNot(null), types.NullBoolean},
	}
	for i, c := range cases {
		if got := evalBlock(c.e, b)[0]; got != c.want {
			t.Errorf("case %d (%s): got %#x want %#x", i, c.e, got, c.want)
		}
	}
}

func TestArith(t *testing.T) {
	b := intBlock([]int64{10}, []int64{3})
	a := NewColRef(0, "a", types.Integer)
	c := NewColRef(1, "b", types.Integer)
	cases := map[ArithOp]int64{Add: 13, Sub: 7, Mul: 30, Div: 3, Mod: 1}
	for op, want := range cases {
		if got := int64(evalBlock(NewArith(op, a, c), b)[0]); got != want {
			t.Errorf("10 %v 3 = %d, want %d", op, got, want)
		}
	}
}

func TestArithDivZeroAndNull(t *testing.T) {
	b := intBlock([]int64{10, types.NullInteger}, []int64{0, 3})
	e := NewArith(Div, NewColRef(0, "a", types.Integer), NewColRef(1, "b", types.Integer))
	got := evalBlock(e, b)
	if !types.IsNull(types.Integer, got[0]) {
		t.Error("x/0 must be NULL")
	}
	if !types.IsNull(types.Integer, got[1]) {
		t.Error("NULL/x must be NULL")
	}
}

func TestArithMixedReal(t *testing.T) {
	b := &vec.Block{N: 1, Vecs: []vec.Vector{
		{Type: types.Integer, Data: []uint64{uint64(int64(3))}},
		{Type: types.Real, Data: []uint64{types.FromReal(0.5)}},
	}}
	e := NewArith(Add, NewColRef(0, "i", types.Integer), NewColRef(1, "r", types.Real))
	if e.Type() != types.Real {
		t.Fatal("int+real must be real")
	}
	if got := types.ToReal(evalBlock(e, b)[0]); got != 3.5 {
		t.Errorf("3 + 0.5 = %v", got)
	}
}

func TestDateParts(t *testing.T) {
	d := types.DaysFromCivil(2014, 6, 22)
	b := &vec.Block{N: 1, Vecs: []vec.Vector{{Type: types.Date, Data: []uint64{uint64(d)}}}}
	col := NewColRef(0, "d", types.Date)
	if got := int64(evalBlock(NewDatePart(Year, col), b)[0]); got != 2014 {
		t.Errorf("YEAR = %d", got)
	}
	if got := int64(evalBlock(NewDatePart(Month, col), b)[0]); got != 6 {
		t.Errorf("MONTH = %d", got)
	}
	if got := int64(evalBlock(NewDatePart(Day, col), b)[0]); got != 22 {
		t.Errorf("DAY = %d", got)
	}
	if got := int64(evalBlock(NewDatePart(TruncMonth, col), b)[0]); got != types.DaysFromCivil(2014, 6, 1) {
		t.Errorf("TRUNC_MONTH = %d", got)
	}
}

func TestStringCompareAndFuncs(t *testing.T) {
	h := heap.New(types.CollateBinary)
	toks := []uint64{
		h.Append("GET /index.html"),
		h.Append("GET /img/logo.png?v=2"),
		h.Append("GET /api/data"),
	}
	b := &vec.Block{N: 3, Vecs: []vec.Vector{{Type: types.String, Heap: h, Data: toks}}}
	col := NewColRef(0, "url", types.String)

	eq := NewCmp(EQ, col, NewStringConst("GET /api/data"))
	got := evalBlock(eq, b)
	if got[0] != 0 || got[2] != 1 {
		t.Errorf("string equality wrong: %v", got)
	}

	ext := NewStrFunc(FileExt, col)
	out := &vec.Vector{Data: make([]uint64, 3)}
	ext.Eval(b, out)
	if out.Heap == nil {
		t.Fatal("string function must produce a heap")
	}
	if out.Heap.Get(out.Data[0]) != "html" {
		t.Errorf("ext[0] = %q", out.Heap.Get(out.Data[0]))
	}
	if out.Heap.Get(out.Data[1]) != "png" {
		t.Errorf("ext[1] = %q (query string must be stripped)", out.Heap.Get(out.Data[1]))
	}
	if out.Heap.Get(out.Data[2]) != "" {
		t.Errorf("ext[2] = %q", out.Heap.Get(out.Data[2]))
	}

	ln := NewStrFunc(Length, col)
	if got := int64(evalBlock(ln, b)[0]); got != 15 {
		t.Errorf("LENGTH = %d", got)
	}
	up := NewStrFunc(Upper, col)
	upOut := &vec.Vector{Data: make([]uint64, 3)}
	up.Eval(b, upOut)
	if upOut.Heap.Get(upOut.Data[2]) != "GET /API/DATA" {
		t.Errorf("UPPER = %q", upOut.Heap.Get(upOut.Data[2]))
	}
}

func TestStringTokenFastPathSortedHeap(t *testing.T) {
	h := heap.New(types.CollateBinary)
	a := h.Append("apple")
	bn := h.Append("banana")
	h.IsSortedOrder()
	if !h.Sorted() {
		t.Fatal("setup: heap should be sorted")
	}
	blk := &vec.Block{N: 2, Vecs: []vec.Vector{
		{Type: types.String, Heap: h, Data: []uint64{a, bn}},
		{Type: types.String, Heap: h, Data: []uint64{bn, bn}},
	}}
	e := NewCmp(LT, NewColRef(0, "x", types.String), NewColRef(1, "y", types.String))
	got := evalBlock(e, blk)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("token fast path wrong: %v", got)
	}
}

func TestIsNull(t *testing.T) {
	b := intBlock([]int64{1, types.NullInteger})
	e := NewIsNull(NewColRef(0, "a", types.Integer), false)
	got := evalBlock(e, b)
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("IS NULL wrong: %v", got)
	}
	e = NewIsNull(NewColRef(0, "a", types.Integer), true)
	got = evalBlock(e, b)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("IS NOT NULL wrong: %v", got)
	}
}

func TestSimplifyConstantFolding(t *testing.T) {
	e := NewArith(Add, NewIntConst(2), NewIntConst(3))
	s := Simplify(e)
	c, ok := s.(*Const)
	if !ok || int64(c.Bits) != 5 {
		t.Fatalf("2+3 folded to %s", s)
	}
	cmp := Simplify(NewCmp(LT, NewIntConst(1), NewIntConst(2)))
	if c, ok := cmp.(*Const); !ok || c.Bits != 1 {
		t.Fatalf("1<2 folded to %s", cmp)
	}
}

func TestSimplifyBooleanIdentities(t *testing.T) {
	x := NewCmp(GT, NewColRef(0, "a", types.Integer), NewIntConst(0))
	if s := Simplify(NewAnd(x, NewBoolConst(true))); s.String() != x.String() {
		t.Errorf("x AND true = %s", s)
	}
	if s := Simplify(NewAnd(x, NewBoolConst(false))); s.String() != "false" {
		t.Errorf("x AND false = %s", s)
	}
	if s := Simplify(NewOr(x, NewBoolConst(true))); s.String() != "true" {
		t.Errorf("x OR true = %s", s)
	}
	if s := Simplify(NewOr(NewBoolConst(false), x)); s.String() != x.String() {
		t.Errorf("false OR x = %s", s)
	}
	if s := Simplify(NewNot(NewNot(x))); s.String() != x.String() {
		t.Errorf("NOT NOT x = %s", s)
	}
}

func TestSimplifyNullPropagation(t *testing.T) {
	e := Simplify(NewCmp(EQ, NewNullConst(types.Integer), NewIntConst(1)))
	c, ok := e.(*Const)
	if !ok || c.Bits != types.NullBoolean {
		t.Fatalf("NULL = 1 folded to %s", e)
	}
	is := Simplify(NewIsNull(NewNullConst(types.Integer), false))
	if c, ok := is.(*Const); !ok || c.Bits != 1 {
		t.Fatalf("NULL IS NULL folded to %s", is)
	}
}

func TestExprStrings(t *testing.T) {
	e := NewAnd(
		NewCmp(GE, NewColRef(0, "d", types.Date), NewDateConst(0)),
		NewNot(NewIsNull(NewColRef(1, "x", types.Integer), false)))
	s := e.String()
	if s == "" {
		t.Fatal("empty rendering")
	}
	for _, want := range []string{"d", ">=", "NOT", "IS NULL", "AND"} {
		if !contains(s, want) {
			t.Errorf("rendering %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
