package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tde/internal/enc"
	"tde/internal/expr"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// Columns of the conjunct test block.
const (
	cjInt = iota
	cjDate
	cjReal
	cjDict
	cjStr
	cjCols
)

var otherNaN = math.Float64bits(math.NaN()) ^ 1 // a NaN that is not the NULL pattern

// minPlusOne is the least non-NULL integer, as bits.
const minPlusOne = 1<<63 + 1

// conjunctBlock builds a block whose columns cycle through the values the
// kernels must get right: NULL sentinels, the extremes next to them,
// non-NULL NaN, ±Inf and ±0, a dictionary holding the NULL token and a
// converted NULL entry, and a heap column.
func conjunctBlock() (*vec.Block, []expr.Expr) {
	ints := []uint64{types.NullBits(types.Integer), minPlusOne, ^uint64(0), 0, 1, 5, 7,
		math.MaxInt64, math.MaxInt64 - 1, 100, 2, 3}
	reals := []uint64{types.NullRealBits, otherNaN, types.FromReal(math.Inf(1)), types.FromReal(math.Inf(-1)),
		types.FromReal(math.Copysign(0, -1)), 0, types.FromReal(2.5), types.FromReal(-2.5), types.FromReal(5),
		types.FromReal(1e300), types.FromReal(math.MaxFloat64), 1, types.FromReal(7)}
	dict := []uint64{10, 20, types.NullBits(types.Integer), 30}
	toks := []uint64{0, 1, 2, 3, types.NullToken}
	h := heap.New(types.CollateBinary)
	strs := []uint64{h.Append("a"), h.Append("b"), types.NullToken, h.Append("c"), h.Append("b")}

	b := vec.NewBlock(cjCols)
	const n = 240
	for i := 0; i < n; i++ {
		b.Vecs[cjInt].Data[i] = ints[i%len(ints)]
		b.Vecs[cjDate].Data[i] = ints[(i/3)%len(ints)]
		b.Vecs[cjReal].Data[i] = reals[i%len(reals)]
		b.Vecs[cjDict].Data[i] = toks[(i/2)%len(toks)]
		b.Vecs[cjStr].Data[i] = strs[(i/5)%len(strs)]
	}
	b.N = n
	b.Vecs[cjInt].Type = types.Integer
	b.Vecs[cjDate].Type = types.Date
	b.Vecs[cjReal].Type = types.Real
	b.Vecs[cjDict].Type, b.Vecs[cjDict].Dict = types.Integer, dict
	b.Vecs[cjStr].Type, b.Vecs[cjStr].Heap = types.String, h
	refs := []expr.Expr{
		expr.NewColRef(cjInt, "i", types.Integer),
		expr.NewColRef(cjDate, "d", types.Date),
		expr.NewColRef(cjReal, "r", types.Real),
		expr.NewColRef(cjDict, "g", types.Integer),
		expr.NewColRef(cjStr, "s", types.String),
	}
	return b, refs
}

// conjunctConsts are the constants comparisons draw from.
func conjunctConsts() []*expr.Const {
	return []*expr.Const{
		expr.NewIntConst(math.MinInt64 + 1), expr.NewIntConst(-1), expr.NewIntConst(0),
		expr.NewIntConst(5), expr.NewIntConst(20), expr.NewIntConst(math.MaxInt64),
		expr.NewNullConst(types.Integer), expr.NewDateConst(7), expr.NewNullConst(types.Date),
		{Typ: types.Real, Bits: otherNaN}, expr.NewNullConst(types.Real),
		expr.NewRealConst(math.Inf(1)), expr.NewRealConst(math.Inf(-1)),
		expr.NewRealConst(math.Copysign(0, -1)), expr.NewRealConst(0), expr.NewRealConst(2.5),
		expr.NewRealConst(5), expr.NewRealConst(-2.5),
	}
}

// evalSelect is the reference: the predicate evaluated row at a time.
func evalSelect(pred expr.Expr, b *vec.Block) []int32 {
	res := vec.Vector{Data: make([]uint64, vec.BlockSize)}
	pred.Eval(b, &res)
	var keep []int32
	for i := 0; i < b.N; i++ {
		if truthy(res.Data[i]) {
			keep = append(keep, int32(i))
		}
	}
	return keep
}

// checkSelect runs pred through a fresh Select and compares its output
// with the reference rows of b.
func checkSelect(t *testing.T, pred expr.Expr, b *vec.Block) *filterProg {
	t.Helper()
	s := NewSelect(nil, pred)
	out := vec.NewBlock(len(b.Vecs))
	n := s.Transform(b, out)
	want := evalSelect(pred, b)
	if n != len(want) || out.N != n {
		t.Fatalf("%s: kept %d rows, eval keeps %d", pred, n, len(want))
	}
	for k, i := range want {
		for c := range b.Vecs {
			if got, w := out.Vecs[c].Data[k], b.Vecs[c].Data[i]; got != w {
				t.Fatalf("%s: output row %d column %d is %#x, want row %d's %#x", pred, k, c, got, i, w)
			}
		}
	}
	return s.prog
}

// TestConjunctKernelsMatchEval checks every compiled routine against
// pred.Eval: each comparison alone in both operand orders, then random
// conjunctions mixing kernels, token tables and an OR/NOT/IS NULL residue.
func TestConjunctKernelsMatchEval(t *testing.T) {
	b, refs := conjunctBlock()
	consts := conjunctConsts()
	ops := []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
	var cmps []expr.Expr
	for col, ref := range refs[:cjStr] {
		for _, k := range consts {
			for _, op := range ops {
				for _, e := range []expr.Expr{expr.NewCmp(op, ref, k), expr.NewCmp(op, k, ref)} {
					p := checkSelect(t, e, b)
					want := groupKernel
					if col == cjDict {
						want = groupTokens
					}
					if len(p.groups) != 1 || p.groups[0].kind != want {
						t.Fatalf("%s compiled to %+v, want one group of kind %d", e, p.groups, want)
					}
					cmps = append(cmps, e)
				}
			}
		}
	}
	residue := []expr.Expr{
		expr.NewOr(expr.NewCmp(expr.LT, refs[cjInt], expr.NewIntConst(2)), expr.NewCmp(expr.GT, refs[cjReal], expr.NewRealConst(2))),
		expr.NewNot(expr.NewCmp(expr.GE, refs[cjDate], expr.NewIntConst(3))),
		expr.NewIsNull(refs[cjInt], false),
		expr.NewIsNull(refs[cjReal], true),
		expr.NewIsNull(refs[cjDict], false),
		expr.NewCmp(expr.LT, refs[cjInt], refs[cjReal]),
		expr.NewCmp(expr.EQ, refs[cjStr], expr.NewStringConst("b")),
		expr.NewCmp(expr.GE, refs[cjStr], expr.NewStringConst("b")),
		expr.NewCmp(expr.GT, expr.NewArith(expr.Add, refs[cjInt], expr.NewIntConst(1)), expr.NewIntConst(3)),
	}
	pool := append(append([]expr.Expr(nil), cmps...), residue...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		pred := pool[rng.Intn(len(pool))]
		for j := rng.Intn(4); j > 0; j-- {
			pred = expr.NewAnd(pred, pool[rng.Intn(len(pool))])
		}
		checkSelect(t, pred, b)
	}

	// A first group that empties the selection leaves nothing for the
	// residue to see.
	empty := expr.NewAnd(expr.NewCmp(expr.GT, refs[cjInt], expr.NewIntConst(math.MaxInt64)), residue[0])
	if p := checkSelect(t, empty, b); p.groups[0].kind != groupKernel || p.groups[1].kind != groupEval {
		t.Fatalf("%s compiled to %+v", empty, p.groups)
	}
	// The string column filters through its heap's truth table, ahead of
	// the kernels and the residue.
	mixed := expr.NewAnd(expr.NewAnd(residue[3], cmps[0]), residue[6])
	if p := checkSelect(t, mixed, b); len(p.groups) != 3 || p.groups[0].kind != groupTokens ||
		p.groups[1].kind != groupKernel || p.groups[2].kind != groupEval || p.routine != "dict-filter+kernel" {
		t.Fatalf("%s compiled to %+v, routine %q", mixed, p.groups, p.routine)
	}
	// Conjuncts of one column intersect into one range kernel.
	rng2 := expr.NewAnd(expr.NewCmp(expr.GE, refs[cjDate], expr.NewIntConst(0)), expr.NewCmp(expr.LT, refs[cjDate], expr.NewIntConst(7)))
	if p := checkSelect(t, rng2, b); len(p.groups) != 1 || len(p.groups[0].kernels) != 1 || p.routine != "kernel" {
		t.Fatalf("%s compiled to %+v", rng2, p.groups)
	}
}

// TestConjunctLargeHeapEvaluates: a string column whose heap has more
// than tokenFilterLimit elements, or more than heapFilterBytes of bytes,
// gets no truth table; its conjuncts compile to one eval group that
// answers as the row-at-a-time reference does.
func TestConjunctLargeHeapEvaluates(t *testing.T) {
	many := heap.New(types.CollateBinary)
	for i := 0; i <= tokenFilterLimit; i++ {
		many.Append(fmt.Sprintf("w%06d", i))
	}
	wide := heap.New(types.CollateBinary)
	pad := strings.Repeat("x", 4096)
	for i := 0; wide.Size() <= heapFilterBytes; i++ {
		wide.Append(fmt.Sprintf("w%06d", i) + pad)
	}
	for _, h := range []*heap.Heap{many, wide} {
		toks := h.Tokens()
		b := vec.NewBlock(1)
		v := &b.Vecs[0]
		v.Type, v.Heap = types.String, h
		rng := rand.New(rand.NewSource(int64(len(toks))))
		for i := 0; i < vec.BlockSize; i++ {
			v.Data[i] = toks[rng.Intn(len(toks))]
			if i%9 == 4 {
				v.Data[i] = types.NullToken
			}
		}
		b.N = vec.BlockSize
		ref := expr.NewColRef(0, "s", types.String)
		mid := expr.NewStringConst(h.Get(toks[len(toks)/2]))
		preds := []expr.Expr{
			expr.NewCmp(expr.EQ, ref, mid),
			expr.NewCmp(expr.EQ, ref, expr.NewStringConst("absent")),
			expr.NewCmp(expr.LT, ref, mid),
			expr.NewCmp(expr.GE, ref, mid),
			expr.NewIsNull(ref, false),
			expr.NewAnd(expr.NewCmp(expr.GE, ref, expr.NewStringConst("w000100")), expr.NewCmp(expr.LT, ref, mid)),
		}
		for _, pred := range preds {
			p := checkSelect(t, pred, b)
			if len(p.groups) != 1 || p.groups[0].kind != groupEval || p.routine != "" {
				t.Fatalf("heap of %d elements and %d bytes: %s compiled to %+v, routine %q, want one eval group",
					h.Len(), h.Size(), pred, p.groups, p.routine)
			}
		}
	}
}

// TestConjunctFallsBackOnShapeChange: a block whose column no longer has
// the shape a group was compiled for evaluates that group row at a time.
func TestConjunctFallsBackOnShapeChange(t *testing.T) {
	b, refs := conjunctBlock()
	pred := expr.NewAnd(expr.NewCmp(expr.GT, refs[cjDict], expr.NewIntConst(15)), expr.NewCmp(expr.LT, refs[cjInt], expr.NewIntConst(50)))
	s := NewSelect(nil, pred)
	out := vec.NewBlock(cjCols)
	s.Transform(b, out)
	// The same column, now plain values and a dictionary in the other.
	b2, _ := conjunctBlock()
	for i := 0; i < b2.N; i++ {
		b2.Vecs[cjDict].Data[i] = b.Vecs[cjDict].Value(i)
		b2.Vecs[cjInt].Data[i] = uint64(i % 4)
	}
	b2.Vecs[cjDict].Dict = nil
	b2.Vecs[cjInt].Dict = []uint64{1, 60, 2, types.NullBits(types.Integer)}
	n := s.Transform(b2, out)
	if want := evalSelect(pred, b2); n != len(want) {
		t.Fatalf("kept %d rows after the shape change, eval keeps %d", n, len(want))
	}
}

// TestSelectRunsMatchMaterialized: the rle-filter routine runs the same
// groups once per run.
func TestSelectRunsMatchMaterialized(t *testing.T) {
	runs := []enc.Run{{Value: 3, Count: 100}, {Value: types.NullBits(types.Integer), Count: 50},
		{Value: 9, Count: 300}, {Value: minPlusOne, Count: 74}, {Value: 4, Count: 500}}
	for _, pred := range []expr.Expr{
		expr.NewCmp(expr.GE, expr.NewColRef(0, "x", types.Integer), expr.NewIntConst(4)),
		expr.NewIsNull(expr.NewColRef(0, "x", types.Integer), false),
		expr.NewCmp(expr.LT, expr.NewColRef(0, "x", types.Integer), expr.NewRealConst(3.5)),
	} {
		in := vec.NewBlock(1)
		in.Vecs[0].Type, in.Vecs[0].Runs, in.N = types.Integer, append([]enc.Run(nil), runs...), 1024
		plain := vec.NewBlock(1)
		plain.Vecs[0].Type, plain.N = types.Integer, 1024
		enc.ExpandRuns(runs, plain.Vecs[0].Data[:1024])
		out := vec.NewBlock(1)
		n := NewSelect(nil, pred).Transform(in, out)
		want := evalSelect(pred, plain)
		if n != len(want) || out.Vecs[0].Runs == nil && n > 0 {
			t.Fatalf("%s: kept %d rows as runs %v, eval keeps %d", pred, n, out.Vecs[0].Runs, len(want))
		}
		out.Materialize()
		for k, i := range want {
			if out.Vecs[0].Data[k] != plain.Vecs[0].Data[i] {
				t.Fatalf("%s: row %d differs", pred, k)
			}
		}
	}
}

// FuzzConjunctKernel checks one or two comparisons against pred.Eval over
// rows holding the fuzzed values next to the special ones. shape picks
// the column type (bits 0-1), the constant's type (bits 2-3), the operand
// order (bit 4) and whether a second comparison joins (bit 5).
func FuzzConjunctKernel(f *testing.F) {
	f.Add(uint64(5), uint64(1<<63), types.NullRealBits, uint64(5), uint8(expr.LE), uint8(0))
	f.Add(uint64(1), otherNaN, uint64(0), otherNaN, uint8(expr.EQ), uint8(2|2<<2))
	f.Add(uint64(minPlusOne), uint64(2), uint64(3), uint64(minPlusOne), uint8(expr.LT), uint8(1|1<<2|1<<4|1<<5))
	negInf := types.FromReal(math.Inf(-1))
	f.Add(negInf, uint64(0), uint64(0), negInf, uint8(expr.LT), uint8(2|2<<2))
	f.Fuzz(func(t *testing.T, a, b, c, k uint64, op, shape uint8) {
		typeOf := func(bits uint8) types.Type {
			return [...]types.Type{types.Integer, types.Date, types.Real, types.Timestamp}[bits&3]
		}
		ct, kt := typeOf(shape), typeOf(shape>>2)
		blk := vec.NewBlock(1)
		vals := []uint64{a, b, c, k, types.NullBits(ct), types.NullRealBits, otherNaN,
			types.FromReal(math.Inf(1)), types.FromReal(math.Inf(-1)), minPlusOne, math.MaxInt64, 0}
		copy(blk.Vecs[0].Data, vals)
		blk.Vecs[0].Type, blk.N = ct, len(vals)
		ref := expr.NewColRef(0, "x", ct)
		kc := &expr.Const{Typ: kt, Bits: k}
		cmpOp := expr.CmpOp(op % 6)
		var pred expr.Expr = expr.NewCmp(cmpOp, ref, kc)
		if shape&(1<<4) != 0 {
			pred = expr.NewCmp(cmpOp, kc, ref)
		}
		if shape&(1<<5) != 0 {
			pred = expr.NewAnd(pred, expr.NewCmp(expr.CmpOp((op/6)%6), ref, &expr.Const{Typ: kt, Bits: a}))
		}
		p := checkSelect(t, pred, blk)
		if p.routine != "kernel" {
			t.Fatalf("%s compiled to routine %q", pred, p.routine)
		}
	})
}
