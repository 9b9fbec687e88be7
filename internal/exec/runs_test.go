package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tde/internal/enc"
	"tde/internal/expr"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// blocksOp hands out fixed blocks whose vectors carry aligned runs, or,
// with plain set, the same blocks expanded; a block of plain vectors is
// handed out as it is.
type blocksOp struct {
	schema []ColInfo
	blocks []*vec.Block
	plain  bool
	at     int
}

func (o *blocksOp) Schema() []ColInfo       { return o.schema }
func (o *blocksOp) Open(qc *QueryCtx) error { o.at = 0; return nil }
func (o *blocksOp) Close() error            { return nil }
func (o *blocksOp) Next(b *vec.Block) (bool, error) {
	if o.at == len(o.blocks) {
		return false, nil
	}
	src := o.blocks[o.at]
	o.at++
	ensureVecs(b, len(src.Vecs))
	for c := range src.Vecs {
		v, d := &src.Vecs[c], &b.Vecs[c]
		d.Type, d.Heap, d.Dict, d.Runs = v.Type, v.Heap, v.Dict, nil
		switch {
		case v.Runs == nil:
			copy(d.Data, v.Data[:src.N])
		case o.plain:
			enc.ExpandRuns(v.Runs, d.Data[:src.N])
		default:
			d.Runs = append([]enc.Run(nil), v.Runs...)
		}
	}
	b.N = src.N
	return true, nil
}

// runColumns: d, a Date; i, an Integer over [0, 20]; s, a string.
const (
	rcDate = iota
	rcInt
	rcStr
)

// alignedRunBlocks builds blocks of three aligned run vectors with NULL
// runs in every column, the last block partial.
func alignedRunBlocks(seed int64) *blocksOp {
	rng := rand.New(rand.NewSource(seed))
	h := heap.New(types.CollateBinary)
	strs := []uint64{h.Append("alpha"), h.Append("beta"), h.Append("gamma"), h.Append("delta"), types.NullToken}
	schema := []ColInfo{
		{Name: "d", Type: types.Date},
		{Name: "i", Type: types.Integer, Meta: enc.Metadata{HasRange: true, Min: 0, Max: 20}},
		{Name: "s", Type: types.String, Heap: h},
	}
	op := &blocksOp{schema: schema}
	for _, n := range []int{vec.BlockSize, vec.BlockSize, vec.BlockSize, 517} {
		b := vec.NewBlock(3)
		b.N = n
		b.Vecs[rcDate].Type, b.Vecs[rcInt].Type = types.Date, types.Integer
		b.Vecs[rcStr].Type, b.Vecs[rcStr].Heap = types.String, h
		for left := n; left > 0; {
			cnt := min(left, 1+rng.Intn(120))
			left -= cnt
			d := uint64(9000 + rng.Intn(1500))
			if rng.Intn(8) == 0 {
				d = types.NullBits(types.Date)
			}
			i := uint64(rng.Intn(21))
			if rng.Intn(8) == 0 {
				i = types.NullBits(types.Integer)
			}
			vals := []uint64{d, i, strs[rng.Intn(len(strs))]}
			for c, v := range vals {
				b.Vecs[c].Runs = append(b.Vecs[c].Runs, enc.Run{Value: v, Count: cnt})
			}
		}
		op.blocks = append(op.blocks, b)
	}
	return op
}

// cellString renders row i of v for comparison across heaps.
func cellString(v *vec.Vector, i int) string {
	if v.Type == types.String {
		if v.Data[i] == types.NullToken {
			return "NULL"
		}
		return v.Heap.Get(v.Data[i])
	}
	return types.Format(v.Type, v.Value(i))
}

// TestProjectRunsMatchMaterialized evaluates date parts, arithmetic and
// string functions over aligned runs and compares them, expanded, with
// the same projection of the expanded block.
func TestProjectRunsMatchMaterialized(t *testing.T) {
	src := alignedRunBlocks(1)
	d := expr.NewColRef(rcDate, "d", types.Date)
	i := expr.NewColRef(rcInt, "i", types.Integer)
	s := expr.NewColRef(rcStr, "s", types.String)
	exprs := []expr.Expr{
		d, i, s,
		expr.NewDatePart(expr.Year, d),
		expr.NewDatePart(expr.Month, d),
		expr.NewDatePart(expr.TruncMonth, d),
		expr.NewArith(expr.Add, d, expr.NewIntConst(1)),
		expr.NewArith(expr.Sub, expr.NewArith(expr.Mul, i, expr.NewIntConst(3)), expr.NewIntConst(1)),
		expr.NewArith(expr.Div, i, expr.NewIntConst(0)),
		expr.NewArith(expr.Mul, i, expr.NewRealConst(0.5)),
		expr.NewCmp(expr.GT, i, expr.NewIntConst(10)),
		expr.NewStrFunc(expr.Upper, s),
	}
	names := make([]string, len(exprs))
	for k, e := range exprs {
		names[k] = e.String()
	}
	runP := NewProject(src, exprs, names)
	plainP := NewProject(src, exprs, names)
	for bi, blk := range src.blocks {
		in := vec.NewBlock(3)
		src.at, src.plain = bi, false
		src.Next(in)
		plain := vec.NewBlock(3)
		src.at, src.plain = bi, true
		src.Next(plain)

		got, want := vec.NewBlock(len(exprs)), vec.NewBlock(len(exprs))
		if n := runP.Transform(in, got); n != blk.N {
			t.Fatalf("block %d: %d rows out, want %d", bi, n, blk.N)
		}
		plainP.Transform(plain, want)
		for c := range exprs {
			if len(got.Vecs[c].Runs) != len(blk.Vecs[0].Runs) {
				t.Fatalf("block %d: %s came out with %d runs, want %d aligned runs", bi, names[c], len(got.Vecs[c].Runs), len(blk.Vecs[0].Runs))
			}
		}
		got.Materialize()
		for c := range exprs {
			if got.Vecs[c].Type != want.Vecs[c].Type {
				t.Fatalf("%s: type %v, want %v", names[c], got.Vecs[c].Type, want.Vecs[c].Type)
			}
			for r := 0; r < blk.N; r++ {
				if g, w := cellString(&got.Vecs[c], r), cellString(&want.Vecs[c], r); g != w {
					t.Fatalf("block %d row %d %s: %s over runs, %s row at a time", bi, r, names[c], g, w)
				}
			}
		}
	}
}

// TestAggregateAlignedRuns folds blocks of aligned runs — one probe and
// one weighted update per run — and compares every aggregate with the
// same grouping of the expanded blocks, in hash and direct modes at one
// and two workers, grouped on a string run key, an integer key, both,
// none, and YEAR of a date run through a fused Project.
func TestAggregateAlignedRuns(t *testing.T) {
	specs := []AggSpec{
		{Func: Count, Col: -1}, {Func: Count, Col: rcDate}, {Func: Min, Col: rcDate}, {Func: Max, Col: rcDate},
		{Func: Sum, Col: rcInt}, {Func: Avg, Col: rcInt}, {Func: CountD, Col: rcInt},
		{Func: Min, Col: rcStr}, {Func: Max, Col: rcStr}, {Func: Count, Col: rcStr},
	}
	type plan struct {
		name    string
		keys    []int
		project bool
	}
	for _, p := range []plan{
		{name: "none"}, {name: "s", keys: []int{rcStr}}, {name: "i", keys: []int{rcInt}},
		{name: "s,i", keys: []int{rcStr, rcInt}}, {name: "year(d)", keys: []int{3}, project: true},
	} {
		for _, mode := range []AggMode{AggHash, AggDirect} {
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("keys=%s mode=%v workers=%d", p.name, mode, workers)
				build := func(plain bool) *Aggregate {
					src := alignedRunBlocks(2)
					src.plain = plain
					var child Operator = src
					if p.project {
						d := expr.NewColRef(rcDate, "d", types.Date)
						child = NewProject(src, []expr.Expr{d, expr.NewColRef(rcInt, "i", types.Integer),
							expr.NewColRef(rcStr, "s", types.String), expr.NewDatePart(expr.Year, d)},
							[]string{"d", "i", "s", "y"})
					}
					return parallelAggregate(child, p.keys, specs, mode, workers)
				}
				runAgg := build(false)
				got, err := CollectStrings(runAgg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := CollectStrings(build(true))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sortRows(got)
				sortRows(want)
				if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
					t.Fatalf("%s: runs give\n%v\nexpanded blocks give\n%v", label, got, want)
				}
				if r := runAgg.routine(); !strings.HasPrefix(r, "rle-") {
					t.Fatalf("%s: routine %q did not fold runs", label, r)
				}
				if p.name == "i" && runAgg.Mode() != mode {
					t.Fatalf("%s: ran in mode %v", label, runAgg.Mode())
				}
			}
		}
	}
}
