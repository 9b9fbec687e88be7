package exec

import (
	"math"
	"strings"
	"sync"

	"tde/internal/expr"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// This file is Select's conjunct compiler. A WHERE is split into its
// AND-ed conjuncts, and the conjuncts reading one column form that
// column's group. Each group narrows a selection vector — the positions
// of the rows still alive — and the Select gathers the survivors once at
// the end. A group runs one of three routines, chosen from the first
// block's vectors:
//
//   - tokens ("dict-filter"): a dictionary-compressed column, or a string
//     column over a small heap, gets a truth table with one entry per
//     token, filled by evaluating the group's conjuncts over the tokens
//     themselves, and each row costs one lookup.
//   - kernel: `col op const` on a plain Integer, Date, Timestamp or Real
//     column becomes a typed range test over the raw bits. Conjuncts of
//     one column intersect into a single range.
//   - eval: anything else (OR, NOT, IS NULL, functions, several columns)
//     evaluates through expr.Eval over the whole block.
//
// Every routine reproduces expr.Cmp's semantics exactly: NULL sentinels
// drop the row, an integer compared with a real compares as reals, and a
// non-NULL NaN compares equal to everything (types.Compare).

// tokenFilterLimit caps the token truth table: a dictionary of at most
// 2^15 entries (the token-direct grouping bound) or a heap of at most as
// many elements and 1 MiB of bytes (its tokens are element offsets).
const (
	tokenFilterLimit = 1 << 15
	heapFilterBytes  = 1 << 20
)

type groupKind uint8

const (
	groupTokens groupKind = iota
	groupKernel
	groupEval
)

// conjGroup is one column's conjuncts (or the residue, col -1) compiled
// for one routine. pred is their conjunction: the eval routine runs it,
// and the others fall back to it for a block whose column is not shaped
// like the one they were compiled for.
type conjGroup struct {
	kind groupKind
	col  int
	pred expr.Expr

	// groupTokens: table[tok] is the conjunction's truth for a token and
	// null its truth for the NULL token; the table was built for dict
	// (a dictionary column) or hp (a heap column).
	table []bool
	null  bool
	dict  []uint64
	hp    *heap.Heap

	// groupKernel
	kernels []kernel
}

// filterProg is a Select's compiled WHERE. It is compiled once, from the
// first block any instance of the Select sees, and then only read, so
// the per-worker clones of a fused chain share it.
type filterProg struct {
	once    sync.Once
	groups  []conjGroup
	routine string
}

// compile splits pred into column groups against the shape of block in.
// With encoded execution off the whole predicate is one eval group: the
// row-at-a-time oracle.
func (p *filterProg) compile(pred expr.Expr, in *vec.Block, encodedOff bool) {
	if encodedOff {
		p.groups = []conjGroup{{kind: groupEval, col: -1, pred: pred}}
		return
	}
	var cols []int // group columns in order of first appearance
	byCol := map[int][]expr.Expr{}
	var residue []expr.Expr
	for _, cj := range splitAnd(pred, nil) {
		c := singlePredColumn(cj)
		if c < 0 || c >= len(in.Vecs) {
			residue = append(residue, cj)
			continue
		}
		if byCol[c] == nil {
			cols = append(cols, c)
		}
		byCol[c] = append(byCol[c], cj)
	}
	var kernels []conjGroup
	var hasTokens, hasKernel bool
	for _, c := range cols {
		cs := byCol[c]
		if g, ok := tokenGroup(c, andAll(cs), &in.Vecs[c]); ok {
			p.groups = append(p.groups, g)
			hasTokens = true
			continue
		}
		var ks []kernel
		var kcs []expr.Expr
		for _, cj := range cs {
			if k, ok := compileKernel(cj, &in.Vecs[c]); ok {
				ks, kcs = addKernel(ks, k), append(kcs, cj)
			} else {
				residue = append(residue, cj)
			}
		}
		if ks != nil {
			kernels = append(kernels, conjGroup{kind: groupKernel, col: c, pred: andAll(kcs), kernels: ks})
			hasKernel = true
		}
	}
	// Token lookups first, then the typed kernels, then the residue, so
	// the costlier routines see the fewest rows.
	p.groups = append(p.groups, kernels...)
	if residue != nil {
		p.groups = append(p.groups, conjGroup{kind: groupEval, col: -1, pred: andAll(residue)})
	}
	var names []string
	if hasTokens {
		names = append(names, "dict-filter")
	}
	if hasKernel {
		names = append(names, "kernel")
	}
	p.routine = strings.Join(names, "+")
}

// splitAnd appends e's top-level AND-ed conjuncts to out.
func splitAnd(e expr.Expr, out []expr.Expr) []expr.Expr {
	if l, ok := e.(*expr.Logic); ok && l.Op == expr.And {
		return splitAnd(l.R, splitAnd(l.L, out))
	}
	return append(out, e)
}

// andAll conjoins cs (at least one).
func andAll(cs []expr.Expr) expr.Expr {
	e := cs[0]
	for _, c := range cs[1:] {
		e = expr.NewAnd(e, c)
	}
	return e
}

// tokenGroup builds the truth table of pred, which reads only column col,
// when v is a dictionary column or a string column over a small heap. The
// table is filled by evaluating pred itself over scratch blocks that
// enumerate the tokens plus the NULL token, so each entry is exactly the
// decoded path's answer.
func tokenGroup(col int, pred expr.Expr, v *vec.Vector) (conjGroup, bool) {
	g := conjGroup{kind: groupTokens, col: col, pred: pred}
	var toks []uint64
	switch {
	case v.Dict != nil && len(v.Dict) <= tokenFilterLimit:
		g.dict = v.Dict
		g.table = make([]bool, len(v.Dict))
		toks = make([]uint64, len(v.Dict))
		for i := range toks {
			toks[i] = uint64(i)
		}
	case v.Dict == nil && v.Type == types.String && v.Heap != nil &&
		v.Heap.Len() <= tokenFilterLimit && v.Heap.Size() <= heapFilterBytes:
		g.hp = v.Heap
		g.table = make([]bool, v.Heap.Size())
		toks = v.Heap.Tokens()
	default:
		return conjGroup{}, false
	}
	toks = append(toks, types.NullToken)
	tb := vec.NewBlock(col + 1)
	tv := &tb.Vecs[col]
	tv.Type, tv.Heap, tv.Dict = v.Type, v.Heap, v.Dict
	res := vec.Vector{Data: make([]uint64, vec.BlockSize)}
	for len(toks) > 0 {
		n := min(len(toks), vec.BlockSize)
		copy(tv.Data, toks[:n])
		tb.N = n
		pred.Eval(tb, &res)
		for j, tok := range toks[:n] {
			keep := truthy(res.Data[j])
			if tok == types.NullToken {
				g.null = keep
			} else {
				g.table[tok] = keep
			}
		}
		toks = toks[n:]
	}
	return g, true
}

// truthy reports whether a predicate result keeps its row: NULL and false
// drop it (Tableau predicate semantics).
func truthy(b uint64) bool { return b != types.NullBoolean && b != 0 }

// fits reports whether v has the shape g was compiled for.
func (g *conjGroup) fits(v *vec.Vector) bool {
	switch g.kind {
	case groupTokens:
		if g.hp != nil { // and not grown since: its tokens are offsets
			return v.Heap == g.hp && v.Dict == nil && g.hp.Size() == len(g.table)
		}
		return v.Dict != nil && len(v.Dict) == len(g.dict) && (len(v.Dict) == 0 || &v.Dict[0] == &g.dict[0])
	case groupKernel:
		return v.Dict == nil && v.Heap == nil
	}
	return true
}

// narrow keeps the rows of sel (positions in b) that satisfy g, in
// place, and returns the kept prefix. res is scratch for the eval routine.
func (g *conjGroup) narrow(b *vec.Block, sel []int32, res *vec.Vector) []int32 {
	if g.kind != groupEval && !g.fits(&b.Vecs[g.col]) {
		return narrowEval(g.pred, b, sel, res)
	}
	switch g.kind {
	case groupTokens:
		data := b.Vecs[g.col].Data
		tab := g.table
		n := 0
		for _, i := range sel {
			sel[n] = i
			tok := data[i]
			var keep bool
			if tok < uint64(len(tab)) {
				keep = tab[tok]
			} else {
				keep = tok == types.NullToken && g.null
			}
			if keep {
				n++
			}
		}
		return sel[:n]
	case groupKernel:
		v := &b.Vecs[g.col]
		for i := range g.kernels {
			if len(sel) == 0 {
				break
			}
			sel = g.kernels[i].narrow(v.Data, sel)
		}
		return sel
	}
	return narrowEval(g.pred, b, sel, res)
}

// narrowEval evaluates pred over the whole block and keeps the rows of
// sel it holds for.
func narrowEval(pred expr.Expr, b *vec.Block, sel []int32, res *vec.Vector) []int32 {
	pred.Eval(b, res)
	n := 0
	for _, i := range sel {
		sel[n] = i
		if truthy(res.Data[i]) {
			n++
		}
	}
	return sel[:n]
}

// kernelKind is the domain a kernel compares in.
type kernelKind uint8

const (
	kInt       kernelKind = iota // Integer/Date/Timestamp column, integer constant
	kReal                        // Real column (any numeric constant)
	kIntAsReal                   // integer-typed column promoted against a real constant
)

// kernel is one column's comparison with a constant, normalised to a
// range: a row passes when its non-NULL value lies in [lo, hi] (or, for
// ne, outside it). Real kernels carry the range as flo/fhi and nan, the
// fate of a non-NULL NaN, which types.Compare finds equal to everything.
type kernel struct {
	kind     kernelKind
	lo, hi   int64
	flo, fhi float64
	nan      bool
	ne       bool
	none     bool // no row passes (a NULL constant, an empty range)
}

// compileKernel normalises cj to a kernel when it is `col op const` or
// `const op col` over a plain numeric column v.
func compileKernel(cj expr.Expr, v *vec.Vector) (kernel, bool) {
	cmp, ok := cj.(*expr.Cmp)
	if !ok || v.Dict != nil || v.Heap != nil {
		return kernel{}, false
	}
	op := cmp.Op
	ref, isRef := cmp.L.(*expr.ColRef)
	k, isConst := cmp.R.(*expr.Const)
	if !isRef || !isConst {
		ref, isRef = cmp.R.(*expr.ColRef)
		k, isConst = cmp.L.(*expr.Const)
		op = flipCmp(op)
	}
	if !isRef || !isConst || !numeric(ref.Typ) || !numeric(k.Typ) {
		return kernel{}, false
	}
	if types.IsNull(k.Typ, k.Bits) {
		return kernel{none: true}, true
	}
	if ref.Typ != types.Real && k.Typ != types.Real {
		return intKernel(op, int64(k.Bits)), true
	}
	c := float64(int64(k.Bits))
	if k.Typ == types.Real {
		c = types.ToReal(k.Bits)
	}
	kn := realKernel(op, c)
	kn.kind = kReal
	if ref.Typ != types.Real {
		kn.kind = kIntAsReal
	}
	return kn, true
}

func numeric(t types.Type) bool {
	return t == types.Integer || t == types.Date || t == types.Timestamp || t == types.Real
}

// flipCmp mirrors op for swapped operands: c < x is x > c.
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
	return op
}

// intKernel is x op c over signed 64-bit values. Ranges start above
// math.MinInt64, the NULL sentinel, so NULL never passes.
func intKernel(op expr.CmpOp, c int64) kernel {
	k := kernel{kind: kInt, lo: math.MinInt64 + 1, hi: math.MaxInt64}
	switch op {
	case expr.EQ:
		k.lo, k.hi = c, c
	case expr.NE:
		k.lo, k.hi, k.ne = c, c, true
	case expr.LT:
		k.hi = c - 1
		k.none = c <= math.MinInt64+1
	case expr.LE:
		k.hi = c
	case expr.GT:
		k.lo = c + 1
		k.none = c == math.MaxInt64
	case expr.GE:
		k.lo = c
	}
	return k
}

// realKernel is x op c compared as float64 under types.Compare: a NaN
// operand compares equal, so it passes =, <= and >= and fails the rest.
func realKernel(op expr.CmpOp, c float64) kernel {
	k := kernel{flo: math.Inf(-1), fhi: math.Inf(1)}
	if math.IsNaN(c) {
		k.nan = true
		k.none = op == expr.NE || op == expr.LT || op == expr.GT
		return k
	}
	switch op {
	case expr.EQ:
		k.flo, k.fhi, k.nan = c, c, true
	case expr.NE:
		k.flo, k.fhi, k.ne = c, c, true
	case expr.LT:
		k.fhi = math.Nextafter(c, math.Inf(-1))
		k.none = math.IsInf(c, -1)
	case expr.LE:
		k.fhi, k.nan = c, true
	case expr.GT:
		k.flo = math.Nextafter(c, math.Inf(1))
		k.none = math.IsInf(c, 1)
	case expr.GE:
		k.flo, k.nan = c, true
	}
	return k
}

// addKernel appends k to ks, intersecting it with a range kernel of the
// same domain already there: `d >= a AND d < b` is one pass.
func addKernel(ks []kernel, k kernel) []kernel {
	for i := range ks {
		o := &ks[i]
		if o.kind != k.kind || o.ne || k.ne || o.none || k.none {
			continue
		}
		o.lo, o.hi = max(o.lo, k.lo), min(o.hi, k.hi)
		o.flo, o.fhi = max(o.flo, k.flo), min(o.fhi, k.fhi)
		o.nan = o.nan && k.nan
		o.none = o.kind == kInt && o.lo > o.hi
		return ks
	}
	return append(ks, k)
}

// narrow keeps the positions of sel whose value in data passes k, in
// place.
func (k *kernel) narrow(data []uint64, sel []int32) []int32 {
	if k.none {
		return sel[:0]
	}
	n := 0
	switch k.kind {
	case kInt:
		if k.ne {
			c, null := uint64(k.lo), types.NullBits(types.Integer)
			for _, i := range sel {
				sel[n] = i
				if x := data[i]; x != c && x != null {
					n++
				}
			}
			break
		}
		lo, span := uint64(k.lo), uint64(k.hi-k.lo)
		for _, i := range sel {
			sel[n] = i
			if data[i]-lo <= span {
				n++
			}
		}
	case kReal:
		lo, hi := k.flo, k.fhi
		switch {
		case k.ne:
			for _, i := range sel {
				sel[n] = i
				if f := math.Float64frombits(data[i]); f < lo || f > hi {
					n++
				}
			}
		case k.nan:
			null := types.NullRealBits
			for _, i := range sel {
				sel[n] = i
				x := data[i]
				if f := math.Float64frombits(x); f >= lo && f <= hi || f != f && x != null {
					n++
				}
			}
		default:
			for _, i := range sel {
				sel[n] = i
				if f := math.Float64frombits(data[i]); f >= lo && f <= hi {
					n++
				}
			}
		}
	case kIntAsReal:
		lo, hi, null := k.flo, k.fhi, types.NullBits(types.Integer)
		for _, i := range sel {
			sel[n] = i
			x := data[i]
			f := float64(int64(x))
			if x != null && (f >= lo && f <= hi) != k.ne {
				n++
			}
		}
	}
	return sel[:n]
}
