package exec

import (
	"strings"

	"tde/internal/enc"
	"tde/internal/expr"
	"tde/internal/vec"
)

// Select is the filtering flow operator: it evaluates a boolean predicate
// per block and compacts the surviving rows. NULL predicate results drop
// the row (Tableau predicate semantics).
//
// The predicate is compiled once, at the first block, into per-column
// groups of conjuncts (conjunct.go): token truth tables for dictionary
// and small-heap columns ("dict-filter"), typed range kernels for
// `col op const` on plain numeric columns ("kernel"), and expr.Eval for
// the residue. Each group narrows one selection vector, and the
// survivors are gathered once. A run-encoded single-column block runs the
// same groups once per run over the run values and keeps the surviving
// runs run-encoded ("rle-filter").
type Select struct {
	OpInstr
	child Operator
	pred  expr.Expr
	// EncodedOff disables the compiled routines and run filtering; set by
	// the planner from Options.NoEncodedExec. The whole predicate then
	// evaluates row-at-a-time: the oracle the compiled routines are
	// checked against.
	EncodedOff bool
	buf        *vec.Block

	// prog is compiled at the first block, whose vectors it reads, and
	// shared with every fused clone (morsels), which is never Opened.
	prog *filterProg

	sel        []int32
	res        vec.Vector
	runScratch *vec.Block
	runBuf     []enc.Run // the surviving runs, reused across blocks
	routine    string    // the routine last booked to the stats
}

// NewSelect filters child by pred.
func NewSelect(child Operator, pred expr.Expr) *Select {
	return &Select{child: child, pred: pred, prog: &filterProg{}}
}

// Schema implements Operator.
func (s *Select) Schema() []ColInfo { return s.child.Schema() }

// OpKind implements Instrumented.
func (s *Select) OpKind() string { return "Select" }

// OpLabel implements Instrumented.
func (s *Select) OpLabel() string { return s.pred.String() }

// OpChildren implements Instrumented.
func (s *Select) OpChildren() []Operator { return []Operator{s.child} }

// Open implements Operator.
func (s *Select) Open(qc *QueryCtx) error {
	start := s.beginOpen(qc, "Select")
	defer s.endOpen(start)
	s.buf = vec.NewBlock(len(s.child.Schema()))
	return s.child.Open(qc)
}

// Next implements Operator.
func (s *Select) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := s.next(b)
	s.endNext(start, b, ok && err == nil)
	return ok, err
}

func (s *Select) next(b *vec.Block) (bool, error) {
	for {
		ok, err := s.child.Next(s.buf)
		if err != nil || !ok {
			return false, err
		}
		n := s.Transform(s.buf, b)
		if n > 0 {
			return true, nil
		}
	}
}

// Transform applies the filter to one block, writing survivors to out and
// returning the surviving row count; a parallel consumer's workers run it
// on the blocks they claim (morsels, Sect. 4.3).
func (s *Select) Transform(in, out *vec.Block) int {
	if s.res.Data == nil {
		s.res.Data = make([]uint64, vec.BlockSize)
		s.sel = make([]int32, vec.BlockSize)
	}
	if !s.EncodedOff && len(in.Vecs) == 1 && in.Vecs[0].Runs != nil {
		return s.transformRuns(in, out)
	}
	in.Materialize()
	p := s.program(in)
	s.book(p.routine)
	sel := s.selectRows(p, in)
	ensureVecs(out, len(in.Vecs))
	copyVecInfo(in, out)
	for c := range in.Vecs {
		dst, src := out.Vecs[c].Data, in.Vecs[c].Data
		if len(sel) == in.N {
			copy(dst[:in.N], src[:in.N])
			continue
		}
		for k, i := range sel {
			dst[k] = src[i]
		}
	}
	out.N = len(sel)
	return out.N
}

// program returns the compiled predicate, compiling it against in's shape
// the first time any Select sharing it sees a block.
func (s *Select) program(in *vec.Block) *filterProg {
	s.prog.once.Do(func() { s.prog.compile(s.pred, in, s.EncodedOff) })
	return s.prog
}

// selectRows runs the program's groups over b and returns the positions
// of the rows every group keeps.
func (s *Select) selectRows(p *filterProg, b *vec.Block) []int32 {
	sel := s.sel[:b.N]
	copy(sel, identity[:b.N])
	for i := range p.groups {
		if len(sel) == 0 {
			break
		}
		sel = p.groups[i].narrow(b, sel, &s.res)
	}
	return sel
}

// identity is the selection vector of a whole block.
var identity = func() (id [vec.BlockSize]int32) {
	for i := range id {
		id[i] = int32(i)
	}
	return id
}()

// book records the routine on the stats when it changes.
func (s *Select) book(r string) {
	if r != s.routine {
		s.routine = r
		s.st.SetRoutine(r)
	}
}

// transformRuns is the rle-filter routine: a single run-encoded input
// vector evaluates the predicate once per run and survivors stay
// run-encoded (the only block shape the scan emits runs for).
func (s *Select) transformRuns(in, out *vec.Block) int {
	iv := &in.Vecs[0]
	runs := iv.Runs
	s.runScratch = runRows(in, s.runScratch)
	rb := s.runScratch
	sel := s.selectRows(s.program(rb), rb)
	ensureVecs(out, 1)
	ov := &out.Vecs[0]
	ov.Type, ov.Heap, ov.Dict = iv.Type, iv.Heap, iv.Dict
	kept := s.runBuf[:0]
	k := 0
	for _, j := range sel {
		kept = append(kept, runs[j])
		k += runs[j].Count
	}
	s.runBuf = kept
	if k > 0 {
		ov.Runs = kept
	}
	out.N = k
	s.book("rle-filter")
	return k
}

// copyVecInfo propagates per-vector type/heap/dict info from in to out.
func copyVecInfo(in, out *vec.Block) {
	for c := range in.Vecs {
		out.Vecs[c].Type = in.Vecs[c].Type
		out.Vecs[c].Heap = in.Vecs[c].Heap
		out.Vecs[c].Dict = in.Vecs[c].Dict
	}
}

// singlePredColumn returns the only column index the predicate reads, or
// -1 when it reads zero or several columns or contains a node the walker
// does not know (stay conservative: unknown nodes go to the residue).
func singlePredColumn(e expr.Expr) int {
	col := -1
	ok := true
	var walk func(expr.Expr)
	walk = func(x expr.Expr) {
		switch n := x.(type) {
		case *expr.ColRef:
			if col >= 0 && col != n.Idx {
				ok = false
			}
			col = n.Idx
		case *expr.Const:
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
		default:
			ok = false
		}
	}
	walk(e)
	if !ok || col < 0 {
		return -1
	}
	return col
}

// Close implements Operator.
func (s *Select) Close() error { return s.child.Close() }

// Project is the computation flow operator: it evaluates expressions over
// each block to produce its output columns. A block whose vectors all
// carry aligned runs evaluates each expression once per run and comes out
// as aligned runs ("rle-project"); any other block evaluates row at a
// time.
type Project struct {
	OpInstr
	child  Operator
	exprs  []expr.Expr
	names  []string
	schema []ColInfo
	buf    *vec.Block

	runRows *vec.Block  // one row per input run
	runBufs [][]enc.Run // the output vectors' runs, reused across blocks
	routine string      // the routine last booked to the stats
}

// NewProject computes exprs (named names) over child.
func NewProject(child Operator, exprs []expr.Expr, names []string) *Project {
	p := &Project{child: child, exprs: exprs, names: names}
	in := child.Schema()
	for i, e := range exprs {
		info := ColInfo{Name: names[i], Type: e.Type()}
		if ref, ok := e.(*expr.ColRef); ok {
			// A column reference passes its dictionary tokens through.
			info.Dict = in[ref.Idx].Dict
		}
		p.schema = append(p.schema, info)
	}
	return p
}

// Schema implements Operator.
func (p *Project) Schema() []ColInfo { return p.schema }

// OpKind implements Instrumented.
func (p *Project) OpKind() string { return "Project" }

// OpLabel implements Instrumented.
func (p *Project) OpLabel() string { return strings.Join(p.names, ", ") }

// OpChildren implements Instrumented.
func (p *Project) OpChildren() []Operator { return []Operator{p.child} }

// Open implements Operator.
func (p *Project) Open(qc *QueryCtx) error {
	start := p.beginOpen(qc, "Project")
	defer p.endOpen(start)
	p.buf = vec.NewBlock(len(p.child.Schema()))
	return p.child.Open(qc)
}

// Next implements Operator.
func (p *Project) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := p.next(b)
	p.endNext(start, b, ok && err == nil)
	return ok, err
}

func (p *Project) next(b *vec.Block) (bool, error) {
	ok, err := p.child.Next(p.buf)
	if err != nil || !ok {
		return false, err
	}
	p.Transform(p.buf, b)
	return true, nil
}

// Transform computes the projection for one block. Expressions evaluate
// row-at-a-time over a plain block, so encoded inputs other than aligned
// runs decode here — a late-decode boundary.
func (p *Project) Transform(in, out *vec.Block) int {
	if alignedRuns(in) {
		p.transformRuns(in, out)
		return in.N
	}
	in.Materialize()
	ensureVecs(out, len(p.exprs))
	for c, e := range p.exprs {
		e.Eval(in, &out.Vecs[c])
	}
	out.N = in.N
	return in.N
}

// transformRuns is the rle-project routine: every expression evaluates
// once per run, over the run values laid out as rows, and each output
// vector carries the input's run boundaries.
func (p *Project) transformRuns(in, out *vec.Block) {
	runs := in.Vecs[0].Runs
	p.runRows = runRows(in, p.runRows)
	ensureVecs(out, len(p.exprs))
	if len(p.runBufs) < len(p.exprs) {
		p.runBufs = make([][]enc.Run, len(p.exprs))
	}
	for c, e := range p.exprs {
		ov := &out.Vecs[c]
		e.Eval(p.runRows, ov)
		rs := p.runBufs[c][:0]
		for j, r := range runs {
			rs = append(rs, enc.Run{Value: ov.Data[j], Count: r.Count})
		}
		p.runBufs[c] = rs
		ov.Runs = rs
	}
	out.N = in.N
	if p.routine == "" {
		p.routine = "rle-project"
		p.st.SetRoutine(p.routine)
	}
}

// alignedRuns reports whether every vector of b carries runs. Vectors of
// one block that carry runs share their run boundaries (vec.Vector.Runs),
// so equal run counts are the check.
func alignedRuns(b *vec.Block) bool {
	if len(b.Vecs) == 0 || b.Vecs[0].Runs == nil {
		return false
	}
	for i := range b.Vecs[1:] {
		if r := b.Vecs[i+1].Runs; r == nil || len(r) != len(b.Vecs[0].Runs) {
			return false
		}
	}
	return true
}

// runRows lays the run values of b's run-encoded vectors out as the rows
// of scratch (allocated when nil), one row per run, so row machinery —
// expression evaluation, grouping — runs once per run.
func runRows(b, scratch *vec.Block) *vec.Block {
	if scratch == nil {
		scratch = &vec.Block{}
	}
	ensureVecs(scratch, len(b.Vecs))
	for c := range b.Vecs {
		v, rv := &b.Vecs[c], &scratch.Vecs[c]
		rv.Type, rv.Heap, rv.Dict = v.Type, v.Heap, v.Dict
		for j, r := range v.Runs {
			rv.Data[j] = r.Value
		}
	}
	scratch.N = len(b.Vecs[0].Runs)
	return scratch
}

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }
