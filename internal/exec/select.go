package exec

import (
	"strings"

	"tde/internal/enc"
	"tde/internal/expr"
	"tde/internal/types"
	"tde/internal/vec"
)

// dictFilterLimit caps the dictionary size the token truth table covers —
// the same 2^15 domain bound as token-direct grouping. Past it the table
// build costs more than it saves.
const dictFilterLimit = 1 << 15

// Select is the filtering flow operator: it evaluates a boolean predicate
// per block and compacts the surviving rows. NULL predicate results drop
// the row (Tableau predicate semantics).
//
// Two compressed-execution routines short-circuit the row-at-a-time path
// when the planner leaves encoded execution on:
//
//   - rle-filter: a run-encoded input block evaluates the predicate once
//     per run (over the run values laid out as a scratch block) and keeps
//     the surviving runs run-encoded.
//   - dict-filter: when the predicate reads exactly one dictionary-
//     compressed column, the predicate is evaluated once per dictionary
//     entry (plus the NULL token) into a truth table, and each block is
//     filtered by token lookup with no value decode.
//
// Both routines evaluate the real predicate over token/run scratch blocks,
// so their semantics — including three-valued NULL logic — are exactly the
// decoded path's.
type Select struct {
	OpInstr
	child Operator
	pred  expr.Expr
	// EncodedOff disables the encoded-execution routines; set by the
	// planner from Options.EncodedExec.
	EncodedOff bool
	buf        *vec.Block
	out        vec.Vector

	// dict-filter state, built lazily at the first Transform call:
	// Exchange chain Selects are constructed with a nil child and are
	// never Opened, so Open cannot host the analysis.
	tokenTried bool
	tokenCol   int
	tokenTable []bool // truth per dictionary token
	tokenNull  bool   // truth for the NULL token
	tokenDict  []uint64
	sel        []int32

	// rle-filter scratch
	runScratch *vec.Block
}

// NewSelect filters child by pred.
func NewSelect(child Operator, pred expr.Expr) *Select {
	return &Select{child: child, pred: pred}
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
	s.out.Data = make([]uint64, vec.BlockSize)
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
// returning the surviving row count. Exposed so Exchange can parallelize
// this flow stage per block (Sect. 4.3).
func (s *Select) Transform(in, out *vec.Block) int {
	if cap(s.out.Data) < vec.BlockSize {
		s.out.Data = make([]uint64, vec.BlockSize)
	}
	s.out.Data = s.out.Data[:vec.BlockSize]
	if !s.EncodedOff {
		if n, ok := s.transformRuns(in, out); ok {
			return n
		}
		if n, ok := s.transformTokens(in, out); ok {
			return n
		}
	}
	in.Materialize()
	s.pred.Eval(in, &s.out)
	ensureVecs(out, len(in.Vecs))
	k := 0
	for i := 0; i < in.N; i++ {
		v := s.out.Data[i]
		if v == types.NullBoolean || v == 0 {
			continue
		}
		for c := range in.Vecs {
			out.Vecs[c].Data[k] = in.Vecs[c].Data[i]
		}
		k++
	}
	copyVecInfo(in, out)
	out.N = k
	return k
}

// transformRuns is the rle-filter routine: a single run-encoded input
// vector evaluates the predicate once per run and survivors stay
// run-encoded. Applies only to single-column blocks (the only shape the
// scan emits runs for).
func (s *Select) transformRuns(in, out *vec.Block) (int, bool) {
	if len(in.Vecs) != 1 || in.Vecs[0].Runs == nil {
		return 0, false
	}
	iv := &in.Vecs[0]
	runs := iv.Runs
	if s.runScratch == nil {
		s.runScratch = vec.NewBlock(1)
	}
	// Lay the run values out as rows of a scratch block and evaluate the
	// predicate once over them (a block holds at most BlockSize rows, so
	// at most BlockSize runs).
	rb := s.runScratch
	rv := &rb.Vecs[0]
	rv.Type, rv.Heap, rv.Dict = iv.Type, iv.Heap, iv.Dict
	for j, r := range runs {
		rv.Data[j] = r.Value
	}
	rb.N = len(runs)
	s.pred.Eval(rb, &s.out)
	ensureVecs(out, 1)
	ov := &out.Vecs[0]
	ov.Type, ov.Heap, ov.Dict = iv.Type, iv.Heap, iv.Dict
	outRuns := ov.Runs[:0]
	k := 0
	for j, r := range runs {
		v := s.out.Data[j]
		if v == types.NullBoolean || v == 0 {
			continue
		}
		outRuns = append(outRuns, r)
		k += r.Count
	}
	if k > 0 {
		ov.Runs = outRuns
	}
	out.N = k
	s.st.SetRoutine("rle-filter")
	return k, true
}

// transformTokens is the dict-filter routine: predicate truth is computed
// once per dictionary token, then blocks filter by table lookup.
func (s *Select) transformTokens(in, out *vec.Block) (int, bool) {
	if !s.tokenTried {
		s.tokenTried = true
		s.buildTokenTable(in)
	}
	if s.tokenTable == nil {
		return 0, false
	}
	tv := &in.Vecs[s.tokenCol]
	if tv.Runs != nil || len(tv.Dict) != len(s.tokenDict) {
		// A run block on the filter column (handled above) or a schema
		// drift the lazy analysis did not see: take the general path.
		return 0, false
	}
	in.Materialize()
	s.sel = enc.FilterTokens(tv.Data, in.N, s.tokenTable, types.NullToken, s.tokenNull, s.sel[:0])
	ensureVecs(out, len(in.Vecs))
	for k, i := range s.sel {
		for c := range in.Vecs {
			out.Vecs[c].Data[k] = in.Vecs[c].Data[i]
		}
	}
	copyVecInfo(in, out)
	out.N = len(s.sel)
	s.st.SetRoutine("dict-filter")
	return out.N, true
}

// buildTokenTable analyzes the predicate for the dict-filter routine: it
// applies when every column reference reads one dictionary-compressed
// column with a domain within dictFilterLimit. The table is built by
// evaluating the actual predicate over scratch blocks enumerating the
// dictionary tokens (plus one NULL-token row), so the per-token truth is
// byte-identical to row-at-a-time evaluation.
func (s *Select) buildTokenTable(in *vec.Block) {
	col := singlePredColumn(s.pred)
	if col < 0 || col >= len(in.Vecs) {
		return
	}
	dict := in.Vecs[col].Dict
	if dict == nil || len(dict) > dictFilterLimit {
		return
	}
	tb := vec.NewBlock(len(in.Vecs))
	for c := range in.Vecs {
		tb.Vecs[c].Type = in.Vecs[c].Type
		tb.Vecs[c].Heap = in.Vecs[c].Heap
		tb.Vecs[c].Dict = in.Vecs[c].Dict
	}
	n := len(dict)
	table := make([]bool, n)
	for base := 0; base < n+1; base += vec.BlockSize {
		cnt := n + 1 - base
		if cnt > vec.BlockSize {
			cnt = vec.BlockSize
		}
		for j := 0; j < cnt; j++ {
			tok := uint64(base + j)
			if base+j == n {
				tok = types.NullToken
			}
			tb.Vecs[col].Data[j] = tok
		}
		tb.N = cnt
		s.pred.Eval(tb, &s.out)
		for j := 0; j < cnt; j++ {
			v := s.out.Data[j]
			keep := v != types.NullBoolean && v != 0
			if base+j == n {
				s.tokenNull = keep
			} else {
				table[base+j] = keep
			}
		}
	}
	s.tokenCol = col
	s.tokenTable = table
	s.tokenDict = dict
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
// does not know (stay conservative: unknown nodes disable dict-filter).
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
// each block to produce its output columns.
type Project struct {
	OpInstr
	child  Operator
	exprs  []expr.Expr
	names  []string
	schema []ColInfo
	buf    *vec.Block
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

// Transform computes the projection for one block; exposed for Exchange.
// Expressions evaluate row-at-a-time, so encoded inputs decode here — a
// late-decode boundary.
func (p *Project) Transform(in, out *vec.Block) int {
	in.Materialize()
	ensureVecs(out, len(p.exprs))
	for c, e := range p.exprs {
		e.Eval(in, &out.Vecs[c])
	}
	out.N = in.N
	return in.N
}

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }
