package exec

import (
	"strconv"

	"tde/internal/vec"
)

// Limit passes through at most N rows. A flow operator; under ORDER BY the
// planner bounds the Sort instead (NewBoundedSort), which gives Tableau's
// "top N" views without materializing the full sort.
type Limit struct {
	OpInstr
	child Operator
	n     int
	seen  int
	buf   *vec.Block
}

// NewLimit caps child at n rows.
func NewLimit(child Operator, n int) *Limit {
	return &Limit{child: child, n: n}
}

// Schema implements Operator.
func (l *Limit) Schema() []ColInfo { return l.child.Schema() }

// OpKind implements Instrumented.
func (l *Limit) OpKind() string { return "Limit" }

// OpLabel implements Instrumented.
func (l *Limit) OpLabel() string { return strconv.Itoa(l.n) }

// OpChildren implements Instrumented.
func (l *Limit) OpChildren() []Operator { return []Operator{l.child} }

// Open implements Operator.
func (l *Limit) Open(qc *QueryCtx) error {
	start := l.beginOpen(qc, "Limit")
	defer l.endOpen(start)
	l.seen = 0
	l.buf = vec.NewBlock(len(l.child.Schema()))
	return l.child.Open(qc)
}

// Next implements Operator.
func (l *Limit) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := l.next(b)
	l.endNext(start, b, ok && err == nil)
	return ok, err
}

func (l *Limit) next(b *vec.Block) (bool, error) {
	if l.seen >= l.n {
		return false, nil
	}
	ok, err := l.child.Next(l.buf)
	if err != nil || !ok {
		return false, err
	}
	l.buf.Materialize() // late-decode boundary
	take := l.buf.N
	if l.seen+take > l.n {
		take = l.n - l.seen
	}
	ensureVecs(b, len(l.buf.Vecs))
	for c := range l.buf.Vecs {
		src := &l.buf.Vecs[c]
		dst := &b.Vecs[c]
		dst.Type, dst.Heap, dst.Dict = src.Type, src.Heap, src.Dict
		copy(dst.Data, src.Data[:take])
	}
	b.N = take
	l.seen += take
	return true, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.child.Close() }
