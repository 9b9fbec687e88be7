package exec

import (
	"sync"
	"sync/atomic"

	"tde/internal/vec"
)

// morselSource hands one parallel consumer its share of an opened child,
// one block (a morsel) at a time, into the consumer's own block. The
// consumer checks for cancellation before each claim.
type morselSource interface {
	// next fills b with the next morsel and returns its position in input
	// order; ok is false once the input is exhausted. A morsel the zone
	// maps refute, or whose rows an overlay deleted, comes back empty
	// (b.N == 0) but still uses up its sequence number, so
	// order-preserving consumers never wait on a gap.
	next(b *vec.Block) (seq int, ok bool, err error)
}

// morsels is the morsel dispenser behind every parallel consumer
// (Aggregate's workers, Exchange's workers): n sources over child, which
// the caller has opened. A chain of flow operators on top of child —
// Select, Project, and an in-memory HashJoin's probe — is peeled off and
// fused into the sources: each source runs a clone of the chain over the
// blocks it claims, on its own goroutine, booking rows, blocks and time
// to the planned operators. Below the chain, a Scan — clean or over a
// view, of blocks or of an index's ranges, emitting runs or not — lets
// each source decode on its own goroutine through its own column
// readers, claiming morsel after morsel, base morsels then tail blocks,
// from one shared cursor. The one other input, a join that went grace,
// is pulled under a mutex, straight into the calling worker's block: its
// blocks arrive one at a time, but the chain and the work above it still
// run in parallel.
func morsels(child Operator, n int) []morselSource {
	chain, child := peel(child)
	out := make([]morselSource, n)
	if s, ok := child.(*Scan); ok {
		d := &scanDispenser{s: s}
		for i := range out {
			out[i] = d.reader()
		}
	} else {
		l := &lockedSource{child: child}
		for i := range out {
			out[i] = l
		}
	}
	if len(chain) == 0 {
		return out
	}
	width := len(child.Schema())
	for i := range out {
		fs := &fusedSource{src: out[i], in: vec.NewBlock(width)}
		for k := len(chain) - 1; k >= 0; k-- {
			fs.stages = append(fs.stages, chain[k].fuseClone())
			if k > 0 {
				fs.mid = append(fs.mid, &vec.Block{})
			}
		}
		out[i] = fs
	}
	return out
}

// peel splits op into the chain of flow operators morsels fuses, top
// down, and the input below them.
func peel(op Operator) (chain []fusible, input Operator) {
	for {
		f, ok := op.(fusible)
		if !ok || f.fuseInput() == nil {
			return chain, op
		}
		chain = append(chain, f)
		op = f.fuseInput()
	}
}

// Fuses reports whether parallel workers over op would run a fused chain
// on blocks they claim from a Scan, and whether that chain probes a join.
// Over anything else an Exchange's workers would only copy blocks.
func Fuses(op Operator) (ok, join bool) {
	chain, input := peel(op)
	for _, f := range chain {
		_, probe := f.(*HashJoin)
		join = join || probe
	}
	_, scan := input.(*Scan)
	return scan && len(chain) > 0, join
}

// fusible is a flow operator morsels can run inside a parallel consumer's
// workers: it transforms each block on its own, keeping nothing between
// blocks that another clone would need.
type fusible interface {
	// fuseInput is the operator's child, or nil when the opened operator
	// cannot run per block (a join that went grace).
	fuseInput() Operator
	// fuseClone returns a copy for one worker, sharing the planned
	// operator's stats and compiled state.
	fuseClone() fusedStage
}

// fusedStage is one worker's copy of a fused operator.
type fusedStage interface {
	// Transform processes in into out, returning out's row count.
	Transform(in, out *vec.Block) int
	endNext(start int64, b *vec.Block, ok bool)
}

func (s *Select) fuseInput() Operator { return s.child }

func (s *Select) fuseClone() fusedStage {
	return &Select{OpInstr: s.OpInstr, pred: s.pred, EncodedOff: s.EncodedOff, prog: s.prog}
}

func (p *Project) fuseInput() Operator { return p.child }

func (p *Project) fuseClone() fusedStage {
	return &Project{OpInstr: p.OpInstr, exprs: p.exprs, names: p.names, schema: p.schema}
}

func (j *HashJoin) fuseInput() Operator {
	if j.grace != nil {
		return nil // probes partition by partition
	}
	return j.outer
}

func (j *HashJoin) fuseClone() fusedStage { return &joinProbe{HashJoin: j} }

// joinProbe is one worker's probe stage: its own scratch over the join's
// resident inner, which joinBlock only reads.
type joinProbe struct {
	*HashJoin
	sc joinScratch
}

func (p *joinProbe) Transform(in, out *vec.Block) int {
	return p.joinBlock(p.part, in, out, &p.sc)
}

// fusedSource runs a fused chain, bottom stage first, over every block
// src hands out. A stage's booked time runs from the claim to the end of
// its own transform, so it includes the stages below it, as a planned
// operator's Next time includes its child's. A block the chain empties
// comes back with N == 0 and keeps its sequence number.
type fusedSource struct {
	src    morselSource
	stages []fusedStage
	in     *vec.Block   // the claimed block
	mid    []*vec.Block // stage k's output, feeding stage k+1
}

func (f *fusedSource) next(b *vec.Block) (int, bool, error) {
	start := nowNanos()
	seq, ok, err := f.src.next(f.in)
	if err != nil || !ok {
		return seq, ok, err
	}
	cur := f.in
	for k, st := range f.stages {
		if cur.N == 0 {
			b.N = 0
			return seq, true, nil
		}
		out := b
		if k < len(f.mid) {
			out = f.mid[k]
		}
		n := st.Transform(cur, out)
		st.endNext(start, out, n > 0)
		cur = out
	}
	return seq, true, nil
}

// scanDispenser is a scan's shared claim cursor: the next morsel (a
// block, or a pack of ranges) any of its readers may fill.
type scanDispenser struct {
	s      *Scan
	cursor atomic.Int64
}

// reader returns a source with column readers of its own (each owns its
// decode buffers; the decode cache, when there is one, is shared).
func (d *scanDispenser) reader() *scanMorsels {
	return &scanMorsels{d: d, cols: d.s.newReaders()}
}

type scanMorsels struct {
	d    *scanDispenser
	cols []colReader
}

func (m *scanMorsels) next(b *vec.Block) (int, bool, error) {
	s := m.d.s
	start := nowNanos()
	blk := int(m.d.cursor.Add(1) - 1)
	if blk >= s.nblocks {
		return 0, false, nil
	}
	ok, err := s.block(m.cols, b, blk)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		b.N = 0
		return blk, true, nil
	}
	s.endNext(start, b, true)
	return blk, true, nil
}

// lockedSource serializes Next on a child that cannot be split (a grace
// join), counting the blocks it hands out as their sequence numbers.
type lockedSource struct {
	mu    sync.Mutex
	child Operator
	seq   int
}

func (l *lockedSource) next(b *vec.Block) (int, bool, error) {
	// The deferred unlock keeps the source usable even if the child
	// panics; the panicking worker's own recovery reports the failure.
	l.mu.Lock()
	defer l.mu.Unlock()
	ok, err := l.child.Next(b)
	if err != nil || !ok {
		return 0, false, err
	}
	l.seq++
	return l.seq - 1, true, nil
}
