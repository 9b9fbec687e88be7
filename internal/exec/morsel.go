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
	// maps refute comes back empty (b.N == 0) but still uses up its
	// sequence number, so order-preserving consumers never wait on a gap.
	next(b *vec.Block) (seq int, ok bool, err error)
}

// morsels is the morsel dispenser behind every parallel consumer
// (Aggregate's workers, Exchange's workers): n sources over child, which
// the caller has opened. A clean Scan — no overlay, no run emission —
// lets each source decode on its own goroutine through its own column
// readers, claiming block after block from one shared cursor. Any other
// child is pulled under a mutex, straight into the calling worker's
// block: its blocks arrive one at a time, but the work above it still
// runs in parallel.
func morsels(child Operator, n int) []morselSource {
	out := make([]morselSource, n)
	if s, ok := child.(*Scan); ok && s.claimable() {
		d := &scanDispenser{s: s}
		for i := range out {
			out[i] = d.reader()
		}
		return out
	}
	l := &lockedSource{child: child}
	for i := range out {
		out[i] = l
	}
	return out
}

// scanDispenser is a clean scan's shared claim cursor: the next block
// index any of its readers may decode.
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
	at := blk * vec.BlockSize
	if at >= s.src.Rows {
		return 0, false, nil
	}
	if s.pruner.skip(blk) {
		s.st.AddBlocksSkipped(1)
		b.N = 0
		return blk, true, nil
	}
	if err := s.fillBlock(m.cols, b, at); err != nil {
		return 0, false, err
	}
	s.endNext(start, b, true)
	return blk, true, nil
}

// lockedSource serializes Next on a child that cannot be split, counting
// the blocks it hands out as their sequence numbers.
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
