package exec

import (
	"fmt"
	"sync"

	"tde/internal/enc"
	"tde/internal/vec"
)

// Exchange parallelizes a flow segment (Sect. 4.3 / [8]): workers claim
// the child's blocks through the morsel dispenser — which runs the flow
// operators on top of the child (Select, Project, a join's probe) inside
// each worker — and the consumer merges. With preserveOrder the blocks
// carry their input sequence numbers and are emitted in input order
// ("order-preserving routing"), which the strategic optimizer forces
// whenever a column is sorted, at a measured 10-15% overhead; without
// it, completion order wins, disturbing value order and potentially
// ruining downstream encodings.
type Exchange struct {
	OpInstr
	child         Operator
	workers       int
	preserveOrder bool

	out chan seqBlock
	// pending is the reorder buffer (preserveOrder): pending[i] holds
	// sequence number nextSeq+i once it has arrived, nil until then.
	pending []*vec.Block
	// credits bounds it (preserveOrder): a worker takes one before it
	// claims a morsel and Next returns one as each sequence number is
	// passed on, so at most cap(credits) morsels are claimed and not yet
	// emitted, however long one slow worker holds the next in order.
	credits chan struct{}
	nextSeq int
	errMu   sync.Mutex
	err     error
	done    chan struct{}
	// all tracks every goroutine Open spawned (workers, closer) so Close
	// can wait for a fully quiesced state — no leaks even when the
	// consumer abandons the stream early or the query is cancelled.
	all sync.WaitGroup
	qc  *QueryCtx
}

type seqBlock struct {
	seq int
	b   *vec.Block
}

// emptyMorsel stands in the reorder buffer for a sequence number whose
// block came out empty (zone-refuted, or every row filtered away).
var emptyMorsel = &vec.Block{}

// NewExchange runs child on the given number of workers.
func NewExchange(child Operator, workers int, preserveOrder bool) *Exchange {
	return &Exchange{child: child, workers: max(workers, 1), preserveOrder: preserveOrder}
}

// Schema implements Operator.
func (e *Exchange) Schema() []ColInfo { return e.child.Schema() }

// OpKind implements Instrumented.
func (e *Exchange) OpKind() string { return "Exchange" }

// OpLabel implements Instrumented.
func (e *Exchange) OpLabel() string {
	routing := "completion-order"
	if e.preserveOrder {
		routing = "order-preserving"
	}
	return fmt.Sprintf("workers=%d %s", e.workers, routing)
}

// OpChildren implements Instrumented.
func (e *Exchange) OpChildren() []Operator { return []Operator{e.child} }

// Open implements Operator: spawns the workers.
func (e *Exchange) Open(qc *QueryCtx) error {
	start := e.beginOpen(qc, "Exchange")
	defer e.endOpen(start)
	e.qc = qc
	if err := e.child.Open(qc); err != nil {
		return err
	}
	e.nextSeq = 0
	e.pending = nil
	e.err = nil
	e.done = make(chan struct{})
	e.out = make(chan seqBlock, e.workers*2)
	e.credits = nil
	if e.preserveOrder {
		e.credits = make(chan struct{}, 4*e.workers)
		for range cap(e.credits) {
			e.credits <- struct{}{}
		}
	}
	// The goroutines below capture the channels as locals: Close nils the
	// struct fields from the consumer side, and sharing the fields with the
	// workers would race.
	done, out, credits := e.done, e.out, e.credits
	var wg sync.WaitGroup
	for _, src := range morsels(e.child, e.workers) {
		wg.Add(1)
		e.all.Add(1)
		go func() {
			defer e.all.Done()
			defer wg.Done()
			defer e.containPanic("worker")
			e.work(src, done, out, credits)
		}()
	}
	e.all.Add(1)
	go func() {
		defer e.all.Done()
		wg.Wait()
		close(out)
	}()
	return nil
}

// work is one worker's loop: claim a morsel and send a copy of it
// downstream, until the input ends, the query fails or is cancelled, or
// the consumer closes.
func (e *Exchange) work(src morselSource, done <-chan struct{}, out chan<- seqBlock, credits <-chan struct{}) {
	in := vec.NewBlock(len(e.child.Schema()))
	for {
		if e.loadErr() != nil {
			// Another worker already failed: stop consuming the child
			// instead of draining its whole stream into a doomed query.
			return
		}
		if err := e.qc.Err(); err != nil {
			e.setErr(err)
			return
		}
		select {
		case <-done:
			return
		default:
		}
		if credits != nil {
			select {
			case <-credits:
			case <-done:
				return
			case <-e.qc.Done():
				e.setErr(e.qc.Err())
				return
			}
		}
		seq, ok, err := src.next(in)
		if err != nil {
			e.setErr(err)
			return
		}
		if !ok {
			return
		}
		sb := seqBlock{seq: seq, b: emptyMorsel}
		switch {
		case in.N > 0:
			sb.b = copyBlock(in)
		case !e.preserveOrder:
			continue
		}
		select {
		case out <- sb:
		case <-done:
			return
		case <-e.qc.Done():
			e.setErr(e.qc.Err())
			return
		}
	}
}

// containPanic converts a panicking parallel stage into a query error so
// the failure surfaces on Next instead of crashing the process or
// deadlocking the exchange.
func (e *Exchange) containPanic(stage string) {
	if r := recover(); r != nil {
		e.setErr(fmt.Errorf("exec: exchange %s panicked: %v", stage, r))
	}
}

func (e *Exchange) setErr(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
}

// Next implements Operator.
func (e *Exchange) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := e.next(b)
	e.endNext(start, b, ok && err == nil)
	return ok, err
}

func (e *Exchange) next(b *vec.Block) (bool, error) {
	for {
		if err := e.loadErr(); err != nil {
			return false, err
		}
		if e.preserveOrder && len(e.pending) > 0 && e.pending[0] != nil {
			// The next sequence number has arrived.
			sb := e.pending[0]
			e.pending = e.pending[1:]
			e.nextSeq++
			e.credits <- struct{}{} // never blocks: this morsel held one
			if sb.N == 0 {
				continue
			}
			moveBlock(sb, b)
			return true, nil
		}
		sb, ok := <-e.out
		if !ok {
			// Every worker is done. A sequence number still missing was
			// claimed by a worker that failed, so the error explains it.
			return false, e.loadErr()
		}
		if e.preserveOrder {
			i := sb.seq - e.nextSeq
			for len(e.pending) <= i {
				e.pending = append(e.pending, nil)
			}
			e.pending[i] = sb.b
			continue
		}
		moveBlock(sb.b, b)
		return true, nil
	}
}

func (e *Exchange) loadErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// Close implements Operator: signals shutdown, drains, and waits for every
// goroutine Open spawned to exit — an early Close (LIMIT, error, cancel)
// must not leak producers or workers.
func (e *Exchange) Close() error {
	if e.done != nil {
		close(e.done)
		e.done = nil
	}
	// Drain so workers unblock.
	if e.out != nil {
		for range e.out {
		}
		e.out = nil
	}
	e.all.Wait()
	e.pending = nil
	return e.child.Close()
}

func copyBlock(src *vec.Block) *vec.Block {
	dst := &vec.Block{N: src.N, Vecs: make([]vec.Vector, len(src.Vecs))}
	for i := range src.Vecs {
		v := &src.Vecs[i]
		dst.Vecs[i] = vec.Vector{Type: v.Type, Heap: v.Heap, Dict: v.Dict,
			Data: append([]uint64(nil), v.Data[:src.N]...)}
		if v.Runs != nil {
			// Preserve the encoding across the exchange so run-capable
			// consumers (e.g. parallel aggregation workers) still see runs.
			dst.Vecs[i].Runs = append([]enc.Run(nil), v.Runs...)
		}
	}
	return dst
}

func moveBlock(src, dst *vec.Block) {
	ensureVecs(dst, len(src.Vecs))
	for i := range src.Vecs {
		v := &src.Vecs[i]
		dst.Vecs[i].Type = v.Type
		dst.Vecs[i].Heap = v.Heap
		dst.Vecs[i].Dict = v.Dict
		copy(dst.Vecs[i].Data, v.Data[:src.N])
		if v.Runs != nil { // ensureVecs cleared dst's Runs
			dst.Vecs[i].Runs = append(dst.Vecs[i].Runs, v.Runs...)
		}
	}
	dst.N = src.N
}
