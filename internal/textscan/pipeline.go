package textscan

import (
	"fmt"
	"runtime"
	"sync"

	"tde/internal/exec"
	"tde/internal/vec"
)

// The parallel import pipeline (Sect. 5.1.2) replaces per-column
// goroutines with morsel parallelism over row blocks: one producer owns
// the byte cursor and tokenizes line batches; workers split fields into
// a private reused slab and parse all columns of their batch into private
// blocks; the consumer (TextScan.Next) reassembles the stream in input
// order, so a parallel import is byte-identical to a serial one. Finished
// blocks are recycled through a free list to keep the steady-state
// allocation rate flat.

// lineBatch is one morsel: up to BlockSize raw lines (slices into the
// immutable input buffer).
type lineBatch struct {
	seq   int
	lines [][]byte
}

type parsedBlock struct {
	seq int
	b   *vec.Block
}

type pipeline struct {
	ts      *TextScan
	workers int

	out  chan parsedBlock
	free chan *vec.Block
	done chan struct{}
	all  sync.WaitGroup

	errMu sync.Mutex
	err   error

	// pending is the reorder buffer: pending[i] holds block nextSeq+i, nil
	// until it arrives (sequence numbers are dense).
	pending []*vec.Block
	nextSeq int
}

// pipelineWorkers sizes the worker pool: at least 2 so the parse stage
// genuinely overlaps (and the locale-lock ablation still contends), at
// most 8.
func pipelineWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if w > 8 {
		w = 8
	}
	return w
}

// startPipeline spawns the producer and parse workers. The caller (Open)
// has already positioned the cursor past any header; the producer is the
// cursor's sole user from here on.
func (ts *TextScan) startPipeline(qc *exec.QueryCtx) {
	w := pipelineWorkers()
	p := &pipeline{
		ts:      ts,
		workers: w,
		out:     make(chan parsedBlock, 2*w),
		free:    make(chan *vec.Block, 2*w+2),
		done:    make(chan struct{}),
	}
	work := make(chan lineBatch, 2*w)
	// The goroutines capture the channels as locals: stop() nils the
	// struct fields from the consumer side, and sharing the fields with
	// the workers would race.
	done, out := p.done, p.out

	p.all.Add(1)
	go func() { // producer: tokenize into line batches
		defer p.all.Done()
		defer close(work)
		defer p.contain("producer")
		seq := 0
		for {
			if err := qc.Err(); err != nil {
				p.setErr(err)
				return
			}
			if p.loadErr() != nil {
				return
			}
			select {
			case <-done:
				return
			default:
			}
			lines := ts.readBatch(make([][]byte, 0, vec.BlockSize))
			if len(lines) == 0 {
				return
			}
			select {
			case work <- lineBatch{seq: seq, lines: lines}:
			case <-done:
				return
			case <-qc.Done():
				p.setErr(qc.Err())
				return
			}
			seq++
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		p.all.Add(1)
		go func() { // worker: split fields + parse every column
			defer p.all.Done()
			defer wg.Done()
			defer p.contain("worker")
			var sp splitter
			for batch := range work {
				if p.loadErr() != nil {
					continue // keep draining so the producer never blocks
				}
				b := p.getBlock()
				ts.parseBlock(sp.split(batch.lines, ts.sep), b)
				select {
				case out <- parsedBlock{seq: batch.seq, b: b}:
				case <-done:
					return
				case <-qc.Done():
					p.setErr(qc.Err())
					return
				}
			}
		}()
	}
	p.all.Add(1)
	go func() {
		defer p.all.Done()
		wg.Wait()
		close(out)
	}()
	ts.pipe = p
}

func (p *pipeline) contain(stage string) {
	if r := recover(); r != nil {
		p.setErr(fmt.Errorf("textscan: parallel %s panicked: %v", stage, r))
	}
}

func (p *pipeline) setErr(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

func (p *pipeline) loadErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

func (p *pipeline) getBlock() *vec.Block {
	select {
	case b := <-p.free:
		return b
	default:
		return vec.NewBlock(len(p.ts.specs))
	}
}

func (p *pipeline) recycle(b *vec.Block) {
	select {
	case p.free <- b:
	default:
	}
}

// next emits parsed blocks in input order (the import analogue of
// order-preserving exchange routing: row order is part of the file's
// meaning and downstream encodings depend on it).
func (p *pipeline) next(b *vec.Block) (bool, error) {
	for {
		if err := p.ts.qc.Err(); err != nil {
			return false, err
		}
		if err := p.loadErr(); err != nil {
			return false, err
		}
		if len(p.pending) > 0 && p.pending[0] != nil {
			src := p.pending[0]
			copy(p.pending, p.pending[1:])
			p.pending[len(p.pending)-1] = nil
			p.pending = p.pending[:len(p.pending)-1]
			p.nextSeq++
			p.emit(src, b)
			return true, nil
		}
		pb, ok := <-p.out
		if !ok {
			return false, p.loadErr()
		}
		i := pb.seq - p.nextSeq
		for len(p.pending) <= i {
			p.pending = append(p.pending, nil)
		}
		p.pending[i] = pb.b
	}
}

// emit copies a worker block into the caller's block and recycles the
// worker's. The copy keeps the heap pointer: a recycled block grows a
// fresh heap on its next parse, so the caller's reference stays valid
// until its following Next call (the operator contract).
func (p *pipeline) emit(src, dst *vec.Block) {
	ensure(dst, len(src.Vecs), src.N)
	for i := range src.Vecs {
		v := &src.Vecs[i]
		d := &dst.Vecs[i]
		d.Type = v.Type
		d.Heap = v.Heap
		d.Dict = v.Dict
		copy(d.Data, v.Data[:src.N])
	}
	dst.N = src.N
	p.recycle(src)
}

// stop signals shutdown, drains, and joins every goroutine; safe to call
// more than once.
func (p *pipeline) stop() {
	if p.done != nil {
		close(p.done)
		p.done = nil
	}
	if p.out != nil {
		for range p.out {
		}
		p.out = nil
	}
	p.all.Wait()
	p.pending = nil
}
