package exec

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"tde/internal/vec"
)

// buildFlow materializes child with the default configuration, inline or
// through the pipelined column builders.
func buildFlow(t *testing.T, qc *QueryCtx, child Operator, parallel bool) (*Built, error) {
	t.Helper()
	cfg := DefaultFlowTableConfig()
	cfg.Parallel = parallel
	ft := NewFlowTable(child, cfg)
	bt, err := ft.BuildTable(qc)
	if cerr := ft.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return bt, err
}

// aliasOp hands out its child's rows in buffers of its own, reused on
// every Next: a block is valid only until the next call, as the operator
// contract allows.
type aliasOp struct {
	child Operator
	bufs  [][]uint64
}

func (o *aliasOp) Schema() []ColInfo       { return o.child.Schema() }
func (o *aliasOp) Open(qc *QueryCtx) error { return o.child.Open(qc) }
func (o *aliasOp) Close() error            { return o.child.Close() }
func (o *aliasOp) Next(b *vec.Block) (bool, error) {
	ok, err := o.child.Next(b)
	for c := len(o.bufs); c < len(b.Vecs); c++ {
		o.bufs = append(o.bufs, make([]uint64, vec.BlockSize))
	}
	for c := range b.Vecs {
		copy(o.bufs[c], b.Vecs[c].Data[:b.N])
		b.Vecs[c].Data = o.bufs[c]
	}
	return ok, err
}

// TestFlowTablePipelinedMatchesInline: the pipelined builders produce the
// inline build's columns byte for byte, over a scan, over a child that
// hands out vectors over its own reused buffers (which the ring must copy
// before the child refills them) and over blocks of runs (which it must
// expand).
func TestFlowTablePipelinedMatchesInline(t *testing.T) {
	sources := map[string]func() Operator{
		"scan": func() Operator {
			scan, err := NewScan(aggTestTable(30_000, 11))
			if err != nil {
				t.Fatal(err)
			}
			return scan
		},
		"aliasing": func() Operator {
			scan, err := NewScan(aggTestTable(30_000, 11))
			if err != nil {
				t.Fatal(err)
			}
			return &aliasOp{child: scan}
		},
		"runs": func() Operator { return alignedRunBlocks(4) },
	}
	for name, src := range sources {
		inline, err := buildFlow(t, nil, src(), false)
		if err != nil {
			t.Fatal(err)
		}
		piped, err := buildFlow(t, nil, src(), true)
		if err != nil {
			t.Fatal(err)
		}
		if inline.Rows != piped.Rows || len(inline.Cols) != len(piped.Cols) {
			t.Fatalf("%s: %d rows × %d columns inline, %d × %d pipelined", name,
				inline.Rows, len(inline.Cols), piped.Rows, len(piped.Cols))
		}
		for c := range inline.Cols {
			a, b := &inline.Cols[c], &piped.Cols[c]
			if !bytes.Equal(a.Data.Bytes(), b.Data.Bytes()) {
				t.Fatalf("%s: column %s differs between inline and pipelined builds", name, a.Info.Name)
			}
			if (a.Info.Heap == nil) != (b.Info.Heap == nil) ||
				a.Info.Heap != nil && !bytes.Equal(a.Info.Heap.Bytes(), b.Info.Heap.Bytes()) {
				t.Fatalf("%s: column %s has another heap when pipelined", name, a.Info.Name)
			}
		}
	}
}

// nilHeapOp passes its child's blocks through, except that from the
// after-th block on, column col's string tokens lose their heap, which
// makes the column's builder panic.
type nilHeapOp struct {
	child Operator
	col   int
	after int
	seen  int
}

func (o *nilHeapOp) Schema() []ColInfo       { return o.child.Schema() }
func (o *nilHeapOp) Open(qc *QueryCtx) error { o.seen = 0; return o.child.Open(qc) }
func (o *nilHeapOp) Close() error            { return o.child.Close() }
func (o *nilHeapOp) Next(b *vec.Block) (bool, error) {
	ok, err := o.child.Next(b)
	if o.seen++; ok && o.seen > o.after {
		b.Vecs[o.col].Heap = nil
	}
	return ok, err
}

// TestFlowTablePipelineFailures: a child error, a denied charge, a
// cancellation and a panicking column builder, each mid-stream, fail the
// pipelined build with their own error, leave nothing charged and stop
// every builder goroutine.
func TestFlowTablePipelineFailures(t *testing.T) {
	tab := aggTestTable(60_000, 3)
	boom := errors.New("boom")
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name   string
		budget int64
		wrap   func(Operator, context.CancelFunc) Operator
		check  func(error) bool
	}{
		{"child error", 0, func(op Operator, _ context.CancelFunc) Operator {
			return &errAfterOp{child: op, after: 20, err: boom}
		}, func(err error) bool { return errors.Is(err, boom) }},
		{"budget", 1 << 20, func(op Operator, _ context.CancelFunc) Operator { return op },
			func(err error) bool { return errors.Is(err, ErrBudgetExceeded) }},
		{"cancel", 0, func(op Operator, cancel context.CancelFunc) Operator {
			return &cancelAfterBlocks{child: op, at: 20, cancel: cancel}
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"builder panic", 0, func(op Operator, _ context.CancelFunc) Operator {
			return &nilHeapOp{child: op, col: 0, after: 20}
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "builder panicked") }},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		qc := NewQueryCtx(ctx, tc.budget)
		scan, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		_, err = buildFlow(t, qc, tc.wrap(scan, cancel), true)
		cancel()
		if !tc.check(err) {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if used := qc.Used(); used != 0 {
			t.Fatalf("%s: %d bytes still charged after the failed build", tc.name, used)
		}
	}
	if after := countGoroutines(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after the failed builds", before, after)
	}
}

// cancelAfterBlocks cancels the query once it has passed at blocks on;
// the child's next block sees the cancellation.
type cancelAfterBlocks struct {
	child  Operator
	at     int
	seen   int
	cancel context.CancelFunc
}

func (o *cancelAfterBlocks) Schema() []ColInfo       { return o.child.Schema() }
func (o *cancelAfterBlocks) Open(qc *QueryCtx) error { o.seen = 0; return o.child.Open(qc) }
func (o *cancelAfterBlocks) Close() error            { return o.child.Close() }
func (o *cancelAfterBlocks) Next(b *vec.Block) (bool, error) {
	if o.seen++; o.seen == o.at {
		o.cancel()
	}
	return o.child.Next(b)
}
