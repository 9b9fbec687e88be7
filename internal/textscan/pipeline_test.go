package textscan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tde/internal/exec"
	"tde/internal/vec"
)

func pipelineTestData(n int) []byte {
	var sb strings.Builder
	sb.WriteString("id|val|day|tag|\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d|%d.25|2013-%02d-%02d|tag%d|\n", i, i*3, i%12+1, i%28+1, i%500)
	}
	return []byte(sb.String())
}

// TestPipelineExactOrder checks the parallel pipeline reproduces the
// serial scan row-for-row (order included) over many blocks.
func TestPipelineExactOrder(t *testing.T) {
	data := pipelineTestData(20_000)
	serialTs, err := New(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := exec.CollectStrings(serialTs)
	if err != nil {
		t.Fatal(err)
	}
	parTs, err := New(data, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := exec.CollectStrings(parTs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		for c := range serial[i] {
			if serial[i][c] != parallel[i][c] {
				t.Fatalf("row %d col %d: %q vs %q", i, c, serial[i][c], parallel[i][c])
			}
		}
	}
}

// TestWorkerBlockParseAllocations pins what one worker spends on a block:
// fields go to the reused slab and strings straight into the block heap,
// so the allocations are the heaps' own (a new heap per string column and
// its presized buffer) — a constant, not one or more per row.
func TestWorkerBlockParseAllocations(t *testing.T) {
	ts, err := New(pipelineTestData(vec.BlockSize), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts.lineEnd() // header
	lines := ts.readBatch(nil)
	if len(lines) != vec.BlockSize {
		t.Fatalf("batch of %d lines, want %d", len(lines), vec.BlockSize)
	}
	var sp splitter
	b := vec.NewBlock(len(ts.specs))
	ts.parseBlock(sp.split(lines, ts.sep), b) // grow the slab and the block
	allocs := testing.AllocsPerRun(20, func() { ts.parseBlock(sp.split(lines, ts.sep), b) })
	const perStringColumn = 2 // heap.New and its one presized buffer
	if allocs > perStringColumn {
		t.Fatalf("one block parse allocates %.0f times (%d rows, one string column), want <= %d",
			allocs, len(lines), perStringColumn)
	}
	if b.N != len(lines) || ts.specs[3].Name != "tag" || b.Vecs[3].Heap.Get(b.Vecs[3].Data[7]) != "tag7" {
		t.Fatalf("parsed block is wrong: N=%d specs=%v", b.N, ts.specs)
	}
}

// TestPipelineCancel cancels mid-import and checks the error surfaces and
// every goroutine joins on Close.
func TestPipelineCancel(t *testing.T) {
	data := pipelineTestData(50_000)
	ts, err := New(data, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	qc := exec.NewQueryCtx(ctx, 0)
	if err := ts.Open(qc); err != nil {
		t.Fatal(err)
	}
	b := vec.NewBlock(len(ts.Schema()))
	if ok, err := ts.Next(b); !ok || err != nil {
		t.Fatalf("first block: ok=%v err=%v", ok, err)
	}
	cancel()
	var gotErr error
	for i := 0; i < 1000; i++ {
		ok, err := ts.Next(b)
		if err != nil {
			gotErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(gotErr, context.Canceled) {
		t.Fatalf("after cancel: err=%v, want context.Canceled", gotErr)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineEarlyClose abandons the stream after one block; Close must
// join the producer and workers without deadlocking.
func TestPipelineEarlyClose(t *testing.T) {
	data := pipelineTestData(50_000)
	ts, err := New(data, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Open(nil); err != nil {
		t.Fatal(err)
	}
	b := vec.NewBlock(len(ts.Schema()))
	if ok, err := ts.Next(b); !ok || err != nil {
		t.Fatalf("first block: ok=%v err=%v", ok, err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	// Close again must be a no-op.
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}
