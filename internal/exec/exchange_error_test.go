package exec

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tde/internal/types"
	"tde/internal/vec"
)

// countingOp counts the blocks pulled from it and its Opens not yet
// Closed.
type countingOp struct {
	child  Operator
	blocks atomic.Int64
	open   atomic.Int64
}

func (c *countingOp) Schema() []ColInfo { return c.child.Schema() }
func (c *countingOp) Open(qc *QueryCtx) error {
	err := c.child.Open(qc)
	if err == nil {
		c.open.Add(1)
	}
	return err
}
func (c *countingOp) Close() error {
	c.open.Add(-1)
	return c.child.Close()
}
func (c *countingOp) Next(b *vec.Block) (bool, error) {
	ok, err := c.child.Next(b)
	if ok {
		c.blocks.Add(1)
	}
	return ok, err
}

// bomb is a predicate that keeps every row until its trigger block, then
// panics (the only way a predicate can fail; Exchange contains the panic
// and surfaces it as the query error).
type bomb struct {
	seen    *atomic.Int64
	trigger int64
}

func (p bomb) Type() types.Type { return types.Boolean }
func (p bomb) String() string   { return "bomb" }
func (p bomb) Eval(b *vec.Block, out *vec.Vector) {
	if p.seen.Add(1) == p.trigger {
		panic("bomb")
	}
	for i := range out.Data[:b.N] {
		out.Data[i] = types.FromBool(true)
	}
}

// TestExchangeWorkerErrorStopsProducer is the regression test for the
// error-path drain bug: when a worker fails mid-stream, the producer must
// stop pulling the child instead of consuming the entire input into a
// doomed query, the error must surface from Next exactly once (and stay
// sticky), and Close must return with the output channel still full.
func TestExchangeWorkerErrorStopsProducer(t *testing.T) {
	n := 2_000_000 // ~2000 blocks
	tab := makeTable("big", makeIntColumn("a", types.Integer, seqInts(n)))
	scan, err := NewScan(tab)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingOp{child: scan}
	var seen atomic.Int64
	ex := NewExchange(NewSelect(counter, bomb{seen: &seen, trigger: 5}), 2, false)
	if err := ex.Open(nil); err != nil {
		t.Fatal(err)
	}
	b := vec.NewBlock(1)
	var firstErr error
	errs := 0
	for i := 0; i < 10_000; i++ {
		ok, err := ex.Next(b)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			} else if err.Error() != firstErr.Error() {
				t.Fatalf("second error differs: %v vs %v", err, firstErr)
			}
			errs++
			if errs == 1 {
				continue // error must stay sticky on the following call
			}
			break
		}
		if !ok {
			break
		}
	}
	if firstErr == nil {
		t.Fatal("worker panic never surfaced from Next")
	}
	if !strings.Contains(firstErr.Error(), "panicked") {
		t.Fatalf("unexpected error: %v", firstErr)
	}
	if errs < 2 {
		t.Fatal("error did not stay sticky across Next calls")
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	// The producer must have stopped early: with ~2000 input blocks and a
	// failure at block 5, consuming more than a small multiple of the
	// channel capacity means the drain bug is back.
	if got := counter.blocks.Load(); got > 100 {
		t.Fatalf("producer consumed %d blocks after the worker error (early-stop broken)", got)
	}
}

// TestExchangeCloseFullChannelNoDeadlock opens an exchange, never calls
// Next (so the bounded output channel fills and the workers block), then
// closes. Close must drain and join every goroutine promptly.
func TestExchangeCloseFullChannelNoDeadlock(t *testing.T) {
	n := 500_000
	tab := makeTable("big", makeIntColumn("a", types.Integer, seqInts(n)))
	scan, err := NewScan(tab)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExchange(scan, 4, true)
	if err := ex.Open(nil); err != nil {
		t.Fatal(err)
	}
	// Give producer/workers time to fill the output channel.
	time.Sleep(20 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- ex.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked with a full output channel")
	}
}
