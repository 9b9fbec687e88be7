package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// bigTable builds a table large enough that every operator needs many
// blocks to drain it.
func bigTable(n int) *storage.Table {
	vals := make([]int64, n)
	keys := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i * 7919) % 100003)
		keys[i] = int64(i % 997)
	}
	return makeTable("big",
		makeIntColumn("k", types.Integer, keys),
		makeIntColumn("v", types.Integer, vals))
}

// TestCancelMidScanReturnsPromptly cancels the context after the first
// block and checks the scan surfaces context.Canceled within one more
// Next call.
func TestCancelMidScanReturnsPromptly(t *testing.T) {
	tab := bigTable(50_000)
	scan, err := NewScan(tab)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	qc := NewQueryCtx(ctx, 0)
	if err := scan.Open(qc); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	b := vec.NewBlock(len(scan.Schema()))
	if ok, err := scan.Next(b); !ok || err != nil {
		t.Fatalf("first block: ok=%v err=%v", ok, err)
	}
	cancel()
	ok, err := scan.Next(b)
	if ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("after cancel: ok=%v err=%v, want context.Canceled", ok, err)
	}
}

// TestCancelTimeout checks a deadline surfaces as DeadlineExceeded from a
// long pipeline drain.
func TestCancelTimeout(t *testing.T) {
	tab := bigTable(200_000)
	scan, err := NewScan(tab)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	qc := NewQueryCtx(ctx, 0)
	sort := NewSort(scan, SortKey{Col: 1})
	_, err = RunCtx(qc, sort)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestBudgetExceeded drives each materializing operator with a budget far
// below its working set and checks the typed budget error comes back.
func TestBudgetExceeded(t *testing.T) {
	tab := bigTable(100_000)
	newScan := func() Operator {
		s, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name  string
		build func() Operator
	}{
		{"Sort", func() Operator { return NewSort(newScan(), SortKey{Col: 1}) }},
		{"TopN", func() Operator { return NewBoundedSort(newScan(), 90_000, SortKey{Col: 1}) }},
		{"AggregateHash", func() Operator {
			return NewAggregate(newScan(), []int{1}, []AggSpec{{Func: Count, Col: 0}}, AggHash)
		}},
		{"AggregateDirect", func() Operator {
			// 5 000 groups: the 5 001 slots' up-front charge fits the
			// budget, the groups' 16-byte SUM states do not.
			keys := make([]int64, 100_000)
			for i := range keys {
				keys[i] = int64(i % 5000)
			}
			s, err := NewScan(makeTable("direct", makeIntColumn("k", types.Integer, keys), makeIntColumn("v", types.Integer, keys)))
			if err != nil {
				t.Fatal(err)
			}
			return NewAggregate(s, []int{0}, []AggSpec{{Func: Sum, Col: 1}}, AggDirect)
		}},
		{"HashJoin", func() Operator {
			inner, err := NewScan(tab)
			if err != nil {
				t.Fatal(err)
			}
			return NewHashJoin(newScan(), NewFlowTable(inner, FlowTableConfig{Encode: true}), 0, 0, JoinHash)
		}},
		{"FlowTable", func() Operator {
			return NewFlowTable(newScan(), DefaultFlowTableConfig())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qc := NewQueryCtx(context.Background(), 64*1024)
			_, err := RunCtx(qc, tc.build())
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("want ErrBudgetExceeded, got %v", err)
			}
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("want *BudgetError, got %T", err)
			}
			if be.Op == "" || be.Budget != 64*1024 {
				t.Fatalf("budget error lacks context: %+v", be)
			}
			if qc.Used() > qc.Peak() {
				t.Fatalf("used %d exceeds peak %d", qc.Used(), qc.Peak())
			}
		})
	}
}

// TestBudgetSufficient checks a generous budget lets the same plans finish
// and that the accountant observed real usage.
func TestBudgetSufficient(t *testing.T) {
	tab := bigTable(10_000)
	scan, err := NewScan(tab)
	if err != nil {
		t.Fatal(err)
	}
	qc := NewQueryCtx(context.Background(), 64<<20)
	n, err := RunCtx(qc, NewSort(scan, SortKey{Col: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if n != 10_000 {
		t.Fatalf("sorted %d rows, want 10000", n)
	}
	if qc.Peak() == 0 {
		t.Fatal("accountant saw no usage from Sort")
	}
}

// countGoroutines samples with retries so scheduler stragglers from
// unrelated tests don't flake the comparison.
func countGoroutines(want int) int {
	var n int
	for i := 0; i < 50; i++ {
		n = runtime.NumGoroutine()
		if n <= want {
			return n
		}
		time.Sleep(2 * time.Millisecond)
	}
	return n
}

// TestExchangeNoLeakOnEarlyClose opens a parallel exchange, reads one
// block, and closes; every producer/worker/closer goroutine must exit.
func TestExchangeNoLeakOnEarlyClose(t *testing.T) {
	tab := bigTable(200_000)
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		scan, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		pred := expr.NewCmp(expr.GE, expr.NewColRef(1, "v", types.Integer), expr.NewIntConst(0))
		ex := NewExchange(NewSelect(scan, pred), 4, round%2 == 0)
		if err := ex.Open(nil); err != nil {
			t.Fatal(err)
		}
		b := vec.NewBlock(len(ex.Schema()))
		if ok, err := ex.Next(b); !ok || err != nil {
			t.Fatalf("round %d: first block ok=%v err=%v", round, ok, err)
		}
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := countGoroutines(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after early closes", before, after)
	}
}

// TestExchangeCancelUnblocks cancels a query mid-exchange and checks the
// drain both returns an error and leaves no goroutines behind.
func TestExchangeCancelUnblocks(t *testing.T) {
	tab := bigTable(200_000)
	before := runtime.NumGoroutine()
	scan, err := NewScan(tab)
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.NewCmp(expr.GE, expr.NewColRef(1, "v", types.Integer), expr.NewIntConst(0))
	ex := NewExchange(NewSelect(scan, pred), 4, true)
	ctx, cancel := context.WithCancel(context.Background())
	qc := NewQueryCtx(ctx, 0)
	if err := ex.Open(qc); err != nil {
		t.Fatal(err)
	}
	b := vec.NewBlock(len(ex.Schema()))
	if ok, err := ex.Next(b); !ok || err != nil {
		t.Fatalf("first block: ok=%v err=%v", ok, err)
	}
	cancel()
	var lastErr error
	for i := 0; i < 1_000; i++ {
		ok, err := ex.Next(b)
		if err != nil {
			lastErr = err
			break
		}
		if !ok {
			break
		}
	}
	if lastErr != nil && !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("want context.Canceled (or clean EOS), got %v", lastErr)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if after := countGoroutines(before); after > before {
		t.Fatalf("goroutine leak after cancel: %d before, %d after", before, after)
	}
}

// TestChargeRollsBack checks a failed charge does not count toward usage.
func TestChargeRollsBack(t *testing.T) {
	qc := NewQueryCtx(context.Background(), 100)
	if err := qc.Charge("op", 60); err != nil {
		t.Fatal(err)
	}
	err := qc.Charge("op", 60)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if qc.Used() != 60 {
		t.Fatalf("failed charge leaked into usage: %d", qc.Used())
	}
	qc.Release(60)
	if qc.Used() != 0 {
		t.Fatalf("release did not zero usage: %d", qc.Used())
	}
	if qc.Peak() != 60 {
		t.Fatalf("peak lost: %d", qc.Peak())
	}
}

// TestNilQueryCtxIsInert checks the nil handle used throughout legacy call
// sites stays a no-op for every method.
func TestNilQueryCtxIsInert(t *testing.T) {
	var qc *QueryCtx
	if err := qc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := qc.Charge("op", 1<<40); err != nil {
		t.Fatal(err)
	}
	qc.Release(1)
	qc.Trace("op")
	if qc.Op() != "" || qc.Used() != 0 || qc.Peak() != 0 || qc.Budget() != 0 {
		t.Fatal("nil QueryCtx not inert")
	}
	if qc.Done() != nil {
		t.Fatal("nil QueryCtx must have nil done channel")
	}
	if qc.Context() != context.Background() {
		t.Fatal("nil QueryCtx must default to Background")
	}
}
