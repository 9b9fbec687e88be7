package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// runLeakChecked opens op under qc, drains it, closes it, and then
// asserts the memory accountant is back to zero — the leak oracle every
// operator must satisfy on success and on every failure path alike.
func runLeakChecked(t *testing.T, name string, qc *QueryCtx, op Operator) error {
	t.Helper()
	err := func() error {
		if err := op.Open(qc); err != nil {
			return err
		}
		b := vec.NewBlock(len(op.Schema()))
		for {
			ok, err := op.Next(b)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}()
	if cerr := op.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if used := qc.Used(); used != 0 {
		t.Errorf("%s: %d bytes still charged after Close (err=%v)", name, used, err)
	}
	qc.CleanupSpill()
	return err
}

// leakTables builds a fact table big enough that tiny budgets fail and a
// dimension to join it with.
func leakTables() (fact, dim *storage.Table) {
	n := 6000
	keys := make([]int64, n)
	vals := make([]int64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i % 2000)
		vals[i] = int64(i % 97)
		strs[i] = "name-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	fact = makeTable("fact",
		makeIntColumn("k", types.Integer, keys),
		makeIntColumn("v", types.Integer, vals),
		makeStringColumn("s", strs))
	dn := 2000
	dkeys := make([]int64, dn)
	dstrs := make([]string, dn)
	for i := 0; i < dn; i++ {
		dkeys[i] = int64(i)
		dstrs[i] = "dim-" + string(rune('a'+i%26))
	}
	dim = makeTable("dim",
		makeIntColumn("dkey", types.Integer, dkeys),
		makeStringColumn("dval", dstrs))
	return fact, dim
}

// TestOperatorsReleaseAllMemory drives every stop-and-go operator, and
// the ordered aggregate's flow, through success, fail-fast budget denial,
// spilling completion, and disk-budget exhaustion, requiring the
// accountant to read zero after Close in every case — including
// mid-query failures and a limit that closes the flow mid-stream — and
// the child to be closed.
func TestOperatorsReleaseAllMemory(t *testing.T) {
	fact, dim := leakTables()
	mustScan := func(tab *storage.Table) Operator {
		s, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	specs := []AggSpec{{Func: Count, Col: -1, Name: "n"}, {Func: Sum, Col: 1, Name: "sv"},
		{Func: Min, Col: 2, Name: "ms"}}
	var children []*countingOp // inputs that must be closed with their operator
	ops := map[string]func() Operator{
		"agg-hash": func() Operator {
			return NewAggregate(mustScan(fact), []int{0}, specs, AggHash)
		},
		"agg-ordered": func() Operator {
			// the fact scan is not sorted by col 2, but ordered mode only
			// needs *a* grouping; use col 0 of the dim (unique, sorted)
			return NewAggregate(mustScan(dim), []int{0}, []AggSpec{
				{Func: Count, Col: -1, Name: "n"}, {Func: Min, Col: 1, Name: "mv"}}, AggOrdered)
		},
		// Closed mid-stream: the limit stops after the first groups.
		"agg-ordered-limit": func() Operator {
			child := &countingOp{child: mustScan(dim)}
			children = append(children, child)
			return NewLimit(NewAggregate(child, []int{0}, []AggSpec{
				{Func: Count, Col: -1, Name: "n"}, {Func: Min, Col: 1, Name: "mv"}}, AggOrdered), 5)
		},
		"agg-parallel": func() Operator {
			return parallelAggregate(mustScan(fact), []int{0}, specs, AggHash, 4)
		},
		"agg-parallel-direct": func() Operator {
			return parallelAggregate(mustScan(fact), []int{0}, specs, AggDirect, 4)
		},
		// String keys: the translators' memos are charged like the groups.
		"agg-hash-strkey": func() Operator {
			return NewAggregate(mustScan(fact), []int{2}, specs, AggHash)
		},
		"agg-parallel-strkey": func() Operator {
			return parallelAggregate(mustScan(fact), []int{2, 0}, specs, AggHash, 4)
		},
		"sort": func() Operator {
			return NewSort(mustScan(fact), SortKey{Col: 2}, SortKey{Col: 1}, SortKey{Col: 0})
		},
		"topn": func() Operator {
			return NewBoundedSort(mustScan(fact), 64, SortKey{Col: 2}, SortKey{Col: 0})
		},
		"flowtable": func() Operator {
			return NewFlowTable(mustScan(fact), DefaultFlowTableConfig())
		},
		"hash-join": func() Operator {
			ft := NewFlowTable(mustScan(dim), DefaultFlowTableConfig())
			return NewHashJoin(mustScan(fact), ft, 0, 0, JoinHash)
		},
	}
	for name, mk := range ops {
		t.Run(name, func(t *testing.T) {
			// Success, unbudgeted.
			if err := runLeakChecked(t, name+"/ok", NewQueryCtx(nil, 0), mk()); err != nil {
				t.Fatalf("unbudgeted run failed: %v", err)
			}
			// Fail-fast: a budget far too small and no spilling. The
			// operator may or may not error (small state fits), but must
			// not leak either way.
			err := runLeakChecked(t, name+"/fail-fast", NewQueryCtx(nil, 16<<10), mk())
			if err != nil && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("fail-fast run returned a non-budget error: %v", err)
			}
			// Spilling completion: same budget, generous disk.
			qc := NewQueryCtxSpill(nil, 16<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
			if err := runLeakChecked(t, name+"/spill", qc, mk()); err != nil &&
				!errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("spilling run failed: %v", err)
			}
			// Disk exhaustion: spilling allowed but the disk budget is
			// consumed almost immediately.
			qc = NewQueryCtxSpill(nil, 16<<10, SpillConfig{Budget: 1 << 10, Dir: t.TempDir()})
			if err := runLeakChecked(t, name+"/disk-full", qc, mk()); err != nil &&
				!errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("disk-full run returned a non-budget error: %v", err)
			}
			for _, c := range children {
				if n := c.open.Load(); n != 0 {
					t.Errorf("%s: the child is left open (%d)", name, n)
				}
			}
			children = nil
		})
	}
}

// cancelOn is a predicate that keeps every row and cancels the query on
// its at-th block.
type cancelOn struct {
	seen   *atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (c cancelOn) Type() types.Type { return types.Boolean }
func (c cancelOn) String() string   { return "cancelOn" }
func (c cancelOn) Eval(b *vec.Block, out *vec.Vector) {
	if c.seen.Add(1) == c.at {
		c.cancel()
	}
	for i := range out.Data[:b.N] {
		out.Data[i] = types.FromBool(true)
	}
}

// TestMorselCancelLeaksNothing cancels the parallel consumers of a clean
// scan's claim cursor mid-scan — an Exchange, cancelled by its own chain
// on the third block, and a parallel aggregation, cancelled once its
// groups are being charged — and requires context.Canceled, nothing
// charged after Close, and every worker goroutine gone.
func TestMorselCancelLeaksNothing(t *testing.T) {
	tab := bigTable(1_000_000)
	before := runtime.NumGoroutine()
	for _, workers := range []int{2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		scan, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		var seen atomic.Int64
		ex := NewExchange(NewSelect(scan, cancelOn{seen: &seen, at: 3, cancel: cancel}), workers, false)
		if err := runLeakChecked(t, "exchange", NewQueryCtx(ctx, 0), ex); !errors.Is(err, context.Canceled) {
			t.Fatalf("exchange workers=%d: err = %v, want context.Canceled", workers, err)
		}
		cancel()

		ctx, cancel = context.WithCancel(context.Background())
		qc := NewQueryCtx(ctx, 0)
		scan, err = NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		agg := parallelAggregate(scan, []int{1}, []AggSpec{{Func: Count, Col: -1}}, AggHash, workers)
		done := make(chan struct{})
		go func() {
			for qc.Used() < 1<<16 {
				select {
				case <-done:
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
			cancel()
		}()
		err = runLeakChecked(t, "aggregate", qc, agg)
		close(done)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("aggregate workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	if after := countGoroutines(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after cancelled scans", before, after)
	}
}
