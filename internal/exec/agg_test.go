package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tde/internal/enc"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// aggTestTable builds an unsorted table with every column shape the
// aggregates touch: a small string key, two int keys, a real measure, an
// int measure with NULLs, and a high-cardinality string.
func aggTestTable(n int, seed int64) *storage.Table {
	rng := rand.New(rand.NewSource(seed))
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	ks := make([]string, n)
	k1 := make([]int64, n)
	k2 := make([]int64, n)
	vr := make([]int64, n)
	vi := make([]int64, n)
	hs := make([]string, n)
	for i := 0; i < n; i++ {
		ks[i] = keys[rng.Intn(len(keys))]
		k1[i] = int64(rng.Intn(7))
		k2[i] = int64(rng.Intn(5000))
		vr[i] = int64(types.FromReal(rng.Float64()*1000 - 500))
		if rng.Intn(10) == 0 {
			vi[i] = types.NullInteger
		} else {
			vi[i] = int64(rng.Intn(100000) - 50000)
		}
		hs[i] = fmt.Sprintf("item-%04d", rng.Intn(2000))
	}
	rvals := make([]int64, n)
	for i, bits := range vr {
		rvals[i] = bits
	}
	rw := makeIntColumn("vr", types.Real, rvals)
	return makeTable("aggtest",
		makeStringColumn("ks", ks),
		makeIntColumn("k1", types.Integer, k1),
		makeIntColumn("k2", types.Integer, k2),
		rw,
		makeIntColumn("vi", types.Integer, vi),
		makeStringColumn("hs", hs),
	)
}

// sortRows canonicalizes a result for order-insensitive comparison:
// real-valued cells are rounded to 9 significant digits, because parallel
// SUM/AVG reassociate float additions and may differ in the last ulps.
func sortRows(rows [][]string) {
	for _, r := range rows {
		for i, cell := range r {
			if !strings.ContainsAny(cell, ".eE") {
				continue
			}
			if f, err := strconv.ParseFloat(cell, 64); err == nil {
				r[i] = strconv.FormatFloat(f, 'g', 9, 64)
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		return strings.Join(rows[i], "\x00") < strings.Join(rows[j], "\x00")
	})
}

func rowsEqual(t *testing.T, serial, parallel [][]string, label string) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: %d serial rows vs %d parallel", label, len(serial), len(parallel))
	}
	for i := range serial {
		if strings.Join(serial[i], "|") != strings.Join(parallel[i], "|") {
			t.Fatalf("%s: row %d differs:\n serial   %v\n parallel %v",
				label, i, serial[i], parallel[i])
		}
	}
}

// parallelAggregate is NewAggregate with a worker count.
func parallelAggregate(child Operator, keyCols []int, specs []AggSpec, mode AggMode, workers int) *Aggregate {
	a := NewAggregate(child, keyCols, specs, mode)
	a.Workers = workers
	return a
}

// TestAggregateRegimes runs every aggregate function through the one
// Aggregate across its regimes — workers 1/2/8 × the mode the tactical
// choice lands on for each key shape (hash for a key with NULLs or
// several keys, direct for a narrow envelope, token-direct for a
// dictionary column, ordered for a sorted key, which more than one worker
// demotes to hash) × unbudgeted
// and 256 KiB with spilling — and requires each to agree with the serial
// unbudgeted hash aggregation, in the mode expected, with EncodedOff
// keeping token-direct off at any worker count.
func TestAggregateRegimes(t *testing.T) {
	base := aggTestTable(6_000, 7)
	n := base.Rows()
	dv := make([]int64, n)
	ov := make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range dv {
		dv[i] = int64(1000 + 50*rng.Intn(9))
		ov[i] = int64(i / 100)
	}
	kd := makeIntColumn("kd", types.Integer, dv)
	if err := storage.ConvertToDictCompression(kd); err != nil {
		t.Fatalf("dictionary-compressing kd: %v", err)
	}
	tab := makeTable("aggtest", append(append([]*storage.Column{}, base.Columns...),
		kd, makeIntColumn("ko", types.Integer, ov))...)
	specs := []AggSpec{
		{Func: Count, Col: -1},
		{Func: Sum, Col: 4},
		{Func: Sum, Col: 3},
		{Func: Avg, Col: 4},
		{Func: Min, Col: 4},
		{Func: Max, Col: 3},
		{Func: Min, Col: 5},
		{Func: Max, Col: 5},
		{Func: CountD, Col: 5},
		{Func: CountD, Col: 2},
		{Func: Median, Col: 4},
	}
	run := func(keys []int, mode AggMode, workers int, encodedOff bool, qc *QueryCtx) ([][]string, AggMode) {
		t.Helper()
		scan, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		agg := parallelAggregate(scan, keys, specs, mode, workers)
		agg.EncodedOff = encodedOff
		rows, err := CollectStringsCtx(qc, agg)
		if err != nil {
			t.Fatalf("keys=%v workers=%d: %v", keys, workers, err)
		}
		sortRows(rows)
		return rows, agg.Mode()
	}
	for _, tc := range []struct {
		name     string
		keys     []int
		serial   AggMode // what AggAuto picks with one worker
		parallel AggMode // ... and with several
	}{
		{"hash", []int{4}, AggHash, AggHash},
		{"hash-multi-key", []int{0, 2}, AggHash, AggHash},
		{"hash-global", nil, AggHash, AggHash},
		{"direct", []int{1}, AggDirect, AggDirect},
		// A string key's stored token envelope does not bound the re-interned
		// tokens the aggregation groups on: never direct.
		{"hash-string", []int{0}, AggHash, AggHash},
		{"token-direct", []int{6}, AggTokenDirect, AggTokenDirect},
		{"ordered-demoted", []int{7}, AggOrdered, AggHash},
	} {
		want, _ := run(tc.keys, AggHash, 1, false, nil)
		for _, workers := range []int{1, 2, 8} {
			wantMode := tc.serial
			if workers > 1 {
				wantMode = tc.parallel
			}
			for _, budgeted := range []bool{false, true} {
				if budgeted && len(tc.keys) == 0 {
					continue // one group's COUNTD/MEDIAN state cannot be evicted piecemeal
				}
				label := fmt.Sprintf("%s workers=%d budgeted=%v", tc.name, workers, budgeted)
				qc := NewQueryCtx(nil, 0)
				if budgeted {
					qc = NewQueryCtxSpill(nil, 256<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
				}
				got, mode := run(tc.keys, AggAuto, workers, false, qc)
				if mode != wantMode {
					t.Fatalf("%s: ran in %v mode, want %v", label, mode, wantMode)
				}
				rowsEqual(t, want, got, label)
				if budgeted && qc.SpillPeak() == 0 {
					t.Fatalf("%s: a 256 KiB budget did not spill", label)
				}
				if used := qc.Used(); used != 0 {
					t.Fatalf("%s: %d bytes still charged after Close", label, used)
				}
				qc.CleanupSpill()
			}
			if tc.serial == AggTokenDirect {
				got, mode := run(tc.keys, AggAuto, workers, true, nil)
				if mode == AggTokenDirect {
					t.Fatalf("%s workers=%d: EncodedOff did not reach the mode choice", tc.name, workers)
				}
				rowsEqual(t, want, got, tc.name+" encoded-off")
			}
		}
	}
}

// TestAggregateDirectChargeScalesWithWorkers pins the memory behaviour of
// direct mode inside workers: every worker charges its own envelope-sized
// table (here 60 001 slots, 480 KB), so a budget that holds one or two of
// them denies eight — and the operator then runs hash cores, which is what
// a budget too small for the direct tables always meant, spilling or not.
func TestAggregateDirectChargeScalesWithWorkers(t *testing.T) {
	vals := make([]int64, 6_000)
	for i := range vals {
		vals[i] = int64(i%2) * 60_000
	}
	tab := makeTable("wide", makeIntColumn("k", types.Integer, vals))
	specs := []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 0}}
	for _, spill := range []bool{false, true} {
		for _, tc := range []struct {
			workers int
			want    AggMode
		}{{1, AggDirect}, {2, AggDirect}, {8, AggHash}} {
			qc := NewQueryCtx(nil, 1<<20)
			if spill {
				qc = NewQueryCtxSpill(nil, 1<<20, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
			}
			scan, err := NewScan(tab)
			if err != nil {
				t.Fatal(err)
			}
			agg := parallelAggregate(scan, []int{0}, specs, AggAuto, tc.workers)
			rows, err := CollectStringsCtx(qc, agg)
			if err != nil {
				t.Fatalf("workers=%d spill=%v: %v", tc.workers, spill, err)
			}
			if agg.Mode() != tc.want {
				t.Errorf("workers=%d spill=%v: ran in %v mode, want %v", tc.workers, spill, agg.Mode(), tc.want)
			}
			sortRows(rows)
			rowsEqual(t, [][]string{{"0", "3000", "0"}, {"60000", "3000", "180000000"}}, rows,
				fmt.Sprintf("workers=%d spill=%v", tc.workers, spill))
			if used := qc.Used(); used != 0 {
				t.Errorf("workers=%d spill=%v: %d bytes still charged after Close", tc.workers, spill, used)
			}
			qc.CleanupSpill()
		}
	}
}

// TestAggregateWorkersOverRuns folds a run-emitting scan with several
// workers: each worker holds one block's runs while the scan fills the
// next worker's, so the runs must live in the block, not in the scan
// (a shared buffer is a data race under -race and a wrong SUM without it).
func TestAggregateWorkersOverRuns(t *testing.T) {
	vals := make([]int64, 300_000)
	var sum int64
	for i := range vals {
		vals[i] = int64(i / 7 % 1000)
		sum += vals[i]
	}
	col := makeIntColumn("v", types.Integer, vals)
	if col.Data.Kind() != enc.RunLength {
		t.Fatalf("column encoded as %v, want run-length", col.Data.Kind())
	}
	tab := makeTable("runs", col)
	for _, workers := range []int{1, 2, 8} {
		scan, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		scan.EmitRuns = true
		agg := parallelAggregate(scan, nil, []AggSpec{{Func: Count, Col: -1}, {Func: Sum, Col: 0}}, AggAuto, workers)
		rows, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || int64(rows[0][0]) != int64(len(vals)) || int64(rows[0][1]) != sum {
			t.Errorf("workers=%d: got %v, want [[%d %d]]", workers, rows, len(vals), sum)
		}
		if r := agg.routine(); !strings.HasPrefix(r, "rle-") {
			t.Errorf("workers=%d: routine %q did not fold runs", workers, r)
		}
	}
}

// TestAggregateEmptyInput checks zero input rows yields zero groups at
// any worker count, without hanging a worker.
func TestAggregateEmptyInput(t *testing.T) {
	tab := makeTable("empty", makeIntColumn("k", types.Integer, nil))
	for _, workers := range []int{1, 4} {
		scan, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(parallelAggregate(scan, []int{0}, []AggSpec{{Func: Count, Col: -1}}, AggAuto, workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("workers=%d: empty input produced %d groups", workers, len(rows))
		}
	}
}

// errAfterOp yields its child's blocks until a count, then errors.
type errAfterOp struct {
	child Operator
	after int
	seen  int
	err   error
}

func (e *errAfterOp) Schema() []ColInfo       { return e.child.Schema() }
func (e *errAfterOp) Open(qc *QueryCtx) error { e.seen = 0; return e.child.Open(qc) }
func (e *errAfterOp) Close() error            { return e.child.Close() }
func (e *errAfterOp) Next(b *vec.Block) (bool, error) {
	if e.seen >= e.after {
		return false, e.err
	}
	e.seen++
	return e.child.Next(b)
}

// TestAggregateFailures checks the three ways consuming can fail — a
// child error mid-stream, a budget too small for the group state (the
// workers' charges share one accountant) and cancellation — surface from
// Open exactly once at any worker count, stop every worker, and leave
// nothing charged.
func TestAggregateFailures(t *testing.T) {
	tab := aggTestTable(30_000, 11)
	boom := errors.New("boom")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		qc    func() *QueryCtx
		wrap  func(Operator) Operator
		keys  []int
		specs []AggSpec
		want  error
	}{
		{"child-error", func() *QueryCtx { return NewQueryCtx(nil, 0) },
			func(op Operator) Operator { return &errAfterOp{child: op, after: 3, err: boom} },
			[]int{1}, []AggSpec{{Func: Sum, Col: 4}}, boom},
		{"budget", func() *QueryCtx { return NewQueryCtx(nil, 20_000) },
			func(op Operator) Operator { return op },
			[]int{2}, []AggSpec{{Func: CountD, Col: 5}}, ErrBudgetExceeded},
		{"cancel", func() *QueryCtx { return NewQueryCtx(cancelled, 0) },
			func(op Operator) Operator { return op },
			[]int{1}, []AggSpec{{Func: Sum, Col: 4}}, context.Canceled},
	} {
		for _, workers := range []int{1, 4, 8} {
			scan, err := NewScan(tab)
			if err != nil {
				t.Fatal(err)
			}
			qc := tc.qc()
			agg := parallelAggregate(tc.wrap(scan), tc.keys, tc.specs, AggAuto, workers)
			if err := agg.Open(qc); !errors.Is(err, tc.want) {
				t.Fatalf("%s workers=%d: Open = %v, want %v", tc.name, workers, err, tc.want)
			}
			agg.Close()
			if used := qc.Used(); used != 0 {
				t.Fatalf("%s workers=%d: %d bytes still charged after Close", tc.name, workers, used)
			}
		}
	}
}
