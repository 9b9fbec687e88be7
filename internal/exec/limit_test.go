package exec

import (
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"testing"

	"tde/internal/storage"
	"tde/internal/types"
)

func TestLimitOperator(t *testing.T) {
	tab := makeTable("t", makeIntColumn("a", types.Integer, seqInts(5000)))
	scan, _ := NewScan(tab)
	rows, err := Collect(NewLimit(scan, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("limit kept %d rows", len(rows))
	}
	for i, r := range rows {
		if int64(r[0]) != int64(i) {
			t.Fatalf("row %d = %d", i, int64(r[0]))
		}
	}
	// Limit larger than input passes everything.
	scan2, _ := NewScan(tab)
	rows, _ = Collect(NewLimit(scan2, 100000))
	if len(rows) != 5000 {
		t.Fatalf("oversized limit kept %d", len(rows))
	}
	// Limit crossing a block boundary.
	scan3, _ := NewScan(tab)
	rows, _ = Collect(NewLimit(scan3, 1500))
	if len(rows) != 1500 {
		t.Fatalf("cross-block limit kept %d", len(rows))
	}
}

// TestTopNMatchesFullSort: a bounded Sort answers the rows a stable full
// sort puts first, row ids included, over nearly distinct keys and over
// a key with many ties, in memory and when its n rows outgrow a 64 KiB
// budget and spill.
func TestTopNMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wide, narrow := make([]int64, 20000), make([]int64, 20000)
	for i := range wide {
		wide[i], narrow[i] = int64(rng.Intn(1000000)), int64(rng.Intn(50))
	}
	for keys, vals := range map[string][]int64{"distinct": wide, "ties": narrow} {
		tab := makeTable("t", makeIntColumn("a", types.Integer, vals), makeIntColumn("id", types.Integer, seqInts(len(vals))))
		for _, desc := range []bool{false, true} {
			for _, n := range []int{1, 10, 100, 1500, 5000} {
				scan, _ := NewScan(tab)
				full, err := Collect(NewLimit(NewSort(scan, SortKey{Col: 0, Desc: desc}), n))
				if err != nil {
					t.Fatal(err)
				}
				for _, budget := range []int64{0, 64 << 10} {
					label := fmt.Sprintf("keys=%s desc=%v n=%d budget=%d", keys, desc, n, budget)
					qc := NewQueryCtxSpill(nil, budget, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
					scan, _ := NewScan(tab)
					top, err := CollectStringsCtx(qc, NewBoundedSort(scan, n, SortKey{Col: 0, Desc: desc}))
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(top) != len(full) {
						t.Fatalf("%s: %d vs %d rows", label, len(top), len(full))
					}
					for i, f := range full {
						if g := top[i][0] + " " + top[i][1]; g != fmt.Sprintf("%d %d", int64(f[0]), int64(f[1])) {
							t.Fatalf("%s: row %d = %s, want %d %d", label, i, g, int64(f[0]), int64(f[1]))
						}
					}
					if spilled := qc.SpillPeak() > 0; spilled != (budget > 0 && n == 5000) {
						t.Errorf("%s: spilled=%v", label, spilled)
					}
					qc.CleanupSpill()
				}
			}
		}
	}
}

func TestTopNStrings(t *testing.T) {
	words := []string{"pear", "apple", "zebra", "mango", "cherry", "fig"}
	var vals []string
	for i := 0; i < 5000; i++ {
		vals = append(vals, words[i%len(words)])
	}
	tab := makeTable("t", makeStringColumn("w", vals))
	scan, _ := NewScan(tab)
	rows, err := CollectStrings(NewBoundedSort(scan, 3, SortKey{Col: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r[0] != "apple" {
			t.Fatalf("top-3 of 5000 rows dominated by apples, got %q", r[0])
		}
	}
}

func TestTopNNullsFirst(t *testing.T) {
	vals := []int64{5, types.NullInteger, 1, types.NullInteger, 3}
	tab := makeTable("t", makeIntColumn("a", types.Integer, vals))
	scan, _ := NewScan(tab)
	rows, err := CollectStrings(NewBoundedSort(scan, 3, SortKey{Col: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "NULL" || rows[1][0] != "NULL" || rows[2][0] != "1" {
		t.Fatalf("null ordering wrong: %v", rows)
	}
}

// TestBoundedSortBudget: a bounded Sort spills when its n rows outgrow
// the budget — ORDER BY s LIMIT 50 000 over 60 000 rows at 256 KiB
// answers the first rows of the full sort — and a small bound over
// 200 000 distinct strings fits the same budget without spilling, since
// the kept rows' strings move to fresh heaps. At 1 and 4 workers,
// nothing is charged after Close and no run file is left.
func TestBoundedSortBudget(t *testing.T) {
	strTable := func(n int) *storage.Table {
		vals := make([]string, n)
		for i, p := range rand.New(rand.NewSource(int64(n))).Perm(n) {
			vals[i] = fmt.Sprintf("s-%08d", p)
		}
		return makeTable("t", makeIntColumn("id", types.Integer, seqInts(n)), makeStringColumn("s", vals))
	}
	for _, c := range []struct {
		rows, limit int
		spill       bool
	}{{60_000, 50_000, true}, {200_000, 10, false}} {
		tab := strTable(c.rows)
		scan, _ := NewScan(tab)
		want, err := CollectStrings(NewLimit(NewSort(scan, SortKey{Col: 1}), c.limit))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("rows=%d limit=%d workers=%d", c.rows, c.limit, workers)
			dir := t.TempDir()
			qc := NewQueryCtxSpill(nil, 256<<10, SpillConfig{Budget: 1 << 30, Dir: dir})
			scan, _ := NewScan(tab)
			var child Operator = scan
			if workers > 1 {
				child = NewExchange(scan, workers, false)
			}
			got, err := CollectStringsCtx(qc, NewBoundedSort(child, c.limit, SortKey{Col: 1}))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			rowsEqual(t, want, got, label)
			if spilled := qc.SpillPeak() > 0; spilled != c.spill {
				t.Errorf("%s: spilled=%v, want %v", label, spilled, c.spill)
			}
			if used := qc.Used(); used != 0 {
				t.Errorf("%s: %d bytes still charged after Close", label, used)
			}
			filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					t.Errorf("%s: run file left after Close: %s", label, path)
				}
				return nil
			})
			qc.CleanupSpill()
		}
	}
}
