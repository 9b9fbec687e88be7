package exec

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"tde/internal/delta"
	"tde/internal/enc"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// stripedTable holds one integer column a whose blocks alternate between
// small values (even blocks: the row number) and large ones (odd blocks:
// the row number + 1e6), with a zone map, so a range filter on small
// values refutes every odd block.
func stripedTable(t *testing.T, rows int) *storage.Table {
	t.Helper()
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i)
		if i/vec.BlockSize%2 == 1 {
			vals[i] += 1_000_000
		}
	}
	w := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true,
		Sentinel: types.NullBits(types.Integer), HasSentinel: true})
	for _, v := range vals {
		w.AppendOne(uint64(v))
	}
	a := &storage.Column{Name: "a", Type: types.Integer, Data: w.Finish(),
		Meta: enc.MetadataFromStats(w.Stats(), true), Zones: w.Zones()}
	if a.Zones == nil {
		t.Fatal("no zone map")
	}
	return makeTable("striped", a)
}

// smallOnly is the zone filter that keeps stripedTable's even blocks.
var smallOnly = []ZoneFilter{{Col: 0, Kind: ZFRange, Lo: 0, Hi: 999_999, Name: "a"}}

// stripedValue is the value stripedTable (and its overlay's inserted
// rows) carry in row id.
func stripedValue(id int) int64 {
	if id/vec.BlockSize%2 == 1 {
		return int64(id) + 1_000_000
	}
	return int64(id)
}

// drainMorsels drains srcs on concurrent goroutines, as parallel
// consumers do, handing each claimed block to each under a lock, and
// requires the sequence numbers to be 0..n-1, each handed out once.
func drainMorsels(t *testing.T, label string, srcs []morselSource, width int, each func(b *vec.Block)) {
	t.Helper()
	var (
		mu    sync.Mutex
		seqs  = map[int]bool{}
		wg    sync.WaitGroup
		fails []error
	)
	for _, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := vec.NewBlock(width)
			for {
				seq, ok, err := src.next(b)
				mu.Lock()
				if err != nil {
					fails = append(fails, err)
				}
				if err != nil || !ok {
					mu.Unlock()
					return
				}
				if seqs[seq] {
					t.Errorf("%s: sequence number %d handed out twice", label, seq)
				}
				seqs[seq] = true
				each(b)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(fails) > 0 {
		t.Fatalf("%s: %v", label, fails[0])
	}
	for seq := range seqs {
		if seq < 0 || seq >= len(seqs) {
			t.Fatalf("%s: sequence numbers are not 0..%d: saw %d", label, len(seqs)-1, seq)
		}
	}
}

// TestMorselsDeliverEveryRowOnce drains the dispenser's sources on
// concurrent goroutines, as parallel consumers do, and requires every
// row to arrive exactly once, with its own $rowid, through the claim
// cursor: of a clean scan with zone-refuted blocks (which come back empty
// but numbered), and of a view that deletes a row and a whole block and
// inserts two blocks' worth of rows, which zone filters never refute. A
// run-emitting scan claims through the cursor too, each reader walking
// its own runs forward, clean and over a view whose deletions split runs.
func TestMorselsDeliverEveryRowOnce(t *testing.T) {
	const rows, inserted = 20*vec.BlockSize + 300, 1500
	tab := stripedTable(t, rows)
	ops := []delta.Op{{Table: "striped", Kind: delta.OpDelete, RowID: 7}}
	for id := 4 * vec.BlockSize; id < 5*vec.BlockSize; id++ {
		ops = append(ops, delta.Op{Table: "striped", Kind: delta.OpDelete, RowID: uint64(id)})
	}
	for id := rows; id < rows+inserted; id++ {
		ops = append(ops, delta.Op{Table: "striped", Kind: delta.OpInsert,
			Row: []delta.Value{delta.Scalar(uint64(stripedValue(id)))}})
	}
	view := deltaView(t, tab, ops)
	even := func(id int) bool { return id/vec.BlockSize%2 == 0 }
	visible := func(id int) bool { return id != 7 && id/vec.BlockSize != 4 }
	for _, tc := range []struct {
		name    string
		newScan func() (*Scan, error)
		prune   []ZoneFilter
		want    func(id int) bool // whether row id arrives
	}{
		{"clean", func() (*Scan, error) { return NewScan(tab, "a", RowIDColumn) }, nil,
			func(id int) bool { return id < rows }},
		{"clean+zoneskip", func() (*Scan, error) { return NewScan(tab, "a", RowIDColumn) }, smallOnly,
			func(id int) bool { return id < rows && even(id) }},
		{"dirty", func() (*Scan, error) { return NewViewScan(view, "a", RowIDColumn) }, nil,
			func(id int) bool { return id >= rows || visible(id) }},
		{"dirty+zoneskip", func() (*Scan, error) { return NewViewScan(view, "a", RowIDColumn) }, smallOnly,
			func(id int) bool { return id >= rows || visible(id) && even(id) }},
	} {
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s workers=%d", tc.name, workers)
			scan, err := tc.newScan()
			if err != nil {
				t.Fatal(err)
			}
			scan.Prune = tc.prune
			if err := scan.Open(NewQueryCtx(nil, 0)); err != nil {
				t.Fatal(err)
			}
			srcs := morsels(scan, workers)
			if _, claimed := srcs[0].(*scanMorsels); !claimed {
				t.Fatalf("%s: sources do not claim from the scan's cursor", tc.name)
			}
			seen := map[int64]int{}
			drainMorsels(t, label, srcs, 2, func(b *vec.Block) {
				for j, v := range b.Vecs[0].Data[:b.N] {
					seen[int64(v)]++
					if id := int(b.Vecs[1].Data[j]); stripedValue(id) != int64(v) {
						t.Errorf("%s: row %d arrived with $rowid %d", label, v, id)
					}
				}
			})
			scan.Close()
			want := 0
			for i := 0; i < rows+inserted; i++ {
				v := stripedValue(i)
				if !tc.want(i) {
					continue
				}
				want++
				if seen[v] != 1 {
					t.Fatalf("%s: row %d arrived %d times", label, i, seen[v])
				}
			}
			if len(seen) != want {
				t.Fatalf("%s: %d distinct rows arrived, want %d", label, len(seen), want)
			}
			if skipped := scan.opStats().blocksSkipped; tc.prune != nil && skipped != 10 {
				t.Fatalf("%s: %d blocks skipped, want the 10 odd ones", label, skipped)
			}
		}
	}

	// Value v fills rows [50v, 50v+50), so some runs cross a block
	// boundary. The view deletes rows inside runs — one of them in the
	// run across the first boundary — and one whole run.
	runVals := make([]int64, rows)
	for i := range runVals {
		runVals[i] = int64(i / 50)
	}
	col := makeIntColumn("r", types.Integer, runVals)
	if col.Data.Kind() != enc.RunLength {
		t.Fatalf("r encoded as %v, want run-length", col.Data.Kind())
	}
	runTab := makeTable("runs", col)
	dead := map[int]bool{25: true, 1030: true, 5000: true}
	for id := 2000; id < 2050; id++ {
		dead[id] = true
	}
	var runOps []delta.Op
	for id := range dead {
		runOps = append(runOps, delta.Op{Table: "runs", Kind: delta.OpDelete, RowID: uint64(id)})
	}
	runView := deltaView(t, runTab, runOps)
	for _, tc := range []struct {
		name    string
		newScan func() (*Scan, error)
		dead    map[int]bool
	}{
		{"runs", func() (*Scan, error) { return NewScan(runTab) }, nil},
		{"runs+deletions", func() (*Scan, error) { return NewViewScan(runView) }, dead},
	} {
		want := map[int64]int{}
		for i, v := range runVals {
			if !tc.dead[i] {
				want[v]++
			}
		}
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s workers=%d", tc.name, workers)
			scan, err := tc.newScan()
			if err != nil {
				t.Fatal(err)
			}
			scan.EmitRuns = true
			if err := scan.Open(NewQueryCtx(nil, 0)); err != nil {
				t.Fatal(err)
			}
			srcs := morsels(scan, workers)
			if _, claimed := srcs[0].(*scanMorsels); !claimed {
				t.Fatalf("%s: sources do not claim from the scan's cursor", label)
			}
			got := map[int64]int{}
			drainMorsels(t, label, srcs, 1, func(b *vec.Block) {
				v := &b.Vecs[0]
				if v.Runs == nil || enc.RunsLen(v.Runs) != b.N {
					t.Errorf("%s: a block of %d rows without runs covering it", label, b.N)
					return
				}
				for _, r := range v.Runs {
					got[int64(r.Value)] += r.Count
				}
			})
			scan.Close()
			if !maps.Equal(got, want) {
				t.Fatalf("%s: %d values arrived, want %d, or with other counts", label, len(got), len(want))
			}
		}
	}
}

// TestExchangePreserveOrderOverZoneSkips runs an order-preserving
// exchange over a clean scan whose zone maps refute every other block:
// the refuted morsels still use up their sequence numbers, so the
// reorder buffer never waits on a gap and the surviving rows come out
// in input order.
func TestExchangePreserveOrderOverZoneSkips(t *testing.T) {
	const rows = 40*vec.BlockSize + 17
	tab := stripedTable(t, rows)
	for _, workers := range []int{2, 8} {
		scan, err := NewScan(tab)
		if err != nil {
			t.Fatal(err)
		}
		scan.Prune = smallOnly
		ex := NewExchange(scan, workers, true)
		got, err := Collect(ex)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for i := 0; i < rows; i++ {
			if i/vec.BlockSize%2 == 0 {
				want = append(want, int64(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(want))
		}
		for i, r := range got {
			if int64(r[0]) != want[i] {
				t.Fatalf("workers=%d: row %d = %d, want %d (input order lost)", workers, i, int64(r[0]), want[i])
			}
		}
	}
}
