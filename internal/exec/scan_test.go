package exec

import (
	"fmt"
	"strings"
	"testing"

	"tde/internal/delta"
	"tde/internal/enc"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
)

// deltaView commits ops against a one-table store and snapshots the view.
func deltaView(t *testing.T, tab *storage.Table, ops []delta.Op) *delta.View {
	t.Helper()
	s := delta.NewStore([]*storage.Table{tab})
	if len(ops) > 0 {
		if _, err := s.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.ViewWith(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// contractRows is the contract table's size: three blocks, the last one
// partial.
const contractRows = 3000

// contractTable has one column of every shape a scan stamps differently:
// a sorted integer with zone maps, a dictionary-compressed integer, and a
// string.
func contractTable(t *testing.T) *storage.Table {
	t.Helper()
	a := makeIntColumn("a", types.Integer, seqInts(contractRows))
	a.Zones = enc.DeriveZoneMap(a.Data, true, types.NullBits(types.Integer), true)
	if a.Zones == nil {
		t.Fatal("no zone map derived for the sorted column")
	}
	dv := make([]int64, contractRows)
	sv := make([]string, contractRows)
	for i := range dv {
		dv[i] = int64(100 + 10*(i%7))
		sv[i] = fmt.Sprintf("s%02d", i%13)
	}
	d := makeIntColumn("d", types.Integer, dv)
	if err := storage.ConvertToDictCompression(d); err != nil {
		t.Fatalf("dictionary-compressing d: %v", err)
	}
	return makeTable("t", a, d, makeStringColumn("s", sv))
}

// contractRow renders row i of contractTable the way drainContract does.
func contractRow(i int) string {
	return fmt.Sprintf("%d|%d|s%02d", i, 100+10*(i%7), i%13)
}

// drainContract drains op, checking every block against the scan
// contract — 0 < N ≤ BlockSize, each vector stamped with its schema
// column's type, string vectors carrying a heap, Dict only where the
// schema advertises one, no runs unless wantRuns — and renders the rows
// by value (dictionary tokens and heap tokens resolved per block).
func drainContract(t *testing.T, op Operator, qc *QueryCtx, wantRuns bool) []string {
	t.Helper()
	if err := op.Open(qc); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	schema := op.Schema()
	b := vec.NewBlock(len(schema))
	var out []string
	for {
		ok, err := op.Next(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		if b.N <= 0 || b.N > vec.BlockSize {
			t.Fatalf("block of %d rows", b.N)
		}
		if len(b.Vecs) != len(schema) {
			t.Fatalf("block has %d vectors, schema %d", len(b.Vecs), len(schema))
		}
		for c := range b.Vecs {
			v, info := &b.Vecs[c], schema[c]
			if v.Type != info.Type {
				t.Fatalf("column %q stamped %v, schema says %v", info.Name, v.Type, info.Type)
			}
			if (v.Heap != nil) != (info.Type == types.String) {
				t.Fatalf("column %q (%v): heap = %v", info.Name, info.Type, v.Heap)
			}
			if (v.Dict != nil) != (info.Dict != nil) {
				t.Fatalf("column %q: block dict %v, schema dict %v", info.Name, v.Dict != nil, info.Dict != nil)
			}
			if (v.Runs != nil) != wantRuns {
				t.Fatalf("column %q: runs = %v, want %v", info.Name, v.Runs != nil, wantRuns)
			}
		}
		b.Materialize()
		for i := 0; i < b.N; i++ {
			cells := make([]string, len(b.Vecs))
			for c := range b.Vecs {
				v := &b.Vecs[c]
				bits := v.Data[i]
				switch {
				case v.Heap != nil && bits == types.NullToken:
					cells[c] = "<null>"
				case v.Heap != nil:
					cells[c] = v.Heap.Get(bits)
				case v.Dict != nil:
					cells[c] = fmt.Sprint(int64(v.Dict[bits]))
				case types.IsNull(v.Type, bits):
					cells[c] = "<null>"
				default:
					cells[c] = fmt.Sprint(int64(bits))
				}
			}
			out = append(out, strings.Join(cells, "|"))
		}
	}
}

// TestScanContract runs the one Scan over every source — a clean table
// and a dirty view (scattered deletes, one wholly deleted block, inserted
// rows with a NULL string), both selecting $rowid and each also through a
// decode cache, and a Built — pruned and unpruned, and requires the same
// block contract and the right rows from each.
func TestScanContract(t *testing.T) {
	tab := contractTable(t)
	// Deletes: every 97th row, and all of block 1.
	deleted := map[int]bool{}
	var ops []delta.Op
	for i := 0; i < contractRows; i++ {
		if i%97 == 0 || (i >= vec.BlockSize && i < 2*vec.BlockSize) {
			deleted[i] = true
			ops = append(ops, delta.Op{Table: "t", Kind: delta.OpDelete, RowID: uint64(i)})
		}
	}
	inserted := []string{"5|777|zz", "6000|<null>|<null>"}
	ops = append(ops,
		delta.Op{Table: "t", Kind: delta.OpInsert, Row: []delta.Value{delta.Scalar(5), delta.Scalar(777), delta.String("zz")}},
		delta.Op{Table: "t", Kind: delta.OpInsert, Row: []delta.Value{delta.Scalar(6000), delta.NullOf(types.Integer), delta.NullOf(types.String)}})
	view := deltaView(t, tab, ops)
	base, err := NewScan(tab)
	if err != nil {
		t.Fatal(err)
	}
	built, err := NewFlowTable(base, DefaultFlowTableConfig()).BuildTable(nil)
	if err != nil {
		t.Fatal(err)
	}

	// The zone filter refutes blocks 0 and 1; only a stored table's zone
	// maps can act on it.
	prune := []ZoneFilter{{Col: 0, Kind: ZFRange, Lo: 2 * vec.BlockSize, Hi: contractRows, Name: "a"}}
	names := []string{"a", "d", "s", RowIDColumn}
	sources := []struct {
		name    string
		dirty   bool
		prunes  bool // a table scan: it also selects $rowid
		cache   bool
		newScan func() (*Scan, error)
	}{
		{name: "clean", prunes: true, newScan: func() (*Scan, error) { return NewScan(tab, names...) }},
		{name: "clean+cache", prunes: true, cache: true, newScan: func() (*Scan, error) { return NewScan(tab, names...) }},
		{name: "dirty", dirty: true, prunes: true, newScan: func() (*Scan, error) { return NewViewScan(view, names...) }},
		{name: "dirty+cache", dirty: true, prunes: true, cache: true, newScan: func() (*Scan, error) { return NewViewScan(view, names...) }},
		{name: "built", newScan: func() (*Scan, error) { return NewBuiltScan(built), nil }},
	}
	for _, src := range sources {
		for _, pruned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pruned=%v", src.name, pruned), func(t *testing.T) {
				scan, err := src.newScan()
				if err != nil {
					t.Fatal(err)
				}
				scan.EmitRuns = true // three columns: never legal
				first := 0
				if pruned {
					scan.Prune = prune
					if src.prunes {
						first = 2 * vec.BlockSize
					}
				}
				var want []string
				for i := first; i < contractRows; i++ {
					if src.dirty && deleted[i] {
						continue
					}
					row := contractRow(i)
					if src.prunes {
						row += fmt.Sprintf("|%d", i) // $rowid
					}
					want = append(want, row)
				}
				if src.dirty {
					// Insertions are never pruned, whatever the filter says
					// about the base blocks.
					for j, row := range inserted {
						want = append(want, fmt.Sprintf("%s|%d", row, contractRows+j))
					}
				}
				qc := NewQueryCtx(nil, 0)
				if src.cache {
					qc.AttachCache(NewDecodeCache(1<<20, nil))
				}
				got := drainContract(t, scan, qc, false)
				if len(got) != len(want) {
					t.Fatalf("%d rows, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("row %d = %q, want %q", i, got[i], want[i])
					}
				}
				sn := scan.opStats().snapshot(&PlanNode{})
				if wantSkipped := int64(first / vec.BlockSize); sn.BlocksSkipped != wantSkipped {
					t.Fatalf("blocks skipped = %d, want %d", sn.BlocksSkipped, wantSkipped)
				}
				if src.cache != (sn.CacheHits+sn.CacheMisses > 0) {
					t.Fatalf("cache traffic %d/%d with cache=%v", sn.CacheHits, sn.CacheMisses, src.cache)
				}
				if src.dirty && sn.DeltaRows != int64(len(inserted)) {
					t.Fatalf("delta rows = %d, want %d", sn.DeltaRows, len(inserted))
				}
			})
		}
	}
}

// TestScanEmitsRunsOnlyWhereLegal: a single scalar run-length column comes
// out as runs from a clean source when EmitRuns is set, and decoded from a
// dirty view (inserted rows have no runs) or when EmitRuns is off.
func TestScanEmitsRunsOnlyWhereLegal(t *testing.T) {
	vals := make([]int64, contractRows)
	for i := range vals {
		vals[i] = int64(i / 500)
	}
	r := makeIntColumn("r", types.Integer, vals)
	if r.Data.Kind() != enc.RunLength {
		t.Fatalf("r encoded as %v, want run-length", r.Data.Kind())
	}
	tab := makeTable("t", r)
	view := deltaView(t, tab, []delta.Op{
		{Table: "t", Kind: delta.OpDelete, RowID: 3},
		{Table: "t", Kind: delta.OpInsert, Row: []delta.Value{delta.Scalar(42)}},
	})
	var clean, dirty []string
	for i, v := range vals {
		clean = append(clean, fmt.Sprint(v))
		if i != 3 {
			dirty = append(dirty, fmt.Sprint(v))
		}
	}
	dirty = append(dirty, "42")
	for _, tc := range []struct {
		name     string
		emit     bool
		wantRuns bool
		cache    bool
		want     []string
		newScan  func() (*Scan, error)
	}{
		{"clean", true, true, false, clean, func() (*Scan, error) { return NewScan(tab) }},
		{"clean+cache", true, true, true, clean, func() (*Scan, error) { return NewScan(tab) }},
		{"clean/emit-off", false, false, false, clean, func() (*Scan, error) { return NewScan(tab) }},
		{"dirty", true, false, false, dirty, func() (*Scan, error) { return NewViewScan(view) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scan, err := tc.newScan()
			if err != nil {
				t.Fatal(err)
			}
			scan.EmitRuns = tc.emit
			if scan.EmitsRuns() != tc.wantRuns {
				t.Fatalf("EmitsRuns = %v, want %v", scan.EmitsRuns(), tc.wantRuns)
			}
			qc := NewQueryCtx(nil, 0)
			if tc.cache {
				qc.AttachCache(NewDecodeCache(1<<20, nil))
			}
			got := drainContract(t, scan, qc, tc.wantRuns)
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("%d rows differ from the %d expected", len(got), len(tc.want))
			}
		})
	}
}

// TestScanShortColumnFailsFromEverySource: a column whose stream ends
// before the table's row count fails the query, whichever source the scan
// reads it from — the rows it promised would otherwise be whatever the
// reused block held before.
func TestScanShortColumnFailsFromEverySource(t *testing.T) {
	long := makeIntColumn("a", types.Integer, seqInts(contractRows))
	short := makeIntColumn("b", types.Integer, seqInts(2000))
	tab := makeTable("t", long, short)
	view := deltaView(t, tab, []delta.Op{{Table: "t", Kind: delta.OpDelete, RowID: 1}})
	built := &Built{Rows: contractRows, Cols: []BuiltColumn{
		{Info: ColInfo{Name: "a", Type: types.Integer}, Data: long.Data},
		{Info: ColInfo{Name: "b", Type: types.Integer}, Data: short.Data},
	}}
	index := &Built{Rows: 1, Cols: []BuiltColumn{
		{Info: ColInfo{Name: "v", Type: types.Integer}, Data: makeIntColumn("v", types.Integer, []int64{7}).Data},
		{Info: ColInfo{Name: "$count", Type: types.Integer}, Data: makeIntColumn("c", types.Integer, []int64{contractRows}).Data},
		{Info: ColInfo{Name: "$start", Type: types.Integer}, Data: makeIntColumn("s", types.Integer, []int64{0}).Data},
	}}
	for _, tc := range []struct {
		name  string
		cache bool
		newOp func() (Operator, error)
	}{
		{"clean", false, func() (Operator, error) { return NewScan(tab) }},
		{"clean+cache", true, func() (Operator, error) { return NewScan(tab) }},
		{"dirty", false, func() (Operator, error) { return NewViewScan(view) }},
		{"built", false, func() (Operator, error) { return NewBuiltScan(built), nil }},
		{"indexed", false, func() (Operator, error) {
			return NewIndexedScan(index, []int{0}, 1, 2, tab, "b")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op, err := tc.newOp()
			if err != nil {
				t.Fatal(err)
			}
			qc := NewQueryCtx(nil, 0)
			if tc.cache {
				qc.AttachCache(NewDecodeCache(1<<20, nil))
			}
			rows, err := RunCtx(qc, op)
			if err == nil || !strings.Contains(err.Error(), `short read of column "b"`) {
				t.Fatalf("scan of a short column returned %d rows, err = %v", rows, err)
			}
		})
	}
}

// TestViewScanSchema: a view scan advertises the visible row count, no
// dictionary, and $rowid where it is named; projection and unknown
// columns behave like a table scan's.
func TestViewScanSchema(t *testing.T) {
	tab := contractTable(t)
	view := deltaView(t, tab, []delta.Op{
		{Table: "t", Kind: delta.OpDelete, RowID: 1},
		{Table: "t", Kind: delta.OpInsert, Row: []delta.Value{delta.Scalar(1), delta.Scalar(2), delta.String("x")}},
		{Table: "t", Kind: delta.OpInsert, Row: []delta.Value{delta.Scalar(3), delta.Scalar(4), delta.String("y")}},
	})
	scan, err := NewViewScan(view, "d", RowIDColumn)
	if err != nil {
		t.Fatal(err)
	}
	schema := scan.Schema()
	if len(schema) != 2 || schema[0].Name != "d" || schema[1].Name != RowIDColumn || schema[1].Type != types.Integer {
		t.Fatalf("schema = %+v", schema)
	}
	if schema[0].Dict != nil || schema[0].Meta.RowCount != contractRows+1 || schema[0].Meta.HasRange {
		t.Fatalf("view column advertises base-only properties: %+v", schema[0])
	}
	if got, want := scan.OpKind()+"("+scan.OpLabel()+")", "DeltaScan(t +2 -1)"; got != want {
		t.Fatalf("plan label %q, want %q", got, want)
	}
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if len(rows) != contractRows+1 || int64(last[0]) != 4 || last[1] != contractRows+1 {
		t.Fatalf("%d rows, last = %v", len(rows), last)
	}
	if _, err := NewViewScan(view, "missing"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

// TestViewScanCleanViewEqualsScan: a view that changes nothing yields the
// table's rows (the write path scans clean views for their $rowid).
func TestViewScanCleanViewEqualsScan(t *testing.T) {
	tab := contractTable(t)
	scan, err := NewViewScan(deltaView(t, tab, nil))
	if err != nil {
		t.Fatal(err)
	}
	got := drainContract(t, scan, nil, false)
	if len(got) != contractRows {
		t.Fatalf("got %d rows", len(got))
	}
	for i, row := range got {
		if row != contractRow(i) {
			t.Fatalf("row %d = %q, want %q", i, row, contractRow(i))
		}
	}
}
