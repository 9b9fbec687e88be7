package exec

import (
	"fmt"
	"reflect"
	"slices"
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
// schema advertises one, runs (non-empty ones, covering N rows) on the
// first runBlocks blocks and on no other — and renders the rows by value
// (dictionary tokens and heap tokens resolved per block).
func drainContract(t *testing.T, op Operator, qc *QueryCtx, runBlocks int) []string {
	t.Helper()
	if err := op.Open(qc); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	schema := op.Schema()
	b := vec.NewBlock(len(schema))
	var out []string
	for blocks := 0; ; {
		ok, err := op.Next(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if blocks < runBlocks {
				t.Fatalf("%d blocks, want %d with runs", blocks, runBlocks)
			}
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
			if wantRuns := blocks < runBlocks; (v.Runs != nil) != wantRuns {
				t.Fatalf("column %q block %d: runs = %v, want %v", info.Name, blocks, v.Runs != nil, wantRuns)
			}
			for _, r := range v.Runs {
				if r.Count <= 0 {
					t.Fatalf("column %q block %d: a run of %d rows", info.Name, blocks, r.Count)
				}
			}
			if v.Runs != nil && enc.RunsLen(v.Runs) != b.N {
				t.Fatalf("column %q block %d: runs cover %d of %d rows", info.Name, blocks, enc.RunsLen(v.Runs), b.N)
			}
		}
		blocks++
		b.Materialize()
		for i := 0; i < b.N; i++ {
			cells := make([]string, len(b.Vecs))
			for c := range b.Vecs {
				v := &b.Vecs[c]
				bits := v.Data[i]
				switch {
				case v.IsNull(i):
					cells[c] = "<null>"
				case v.Heap != nil:
					cells[c] = v.Heap.Get(bits)
				case v.Dict != nil:
					cells[c] = fmt.Sprint(int64(v.Dict[bits]))
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
	// The ranges come out of row order, cross block boundaries, reach
	// into the wholly deleted block and fill more than one morsel.
	ranges := [][2]int{{2500, 400}, {10, 1500}, {1500, 3}, {0, 1}}
	ranged := func(s *Scan, err error) (*Scan, error) {
		if err == nil {
			s.ReadRanges(rangeIndex("a", nil, ranges...))
		}
		return s, err
	}
	sources := []struct {
		name    string
		dirty   bool
		table   bool // it also selects $rowid
		ranges  bool // it reads ranges, which zone filters do not prune
		cache   bool
		newScan func() (*Scan, error)
	}{
		{name: "clean", table: true, newScan: func() (*Scan, error) { return NewScan(tab, names...) }},
		{name: "clean+cache", table: true, cache: true, newScan: func() (*Scan, error) { return NewScan(tab, names...) }},
		{name: "dirty", dirty: true, table: true, newScan: func() (*Scan, error) { return NewViewScan(view, names...) }},
		{name: "dirty+cache", dirty: true, table: true, cache: true, newScan: func() (*Scan, error) { return NewViewScan(view, names...) }},
		{name: "built", newScan: func() (*Scan, error) { return NewBuiltScan(built), nil }},
		{name: "ranges", table: true, ranges: true, newScan: func() (*Scan, error) { return ranged(NewScan(tab, names...)) }},
		{name: "dirty+ranges", dirty: true, table: true, ranges: true, newScan: func() (*Scan, error) { return ranged(NewViewScan(view, names...)) }},
	}
	for _, src := range sources {
		for _, pruned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pruned=%v", src.name, pruned), func(t *testing.T) {
				scan, err := src.newScan()
				if err != nil {
					t.Fatal(err)
				}
				scan.EmitRuns = true // three columns: never legal
				var order []int
				first := 0
				if pruned {
					scan.Prune = prune
					if src.table && !src.ranges {
						first = 2 * vec.BlockSize
					}
				}
				for i := first; i < contractRows && !src.ranges; i++ {
					order = append(order, i)
				}
				for _, r := range ranges {
					for i := r[0]; i < r[0]+r[1] && src.ranges; i++ {
						order = append(order, i)
					}
				}
				var want []string
				for _, i := range order {
					if src.dirty && deleted[i] {
						continue
					}
					row := contractRow(i)
					if src.table {
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
				got := drainContract(t, scan, qc, 0)
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

// rangeIndex is a range scan's index over the given (start, count)
// ranges, in order, shaped as a plan's IndexTable => Filter pipeline
// hands it over: value column name (vals, or zeros), $count, $start.
func rangeIndex(name string, vals []int64, ranges ...[2]int) Operator {
	if vals == nil {
		vals = make([]int64, len(ranges))
	}
	var counts, starts []int64
	for _, r := range ranges {
		starts, counts = append(starts, int64(r[0])), append(counts, int64(r[1]))
	}
	var cols []BuiltColumn
	for i, c := range []*storage.Column{
		makeIntColumn(name, types.Integer, vals),
		makeIntColumn("$count", types.Integer, counts),
		makeIntColumn("$start", types.Integer, starts),
	} {
		cols = append(cols, BuiltColumn{Info: ColInfo{Name: c.Name, Type: c.Type, Meta: c.Meta}, Data: c.Data})
		if i == 0 {
			cols[0].Info.Meta.SortedKnown = false // an IndexTable over unsorted runs
		}
	}
	return NewBuiltScan(&Built{Rows: len(ranges), Cols: cols})
}

// TestScanRanges: a range scan reads its ranges in index order, packed
// into full morsels, and parallel consumers claim them: an
// order-preserving Exchange gives the serial rows back in order, a free
// one the same multiset. A value column stays sorted only in row order,
// and comes out sorted when the index is sorted on it.
func TestScanRanges(t *testing.T) {
	const n = 20000
	idx, pay := make([]int64, n), make([]int64, n)
	for i := range idx {
		idx[i], pay[i] = int64(i/3000), int64(i) // 7 runs, 6 of 3000 rows
	}
	tab := makeTable("t", makeIntColumn("idx", types.Integer, idx), makeIntColumn("pay", types.Integer, pay))
	// The runs of values 1, 3 and 5, as a filter on the run list keeps
	// them: in row order.
	vals, ranges := []int64{1, 3, 5}, [][2]int{{3000, 3000}, {9000, 3000}, {15000, 3000}}
	rowOrder := rangeIndex("idx", vals, ranges...)
	scan := func(index Operator) *Scan {
		s, err := NewScan(tab, "idx", "pay", RowIDColumn)
		if err != nil {
			t.Fatal(err)
		}
		s.ReadRanges(index)
		return s
	}
	serial, err := Collect(scan(rowOrder))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 9000 {
		t.Fatalf("%d rows, want 9000", len(serial))
	}
	at := 0
	for _, r := range ranges {
		for i := r[0]; i < r[0]+r[1]; i++ {
			if row := serial[at]; int64(row[0]) != idx[i] || int64(row[1]) != pay[i] || row[2] != uint64(i) {
				t.Fatalf("row %d = %v, want base row %d", at, row, i)
			}
			at++
		}
	}
	// Morsels are full but for the last.
	s := scan(rangeIndex("idx", vals, ranges...))
	if err := s.Open(nil); err != nil {
		t.Fatal(err)
	}
	b := vec.NewBlock(3)
	for blocks := 0; ; blocks++ {
		ok, err := s.Next(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if want := min(vec.BlockSize, 9000-blocks*vec.BlockSize); b.N != want {
			t.Fatalf("morsel %d holds %d rows, want %d", blocks, b.N, want)
		}
	}
	s.Close()

	for _, preserve := range []bool{true, false} {
		got, err := Collect(NewExchange(scan(rangeIndex("idx", vals, ranges...)), 4, preserve))
		if err != nil {
			t.Fatal(err)
		}
		want := serial
		if !preserve {
			got, want = sortedRows(got), sortedRows(serial)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("preserve=%v: %d rows differ from the serial %d", preserve, len(got), len(want))
		}
	}

	md := scan(rowOrder).Schema()
	if !md[0].Meta.SortedAsc || !md[1].Meta.SortedAsc || md[1].Meta.RangeExact || md[1].Meta.Dense {
		t.Fatalf("row-order range scan metadata %+v / %+v", md[0].Meta, md[1].Meta)
	}
	// Listed 5, 1, 3 and sorted on the value, the index hands the runs
	// over in value order: idx comes out sorted, pay and $rowid are no
	// longer known to be.
	valueOrder := func() Operator {
		return NewSort(rangeIndex("idx", []int64{5, 1, 3}, [2]int{15000, 3000}, [2]int{3000, 3000}, [2]int{9000, 3000}), SortKey{Col: 0})
	}
	if md := scan(valueOrder()).Schema(); !md[0].Meta.SortedAsc || md[1].Meta.SortedKnown {
		t.Fatalf("value-order range scan metadata %+v / %+v", md[0].Meta, md[1].Meta)
	}
	got, err := Collect(scan(valueOrder()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, serial) {
		t.Fatalf("value-order range scan: %d rows differ from the row-order %d", len(got), len(serial))
	}
}

// sortedRows orders rows lexicographically.
func sortedRows(rows [][]uint64) [][]uint64 {
	out := slices.Clone(rows)
	slices.SortFunc(out, slices.Compare)
	return out
}

// TestScanEmitsRunsOnlyWhereLegal: a single scalar run-length column comes
// out as runs when EmitRuns is set, decoded when it is off. Over a view
// the base blocks keep their runs, shrunk by deletions inside a run, at
// its edges and covering it whole (across a block boundary), a wholly
// deleted block is skipped, and the inserted rows follow as a plain
// block.
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
	deleted := map[int]bool{3: true, 499: true, 500: true}
	for i := 1000; i < 1500; i++ {
		deleted[i] = true
	}
	for i := 2 * vec.BlockSize; i < contractRows; i++ {
		deleted[i] = true
	}
	ops := []delta.Op{
		{Table: "t", Kind: delta.OpInsert, Row: []delta.Value{delta.Scalar(42)}},
		{Table: "t", Kind: delta.OpInsert, Row: []delta.Value{delta.NullOf(types.Integer)}},
	}
	var clean, dirty []string
	for i, v := range vals {
		clean = append(clean, fmt.Sprint(v))
		if deleted[i] {
			ops = append(ops, delta.Op{Table: "t", Kind: delta.OpDelete, RowID: uint64(i)})
		} else {
			dirty = append(dirty, fmt.Sprint(v))
		}
	}
	dirty = append(dirty, "42", "<null>")
	view := deltaView(t, tab, ops)
	for _, tc := range []struct {
		name      string
		emit      bool
		runBlocks int
		cache     bool
		want      []string
		newScan   func() (*Scan, error)
	}{
		{"clean", true, 3, false, clean, func() (*Scan, error) { return NewScan(tab) }},
		{"clean+cache", true, 3, true, clean, func() (*Scan, error) { return NewScan(tab) }},
		{"clean/emit-off", false, 0, false, clean, func() (*Scan, error) { return NewScan(tab) }},
		{"dirty", true, 2, false, dirty, func() (*Scan, error) { return NewViewScan(view) }},
		{"dirty/emit-off", false, 0, false, dirty, func() (*Scan, error) { return NewViewScan(view) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scan, err := tc.newScan()
			if err != nil {
				t.Fatal(err)
			}
			scan.EmitRuns = tc.emit
			if scan.EmitsRuns() != (tc.runBlocks > 0) {
				t.Fatalf("EmitsRuns = %v, want %v", scan.EmitsRuns(), tc.runBlocks > 0)
			}
			qc := NewQueryCtx(nil, 0)
			if tc.cache {
				qc.AttachCache(NewDecodeCache(1<<20, nil))
			}
			got := drainContract(t, scan, qc, tc.runBlocks)
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
			s, err := NewScan(tab, "b")
			if err == nil {
				s.ReadRanges(rangeIndex("a", nil, [2]int{0, contractRows}))
			}
			return s, err
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

// TestViewScanSchema: a view scan advertises the visible row count, the
// base dictionary extended by the inserted values it lacks (base tokens
// keep their numbers), and $rowid where it is named; projection and
// unknown columns behave like a table scan's.
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
	base := tab.Column("d").Dict
	if d := schema[0].Dict; len(d) != len(base)+2 || !slices.Equal(d[:len(base)], base) || d[len(base)] != 2 || d[len(base)+1] != 4 {
		t.Fatalf("view dictionary %v, want %v extended by 2 and 4", d, base)
	}
	if md := schema[0].Meta; md.RowCount != contractRows+1 || md.Max != int64(len(base)+1) || md.EntriesSorted {
		t.Fatalf("view column metadata %+v", md)
	}
	// Materialized, the unsorted extended dictionary becomes values.
	if d := NewFlowTable(scan, DefaultFlowTableConfig()).Schema()[0].Dict; d != nil || scan.Schema()[0].Dict == nil {
		t.Fatalf("FlowTable keeps the extended dictionary %v", d)
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
	got := drainContract(t, scan, nil, 0)
	if len(got) != contractRows {
		t.Fatalf("got %d rows", len(got))
	}
	for i, row := range got {
		if row != contractRow(i) {
			t.Fatalf("row %d = %q, want %q", i, row, contractRow(i))
		}
	}
}

// TestViewMeta restates every enc.Metadata field for a view's rows:
// deletions alone, insertions inside and outside the base range, a
// domain extension, and a tail of NULLs only.
func TestViewMeta(t *testing.T) {
	tab := contractTable(t)
	del := deltaView(t, tab, []delta.Op{{Table: "t", Kind: delta.OpDelete, RowID: 9}})
	ins := deltaView(t, tab, []delta.Op{{Table: "t", Kind: delta.OpInsert,
		Row: []delta.Value{delta.Scalar(1), delta.Scalar(100), delta.String("s00")}}})
	base := enc.Metadata{RowCount: contractRows, HasRange: true, RangeExact: true, Min: 0, Max: 10,
		Cardinality: 11, CardinalityExact: true, CardinalityUpper: 11, NullsKnown: true,
		SortedKnown: true, SortedAsc: true, Dense: true, Unique: true,
		IsAffine: true, AffineBase: 0, AffineDelta: 1, EntriesSorted: true}
	scalar := &ColInfo{Type: types.Integer}
	token := &ColInfo{Type: types.String}
	null := types.NullBits(types.Integer)
	for _, tc := range []struct {
		name  string
		info  *ColInfo
		view  *delta.View
		tail  []uint64
		grown int
		want  func(md *enc.Metadata)
	}{
		{"deletes", scalar, del, nil, 0, func(md *enc.Metadata) {
			md.RowCount = contractRows - 1
			md.RangeExact, md.Dense, md.IsAffine, md.CardinalityExact = false, false, false, false
		}},
		{"deletes/tokens", token, del, nil, 0, func(md *enc.Metadata) {
			md.RowCount = contractRows - 1
			md.RangeExact, md.Dense, md.IsAffine = false, false, false
		}},
		{"insert-in-range", scalar, ins, []uint64{5}, 0, func(md *enc.Metadata) {
			md.RowCount = contractRows + 1
			md.Dense, md.Unique, md.IsAffine, md.CardinalityExact = false, false, false, false
			md.SortedKnown, md.SortedAsc = false, false
			md.CardinalityUpper = 12
		}},
		{"insert-above-range", scalar, ins, []uint64{12}, 0, func(md *enc.Metadata) {
			md.RowCount, md.Max = contractRows+1, 12
			md.Dense, md.Unique, md.IsAffine, md.CardinalityExact = false, false, false, false
			md.CardinalityUpper = 12
		}},
		{"insert-below-range", scalar, ins, []uint64{uint64(1<<64 - 5)}, 0, func(md *enc.Metadata) {
			md.RowCount, md.Min = contractRows+1, -5
			md.Dense, md.Unique, md.IsAffine, md.CardinalityExact = false, false, false, false
			md.SortedKnown, md.SortedAsc = false, false
			md.CardinalityUpper = 12
		}},
		{"extension", token, ins, []uint64{11}, 1, func(md *enc.Metadata) {
			md.RowCount, md.Max = contractRows+1, 11
			md.Dense, md.Unique, md.IsAffine, md.EntriesSorted = false, false, false, false
			md.Cardinality, md.CardinalityUpper = 12, 12
		}},
		{"nulls-only", scalar, ins, []uint64{null, null}, 0, func(md *enc.Metadata) {
			md.RowCount, md.HasNulls = contractRows+1, true
			md.Dense, md.Unique, md.IsAffine, md.CardinalityExact = false, false, false, false
			md.SortedKnown, md.SortedAsc = false, false
			md.CardinalityUpper = 13
		}},
	} {
		want := base
		tc.want(&want)
		if got := viewMeta(base, tc.info, tc.view, tc.tail, tc.grown); got != want {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, got, want)
		}
	}
}

// TestViewScanNullTail: a tail of NULL rows only resolves into every
// column's domain without extending one, and reads back as NULLs.
func TestViewScanNullTail(t *testing.T) {
	tab := contractTable(t)
	null := []delta.Value{delta.NullOf(types.Integer), delta.NullOf(types.Integer), delta.NullOf(types.String)}
	view := deltaView(t, tab, []delta.Op{
		{Table: "t", Kind: delta.OpInsert, Row: null},
		{Table: "t", Kind: delta.OpInsert, Row: null},
	})
	scan, err := NewViewScan(view)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range scan.Schema() {
		if info.Meta.NullsKnown && !info.Meta.HasNulls {
			t.Errorf("column %q: metadata denies the tail's NULLs: %+v", info.Name, info.Meta)
		}
	}
	if d, s := scan.Schema()[1], scan.Schema()[2]; len(d.Dict) != len(tab.Column("d").Dict) || s.Heap != tab.Column("s").Heap || !s.StoredHeap {
		t.Fatalf("a NULL tail extended a domain: dict %v, heap stored=%v", d.Dict, s.StoredHeap)
	}
	if !strings.Contains(scan.tailNote, "tail=stored(d,s)") {
		t.Fatalf("tail note %q", scan.tailNote)
	}
	got := drainContract(t, scan, nil, 0)
	if len(got) != contractRows+2 || got[contractRows] != "<null>|<null>|<null>" || got[contractRows+1] != got[contractRows] {
		t.Fatalf("%d rows, tail %q", len(got), got[contractRows:])
	}
}

// TestViewScanTailResolvesToBaseTokens: inserted values the base holds
// take the base's own tokens (a string its stored-heap token, a
// dictionary value its index); the rest extend the domain once each, and
// every row reads back by value.
func TestViewScanTailResolvesToBaseTokens(t *testing.T) {
	tab := contractTable(t)
	row := func(a, d int64, s string) delta.Op {
		return delta.Op{Table: "t", Kind: delta.OpInsert,
			Row: []delta.Value{delta.Scalar(uint64(a)), delta.Scalar(uint64(d)), delta.String(s)}}
	}
	view := deltaView(t, tab, []delta.Op{row(-1, 110, "s05"), row(-2, 999, "new"), row(-3, 130, "new"), row(-4, 110, "s12")})
	scan, err := NewViewScan(view)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewScan(tab, "d", "s")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(base)
	if err != nil {
		t.Fatal(err)
	}
	// Base row 5 holds s = "s05", row 12 s = "s12".
	dict := tab.Column("d").Dict
	tok := func(v uint64) uint64 { return uint64(slices.Index(dict, v)) }
	wantD := []uint64{tok(110), uint64(len(dict)), tok(130), tok(110)}
	wantS := []uint64{rows[5][1], scan.tail[2][1], scan.tail[2][1], rows[12][1]}
	if !slices.Equal(scan.tail[1], wantD) || !slices.Equal(scan.tail[2], wantS) || wantS[1] < uint64(tab.Column("s").Heap.Size()) {
		t.Fatalf("tail tokens d %v s %v, want %v %v", scan.tail[1], scan.tail[2], wantD, wantS)
	}
	if !strings.Contains(scan.tailNote, "tail=extended(d+1,s+1)") {
		t.Fatalf("tail note %q", scan.tailNote)
	}
	got := drainContract(t, scan, nil, 0)
	want := []string{"-1|110|s05", "-2|999|new", "-3|130|new", "-4|110|s12"}
	if len(got) != contractRows+4 || !slices.Equal(got[contractRows:], want) || got[7] != contractRow(7) {
		t.Fatalf("%d rows, tail %q", len(got), got[contractRows:])
	}
}

// TestViewScanLargeHeapTail: a string column whose heap exceeds
// heapOrdinalLimit gives an inserted tail a heap of its own and clears
// StoredHeap; a view that only deletes keeps the stored heap.
func TestViewScanLargeHeapTail(t *testing.T) {
	vals := make([]string, 2500)
	for i := range vals {
		vals[i] = fmt.Sprintf("%04d%s", i, strings.Repeat("x", 500))
	}
	tab := makeTable("t", makeStringColumn("s", vals))
	if tab.Column("s").Heap.Size() <= heapOrdinalLimit {
		t.Fatal("the heap is not over the limit")
	}
	del := delta.Op{Table: "t", Kind: delta.OpDelete, RowID: 3}
	scan, err := NewViewScan(deltaView(t, tab, []delta.Op{del}))
	if err != nil {
		t.Fatal(err)
	}
	if info := scan.Schema()[0]; !info.StoredHeap || info.Heap != tab.Column("s").Heap || scan.tailNote != "" {
		t.Fatalf("deletes only: stored=%v, own heap=%v, note %q", info.StoredHeap, info.Heap != tab.Column("s").Heap, scan.tailNote)
	}
	ins := delta.Op{Table: "t", Kind: delta.OpInsert, Row: []delta.Value{delta.String(vals[7])}}
	scan, err = NewViewScan(deltaView(t, tab, []delta.Op{del, ins}))
	if err != nil {
		t.Fatal(err)
	}
	if info := scan.Schema()[0]; info.StoredHeap || scan.tailNote != " tail=heap(s)" {
		t.Fatalf("insert: stored=%v, note %q", info.StoredHeap, scan.tailNote)
	}
	got := drainContract(t, scan, nil, 0)
	if len(got) != len(vals) || got[3] != vals[4] || got[len(got)-1] != vals[7] {
		t.Fatalf("%d rows", len(got))
	}
}
