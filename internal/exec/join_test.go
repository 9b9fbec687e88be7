package exec

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/iofault"
	"tde/internal/storage"
	"tde/internal/types"
)

// joinNull is the NULL key or tag of a joinFixture row; it is also how
// CollectStrings renders NULL, so fixture and result cells compare as-is.
const joinNull = "NULL"

// joinRegime is one key shape of TestJoinRegimes: what the inner key looks
// like and the algorithm the tactical choice must land on for it.
type joinRegime struct {
	name string
	want JoinAlgo
	key  func(i int) string // inner row i's key before the dataset's edits
	// shuffled inner rows are stored in random order (a sorted dense key
	// is affine, hence fetched)
	shuffled bool
	unique   bool // the shape admits no duplicate inner key
	noNulls  bool // ... no NULL inner key
	str      bool
	fold     bool // case-insensitive collation, outer keys upper-cased
	sameHeap bool // both sides' stored key columns share one heap
}

// joinDataset is what a fixture adds to the regime's plain unique,
// all-matching keys.
type joinDataset struct {
	name                string
	dups, nulls, misses bool
}

// joinFixture holds both sides' logical rows and the tables built from
// them. The outer side is (key, seq); the inner (key, val, tag).
type joinFixture struct {
	rg        joinRegime
	outerK    []string
	innerK    []string
	innerVal  []int64
	innerTag  []string
	fact, dim *storage.Table
}

func newJoinFixture(rg joinRegime, ds joinDataset, nInner, nOuter int, seed int64) *joinFixture {
	rng := rand.New(rand.NewSource(seed))
	fx := &joinFixture{rg: rg}
	order := seqInts(nInner)
	if rg.shuffled {
		rng.Shuffle(nInner, func(a, b int) { order[a], order[b] = order[b], order[a] })
	}
	for r, i := range order {
		k := rg.key(int(i))
		switch {
		case ds.dups && r >= nInner/2:
			k = fx.innerK[0] // a dominant key no re-hashing can split
		case ds.dups && r%10 == 3:
			k = fx.innerK[r-1]
		case ds.nulls && !rg.noNulls && (r == nInner/3 || r == 2*nInner/3):
			k = joinNull
		}
		fx.innerK = append(fx.innerK, k)
		fx.innerVal = append(fx.innerVal, rng.Int63())
		tag := fmt.Sprintf("tag-%d", rng.Intn(97))
		if r%13 == 5 {
			tag = joinNull
		}
		fx.innerTag = append(fx.innerTag, tag)
	}
	for i := 0; i < nOuter; i++ {
		k := fx.innerK[rng.Intn(nInner)]
		switch {
		case ds.nulls && i%20 == 7:
			k = joinNull
		case ds.misses && i%5 == 2 && rg.str:
			k = fmt.Sprintf("absent-%d", i)
		case ds.misses && i%5 == 2 && k != joinNull:
			n, _ := strconv.ParseInt(k, 10, 64)
			k = strconv.FormatInt(n+1+int64(i%2)<<40, 10) // off the stride, or off the envelope
		}
		if rg.fold && k != joinNull {
			k = strings.ToUpper(k)
		}
		fx.outerK = append(fx.outerK, k)
	}
	var outerKey, innerKey *storage.Column
	if rg.str {
		coll := types.CollateBinary
		if rg.fold {
			coll = types.CollateCaseFold
		}
		oh := heap.NewAccelerator(heap.New(coll), 0)
		ih := oh
		if !rg.sameHeap {
			ih = heap.NewAccelerator(heap.New(coll), 0)
		}
		outerKey, innerKey = joinTokenColumn("k", oh, fx.outerK), joinTokenColumn("pk", ih, fx.innerK)
	} else {
		ints := func(keys []string) []int64 {
			out := make([]int64, len(keys))
			for i, k := range keys {
				if out[i] = types.NullInteger; k != joinNull {
					out[i], _ = strconv.ParseInt(k, 10, 64)
				}
			}
			return out
		}
		outerKey = makeIntColumn("k", types.Integer, ints(fx.outerK))
		innerKey = makeIntColumn("pk", types.Integer, ints(fx.innerK))
	}
	fx.fact = makeTable("fact", outerKey, makeIntColumn("seq", types.Integer, seqInts(nOuter)))
	fx.dim = makeTable("dim", innerKey, makeIntColumn("val", types.Integer, fx.innerVal),
		joinTokenColumn("tag", heap.NewAccelerator(heap.New(types.CollateBinary), 0), fx.innerTag))
	return fx
}

// joinTokenColumn interns vals (joinNull = NULL) through acc into a string
// column over acc's heap.
func joinTokenColumn(name string, acc *heap.Accelerator, vals []string) *storage.Column {
	w := enc.NewWriter(enc.WriterConfig{ConvertOptimal: true, Sentinel: types.NullToken, HasSentinel: true})
	for _, v := range vals {
		if v == joinNull {
			w.AppendOne(types.NullToken)
		} else {
			w.AppendOne(acc.Intern(v))
		}
	}
	h := acc.Heap()
	return &storage.Column{Name: name, Type: types.String, Collation: h.Collation(),
		Data: w.Finish(), Heap: h, Meta: enc.MetadataFromStats(w.Stats(), false)}
}

// reference is the naive nested-loop join the engine is checked against:
// the first inner row with an equal key, NULL equal to NULL.
func (fx *joinFixture) reference(leftOuter bool) [][]string {
	var rows [][]string
	for i, k := range fx.outerK {
		row := []string{k, strconv.Itoa(i), joinNull, joinNull}
		matched := false
		for r, ik := range fx.innerK {
			if k == ik || fx.rg.fold && strings.EqualFold(k, ik) {
				row[2], row[3] = strconv.FormatInt(fx.innerVal[r], 10), fx.innerTag[r]
				matched = true
				break
			}
		}
		if matched || leftOuter {
			rows = append(rows, row)
		}
	}
	return rows
}

// openHook runs hook after the wrapped operator opened.
type openHook struct {
	Operator
	hook func()
}

func (o openHook) Open(qc *QueryCtx) error {
	err := o.Operator.Open(qc)
	if err == nil {
		o.hook()
	}
	return err
}

// fillingDisk fails the next `failing` writes with ENOSPC and counts them.
type fillingDisk struct {
	iofault.FS
	failing, failed atomic.Int64
}

type fillingDiskFile struct {
	iofault.File
	d *fillingDisk
}

func (d *fillingDisk) CreateTemp(dir, pattern string) (iofault.File, error) {
	f, err := d.FS.CreateTemp(dir, pattern)
	return fillingDiskFile{f, d}, err
}

func (f fillingDiskFile) Write(p []byte) (int, error) {
	if f.d.failing.Add(-1) >= 0 {
		f.d.failed.Add(1)
		return 0, syscall.ENOSPC
	}
	return f.File.Write(p)
}

// joinMode is where TestJoinRegimes makes the inner side live.
type joinMode struct {
	name   string
	budget int64 // memory budget, spilling allowed; 0 = unbudgeted
	// armInner / armOuter: how many spill writes fail once the
	// partitioning of that side starts
	armInner, armOuter int64
	depth              int64 // re-partitioning depth the run must reach
}

// TestJoinRegimes runs the one HashJoin across its regimes — every key
// shape the tactical choice distinguishes × what the keys contain × where
// the inner side lives (memory; partition files under a 64 KiB budget;
// files that outgrow the budget at every depth, joined by block-nested-
// loop; both rungs of the disk-full ladder) × inner and left outer ×
// serial and under a 2-worker Exchange (which pulls a grace join under
// its mutex) — against a nested-loop reference, and
// requires memory and disk to be handed back in full.
func TestJoinRegimes(t *testing.T) {
	const nInner, nOuter = 4000, 1500
	regimes := []joinRegime{
		{name: "fetch", want: JoinFetch, unique: true, noNulls: true,
			key: func(i int) string { return strconv.Itoa(10 + 3*i) }},
		{name: "direct", want: JoinDirect, shuffled: true, noNulls: true,
			key: func(i int) string { return strconv.Itoa(100 + i) }},
		{name: "hash", want: JoinHash, shuffled: true,
			key: func(i int) string { return strconv.Itoa(7 + 5003*i) }},
		{name: "string-same-heap", want: JoinHash, str: true, sameHeap: true,
			key: func(i int) string { return fmt.Sprintf("key-%d", i) }},
		{name: "string-cross-heap-collated", want: JoinHash, str: true, fold: true,
			key: func(i int) string { return fmt.Sprintf("key-%d", i) }},
	}
	datasets := []joinDataset{{name: "unique"}, {name: "duplicates", dups: true},
		{name: "nulls", nulls: true}, {name: "misses", misses: true}}
	modes := []joinMode{
		{name: "memory"},
		{name: "grace", budget: 64 << 10},
		{name: "block-nested-loop", budget: 64 << 10, depth: spillMaxDepth},
		{name: "disk-full-inner", budget: 64 << 10, armInner: 1},
		{name: "disk-full-outer", budget: 64 << 10, armOuter: 1 << 40},
	}
	for _, rg := range regimes {
		for di, ds := range datasets {
			if rg.unique && ds.dups {
				continue
			}
			fx := newJoinFixture(rg, ds, nInner, nOuter, int64(di+1))
			t.Run(rg.name+"/"+ds.name, func(t *testing.T) {
				for _, leftOuter := range []bool{false, true} {
					want := fx.reference(leftOuter)
					sortRows(want)
					for _, m := range modes {
						if m.depth > 0 && !ds.dups {
							continue // only a dominant key outgrows the budget at every depth
						}
						for _, workers := range []int{1, 2} {
							fx.check(t, want, m, leftOuter, workers)
						}
					}
				}
			})
		}
	}
}

// check runs one join of the fixture and compares it with want.
func (fx *joinFixture) check(t *testing.T, want [][]string, m joinMode, leftOuter bool, workers int) {
	t.Helper()
	label := fmt.Sprintf("%s leftOuter=%v workers=%d", m.name, leftOuter, workers)
	disk := &fillingDisk{FS: iofault.OS}
	disk.failing.Store(m.armInner)
	qc, dir := NewQueryCtx(nil, 0), ""
	if m.budget > 0 {
		dir = t.TempDir()
		qc = NewQueryCtxSpill(nil, m.budget, SpillConfig{Budget: 1 << 30, Dir: dir, FS: disk})
	}
	scan, err := NewScan(fx.fact)
	if err != nil {
		t.Fatal(err)
	}
	dimScan, err := NewScan(fx.dim)
	if err != nil {
		t.Fatal(err)
	}
	outer := openHook{scan, func() { disk.failing.Store(m.armOuter) }}
	j := NewHashJoin(outer, NewFlowTable(dimScan, DefaultFlowTableConfig()), 0, 0, JoinAuto)
	j.LeftOuter = leftOuter
	var top Operator = j
	if workers > 1 {
		top = NewExchange(j, workers, false)
	}
	// Once the build is resident, its charge must cover what it allocated:
	// the index slots and every flat column. A grace join's workers load
	// partitions as soon as the Exchange has opened, so only the in-memory
	// part is read here.
	pinned := openHook{top, func() {
		if j.grace == nil && j.part != nil {
			p := j.part
			alloc := len(p.index) * 4
			for _, col := range p.cols {
				alloc += len(col) * 8
			}
			if p.charged < alloc {
				t.Errorf("%s: %d bytes charged for %d allocated (%d index slots)", label, p.charged, alloc, len(p.index))
			}
		}
	}}
	got, err := CollectStringsCtx(qc, pinned)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sortRows(got)
	rowsEqual(t, want, got, label)
	st := j.opStats()
	if m.budget == 0 {
		if j.Algo() != fx.rg.want || st.Routine() != fx.rg.want.String() {
			t.Errorf("%s: ran as %v [%s], want %v", label, j.Algo(), st.Routine(), fx.rg.want)
		}
	} else {
		if st.Routine() != "grace" || qc.SpillPeak() == 0 {
			t.Errorf("%s: a %d-byte budget ran [%s] with %d spill bytes, want grace", label, m.budget, st.Routine(), qc.SpillPeak())
		}
		if d := atomic.LoadInt64(&st.Spill.MaxDepth); d < m.depth {
			t.Errorf("%s: re-partitioned to depth %d, want %d", label, d, m.depth)
		}
		if m.armInner+m.armOuter > 0 && disk.failed.Load() == 0 {
			t.Errorf("%s: the disk never filled", label)
		}
	}
	if qc.Used() != 0 || qc.SpillUsed() != 0 {
		t.Errorf("%s: %d bytes of memory and %d of disk still charged after Close", label, qc.Used(), qc.SpillUsed())
	}
	qc.CleanupSpill()
	if dir != "" {
		if left, _ := os.ReadDir(dir); len(left) > 0 {
			t.Errorf("%s: %d spill artifacts left behind", label, len(left))
		}
	}
}

// TestGraceJoinMaterializesRunBlocks: an outer scan that hands its column
// downstream as runs (EmitRuns; any operator may be a join's outer) must
// be expanded before the grace join partitions it, as the in-memory probe
// expands it.
func TestGraceJoinMaterializesRunBlocks(t *testing.T) {
	const nInner = 6000
	fk := make([]int64, 60_000)
	for i := range fk {
		fk[i] = int64(i / 10 * 5003)
	}
	fact := makeTable("fact", makeIntColumn("fk", types.Integer, fk))
	pk, val := make([]int64, nInner), make([]int64, nInner)
	rng := rand.New(rand.NewSource(5))
	for i := range pk {
		pk[i], val[i] = int64((nInner-1-i)*5003), rng.Int63()
	}
	dim := makeTable("dim", makeIntColumn("pk", types.Integer, pk), makeIntColumn("val", types.Integer, val))
	run := func(qc *QueryCtx) [][]string {
		scan, _ := NewScan(fact)
		scan.EmitRuns = true
		if !scan.EmitsRuns() {
			t.Fatal("the fixture's outer column no longer scans as runs")
		}
		dimScan, _ := NewScan(dim)
		rows, err := CollectStringsCtx(qc, NewHashJoin(scan, NewFlowTable(dimScan, DefaultFlowTableConfig()), 0, 0, JoinAuto))
		if err != nil {
			t.Fatal(err)
		}
		sortRows(rows)
		return rows
	}
	want := run(nil)
	qc := NewQueryCtxSpill(nil, 64<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
	got := run(qc)
	if qc.SpillPeak() == 0 {
		t.Fatal("a 64 KiB budget did not spill")
	}
	rowsEqual(t, want, got, "grace over a run-emitting outer")
	qc.CleanupSpill()
}

// TestGraceJoinKeepsOuterStoredHeap: a grace join spills an outer string
// column that is not the key as stored tokens, so its blocks come back on
// the stored heap and the join's schema keeps StoredHeap for it — which
// lets an aggregate above keep the tokens too. A stored inner's strings
// are spilled the same way; only the outer key is re-homed into partition
// heaps and does not claim it.
func TestGraceJoinKeepsOuterStoredHeap(t *testing.T) {
	const nOuter, nInner = 2000, 6000
	fk, names := make([]int64, nOuter), make([]string, nOuter)
	for i := range fk {
		fk[i], names[i] = int64(i*3%nInner*7), fmt.Sprintf("name-%d", i%997)
	}
	fact := makeTable("fact", makeIntColumn("fk", types.Integer, fk), makeStringColumn("name", names))
	pk, tags := make([]int64, nInner), make([]string, nInner)
	for i := range pk {
		pk[i], tags[i] = int64(i*7), fmt.Sprintf("tag-%d", i%13)
	}
	dim := makeTable("dim", makeIntColumn("pk", types.Integer, pk), makeStringColumn("tag", tags))
	qc := NewQueryCtxSpill(nil, 32<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
	defer qc.CleanupSpill()
	scan, _ := NewScan(fact)
	dimScan, _ := NewScan(dim)
	j := NewHashJoin(scan, dimScan, 0, 0, JoinAuto)
	if s := j.Schema(); s[0].StoredHeap || !s[1].StoredHeap || !s[2].StoredHeap {
		t.Fatalf("StoredHeap of (fk, name, tag) = (%v, %v, %v), want (false, true, true)",
			s[0].StoredHeap, s[1].StoredHeap, s[2].StoredHeap)
	}
	agg := NewAggregate(j, nil, []AggSpec{{Func: Count, Col: -1}, {Func: CountD, Col: 1}}, AggAuto)
	rows, err := CollectStringsCtx(qc, agg)
	if err != nil {
		t.Fatal(err)
	}
	if j.opStats().Routine() != "grace" || qc.SpillPeak() == 0 {
		t.Fatalf("the join ran [%s] with %d spill bytes, want grace", j.opStats().Routine(), qc.SpillPeak())
	}
	if got := strings.Join(rows[0], ","); got != fmt.Sprintf("%d,997", nOuter) {
		t.Fatalf("COUNT(*), COUNTD(name) = %s, want %d,997", got, nOuter)
	}
}

// TestGraceJoinOverStoredInner: a join that reads its inner in place and
// goes grace spills the inner's string payload as stored tokens, so the
// schema's StoredHeap is the same before and after Open, and a GROUP BY
// on that payload above the join answers as the in-memory join does.
func TestGraceJoinOverStoredInner(t *testing.T) {
	const nOuter, nInner = 8000, 6000
	fk := make([]int64, nOuter)
	for i := range fk {
		fk[i] = int64(i * 7 % (4 * nInner)) // most miss
	}
	pk, tags := make([]int64, nInner), make([]string, nInner)
	row := map[int64]int{}
	for i := range pk {
		pk[i], tags[i] = int64(i*3+i%2), fmt.Sprintf("tag-%d", i%13) // not affine: direct
		row[pk[i]] = i
	}
	want := map[string]int{}
	for _, k := range fk {
		if r, ok := row[k]; ok {
			want[tags[r]]++
		}
	}
	fact := makeTable("fact", makeIntColumn("fk", types.Integer, fk))
	dim := makeTable("dim", makeIntColumn("pk", types.Integer, pk), makeStringColumn("tag", tags))
	run := func(qc *QueryCtx) (map[string]int, *HashJoin) {
		scan, _ := NewScan(fact)
		dimScan, _ := NewScan(dim)
		j := NewHashJoin(scan, dimScan, 0, 0, JoinAuto)
		before := j.Schema()[1].StoredHeap
		agg := NewAggregate(j, []int{1}, []AggSpec{{Func: Count, Col: -1}}, AggAuto)
		rows, err := CollectStringsCtx(qc, agg)
		if err != nil {
			t.Fatal(err)
		}
		if after := j.Schema()[1].StoredHeap; !before || !after {
			t.Errorf("the tag's StoredHeap is %v before Open and %v after, want true both", before, after)
		}
		if qc.Used() != 0 {
			t.Errorf("%d bytes still charged after Close", qc.Used())
		}
		got := map[string]int{}
		for _, r := range rows {
			got[r[0]], _ = strconv.Atoi(r[1])
		}
		return got, j
	}
	mem, j := run(NewQueryCtx(nil, 0))
	if j.Algo() != JoinDirect {
		t.Fatalf("the in-memory join ran as %v, want direct", j.Algo())
	}
	qc := NewQueryCtxSpill(nil, 64<<10, SpillConfig{Budget: 1 << 30, Dir: t.TempDir()})
	defer qc.CleanupSpill()
	spilled, j := run(qc)
	if j.opStats().Routine() != "grace" || qc.SpillPeak() == 0 {
		t.Fatalf("the join ran [%s] with %d spill bytes, want grace", j.opStats().Routine(), qc.SpillPeak())
	}
	if !maps.Equal(mem, want) || !maps.Equal(spilled, want) {
		t.Fatalf("COUNT(*) by tag:\n in memory %v\n grace     %v\n want      %v", mem, spilled, want)
	}
}

// TestDirectJoinDropsKeyColumn: a direct join probes its envelope index
// alone, so once the index is built the flat key column is gone and its
// rows × 8 bytes are back with the accountant. The join holds exactly the
// index slots and whatever flat payload columns it decoded.
func TestDirectJoinDropsKeyColumn(t *testing.T) {
	rg := joinRegime{name: "direct", want: JoinDirect, shuffled: true, noNulls: true,
		key: func(i int) string { return strconv.Itoa(100 + i) }}
	fx := newJoinFixture(rg, joinDataset{name: "unique"}, 4000, 1500, 1)
	scan, err := NewScan(fx.fact)
	if err != nil {
		t.Fatal(err)
	}
	dimScan, err := NewScan(fx.dim)
	if err != nil {
		t.Fatal(err)
	}
	ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
	j := NewHashJoin(scan, ft, 0, 0, JoinAuto)
	qc := NewQueryCtx(nil, 0)
	if err := j.Open(qc); err != nil {
		t.Fatal(err)
	}
	p := j.part
	if j.Algo() != JoinDirect {
		t.Fatalf("ran as %v, want direct", j.Algo())
	}
	if p.cols[p.key] != nil {
		t.Fatal("the direct join kept its flat key column")
	}
	held := len(p.index) * 4
	for _, col := range p.cols {
		held += len(col) * 8
	}
	if p.charged != held {
		t.Errorf("the join accounts %d bytes and holds %d", p.charged, held)
	}
	if got, want := qc.Used(), int64(ft.cost+held); got != want {
		t.Errorf("query charged %d bytes, want %d (FlowTable %d + join %d)", got, want, ft.cost, held)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if qc.Used() != 0 {
		t.Errorf("%d bytes still charged after Close", qc.Used())
	}
}
