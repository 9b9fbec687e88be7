package exec

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// AggFunc is an aggregation function. The set matches the Tableau
// aggregates the TDE exists to serve, including COUNTD and MEDIAN
// (Sect. 2.2: extracts supplement "databases that either perform poorly or
// lack useful functionality such as COUNTD or MEDIAN aggregation").
type AggFunc uint8

// Aggregation functions.
const (
	Sum AggFunc = iota
	Count
	CountD
	Min
	Max
	Avg
	Median
)

func (f AggFunc) String() string {
	return [...]string{"SUM", "COUNT", "COUNTD", "MIN", "MAX", "AVG", "MEDIAN"}[f]
}

// AggSpec pairs a function with an input column (-1 = COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Col  int
	Name string
}

// AggMode selects the grouping algorithm; the tactical optimizer picks it
// from the key columns' runtime metadata (Sect. 2.3.1: "an aggregation
// operator can choose a hash algorithm based on the sizes and other
// attributes of the aggregation keys").
type AggMode uint8

// Aggregation modes.
const (
	// AggAuto defers the choice to Open.
	AggAuto AggMode = iota
	// AggHash uses a chained hash table keyed on the group tuple.
	AggHash
	// AggDirect indexes groups directly in an array over the product of
	// the keys' dense domains — the perfect/direct hashing of Sect. 2.3.4,
	// available when every key maps to a small ordinal domain (directKey)
	// and the product fits directLimit. Over one dictionary-compressed key
	// the slot is the token, plus one NULL slot — GROUP BY the compressed
	// code with no hashing and no token decode, the routine "token-direct"
	// (compressed execution, DESIGN.md §12).
	AggDirect
	// AggOrdered exploits grouped (sorted) input: one running group at a
	// time, final once the key changes — the ordered ("sandwiched")
	// aggregation of Sect. 4.2.2. It is a flow: the groups leave as the
	// input arrives (aggEmitter.nextGroups).
	AggOrdered
)

func (m AggMode) String() string {
	return [...]string{"auto", "hash", "direct", "ordered"}[m]
}

// directLimit caps the slot count of AggDirect's table — the product of
// the keys' domains, NULL slots included: the 64K-element direct lookup
// table of Sect. 2.3.4.
const directLimit = 1 << 16

// wideAcc is what COUNTD and MEDIAN retain for one group: state per input
// value, charged per input row (perRow).
type wideAcc struct {
	distinct map[uint64]struct{} // COUNTD, made on its first value
	all      []uint64            // MEDIAN
}

// add puts v in the COUNTD set.
func (w *wideAcc) add(v uint64) {
	if w.distinct == nil {
		w.distinct = make(map[uint64]struct{})
	}
	w.distinct[v] = struct{}{}
}

// bitset is a bitmap over group indices.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

func (b bitset) put(i int, v bool) {
	b[i>>6] &^= 1 << (i & 63)
	if v {
		b[i>>6] |= 1 << (i & 63)
	}
}

// aggCol is one aggregate's group state: typed columns indexed by group,
// of which only those the function needs are non-nil. Every entry of a
// group not held is zero, so a new group starts from zero.
type aggCol struct {
	cnt  []int64   // COUNT(*), COUNT, and the non-NULL inputs of SUM and AVG
	sumI []int64   // SUM/AVG of an integer
	sumF []float64 // SUM/AVG of a real
	ext  []uint64  // MIN/MAX: the extreme's bits
	seen bitset    // MIN/MAX: the groups holding an extreme
	wide []wideAcc // COUNTD/MEDIAN
}

// newAggCol sets up spec s's empty columns and returns the bytes one
// group occupies in them.
func newAggCol(s AggSpec, in []ColInfo) (aggCol, int) {
	switch {
	case s.Col < 0 || s.Func == Count:
		return aggCol{cnt: []int64{}}, 8
	case (s.Func == Sum || s.Func == Avg) && in[s.Col].Type == types.Real:
		return aggCol{cnt: []int64{}, sumF: []float64{}}, 16
	case s.Func == Sum || s.Func == Avg:
		return aggCol{cnt: []int64{}, sumI: []int64{}}, 16
	case s.Func == Min || s.Func == Max:
		return aggCol{ext: []uint64{}, seen: bitset{}}, 9
	}
	return aggCol{wide: []wideAcc{}}, 32
}

// resize gives the columns room for n groups, keeping the first keep.
func (a *aggCol) resize(n, keep int) {
	a.cnt = resized(a.cnt, n, keep)
	a.sumI = resized(a.sumI, n, keep)
	a.sumF = resized(a.sumF, n, keep)
	a.ext = resized(a.ext, n, keep)
	a.seen = resized(a.seen, (n+63)/64, (keep+63)/64)
	a.wide = resized(a.wide, n, keep)
}

// resized returns n zeroed entries holding s's first keep; an unused
// (nil) column stays nil.
func resized[T any](s []T, n, keep int) []T {
	if s == nil {
		return nil
	}
	out := make([]T, n)
	copy(out, s[:keep])
	return out
}

// keepLast moves the last of n groups to index 0 and zeroes the others'
// entries, letting their COUNTD/MEDIAN state go.
func (a *aggCol) keepLast(n int) {
	keepLast(a.cnt, n)
	keepLast(a.sumI, n)
	keepLast(a.sumF, n)
	keepLast(a.ext, n)
	keepLast(a.wide, n)
	if a.seen != nil {
		last := a.seen.has(n - 1)
		clear(a.seen[:(n+63)/64])
		a.seen.put(0, last)
	}
}

func keepLast[T any](s []T, n int) {
	if s != nil {
		s[0] = s[n-1]
		clear(s[1:n])
	}
}

// aggCore is the grouping machinery of one Aggregate worker: it owns the
// group state, the per-column string heaps, and the budget cost model, but
// not the child iteration (its caller feeds it blocks).
type aggCore struct {
	in      []ColInfo
	keyCols []int
	specs   []AggSpec
	chosen  AggMode
	st      *OpStats // the owning operator's: names the charges, receives the string counters

	// The columnar group state, shared by every mode: cols holds one
	// aggCol per spec, with room for room groups, and the room doubles as
	// groups appear. Direct mode indexes the columns by the slot dkeys
	// compute, through pages of directPage slots: page maps a page of the
	// slots to the page of the columns it was given when first touched,
	// virt maps it back, touched marks the groups held and order lists
	// them as first seen; a group's keys come from its slot. The other
	// modes index the columns by creation order, and group g's key tuple
	// is keys[g*len(keyCols):]. Hash mode finds groups through slots, an
	// open-addressing index (group +1, 0 = empty, at most half full)
	// addressed by the top bits of the key hash; ordered mode only ever
	// looks at the last group.
	n       int // groups held
	room    int
	cols    []aggCol
	keys    []uint64
	slots   []int32
	shift   uint
	tuple   []uint64    // one row's key tuple
	dkeys   []directKey // the direct modes' key ordinals, shared by every worker
	page    []int32     // slot page -> column page +1, 0 = none yet
	virt    []int32     // column page -> slot page
	touched bitset
	order   []int32

	gids    []int32    // one block's group ids
	runRows *vec.Block // a run block's values, one row per run

	// runBlocks counts input blocks folded run-at-a-time instead of
	// row-at-a-time — the rle-* routines of compressed execution.
	// Reported through the operator's routine string.
	runBlocks int

	// curSet: ordered mode's last group is still running (open to more rows)
	curSet bool

	// String columns that participate in hash or ordered grouping, or in
	// MIN/MAX/COUNTD without a stored heap, are translated into one heap
	// per column so tokens stay comparable across blocks (computed string
	// columns carry per-block heaps). A StoredHeap aggregate input keeps
	// its stored tokens: MIN/MAX compare them through the stored heap and
	// COUNTD counts their collation classes when it finishes, so its
	// state is one token per distinct element, with no strings copied.
	strHeaps []*heap.Heap
	strTr    []*heap.Translator
	stored   []int // the aggregate inputs that keep stored tokens

	// budget cost model: stateBytes, of which stateCharged are charged so
	// far; perRow per input row
	groupCost    int
	perRow       int
	heapBytes    int
	stateCharged int
	charged      int
	directCharge int // the direct mode's up-front charge, kept across evictions
}

// newAggCore sets up the grouping state for the chosen mode — a direct
// mode when dkeys is non-nil. Direct mode charges qc its first-seen list,
// four bytes a slot, up front; its columns, like the other modes', are
// charged by their room as pages of groups appear (stateBytes).
func newAggCore(in []ColInfo, keyCols []int, specs []AggSpec, chosen AggMode, dkeys []directKey, st *OpStats, qc *QueryCtx) (*aggCore, error) {
	c := &aggCore{in: in, keyCols: keyCols, specs: specs, chosen: chosen, st: st, dkeys: dkeys,
		tuple: make([]uint64, len(keyCols)), gids: make([]int32, vec.BlockSize)}
	// Per-group hash-table footprint: keys, accumulators, bookkeeping.
	c.groupCost = 64 + 16*(len(keyCols)+len(specs))
	colBytes := 1 // direct mode's touched bit
	for _, s := range specs {
		col, n := newAggCol(s, in)
		c.cols = append(c.cols, col)
		colBytes += n
		if s.Func == CountD || s.Func == Median {
			c.perRow += 16 // per-input-row state retained by COUNTD / MEDIAN
		}
	}
	if dkeys == nil {
		c.keys = []uint64{}
	} else {
		slots := directSlots(dkeys)
		if err := qc.Charge(st.kind, slots*4); err != nil {
			return nil, err
		}
		c.charged, c.directCharge, c.groupCost = slots*4, slots*4, colBytes
		c.touched, c.order = bitset{}, make([]int32, 0, slots)
	}
	c.strHeaps = make([]*heap.Heap, len(in))
	c.strTr = make([]*heap.Translator, len(in))
	strCol := func(col int) {
		if col >= 0 && in[col].Type == types.String && c.strTr[col] == nil {
			c.freshHeap(qc, col, collationOf(in[col]))
		}
	}
	if dkeys == nil { // direct keys are grouped as stored, never re-homed
		for _, kc := range keyCols {
			strCol(kc)
		}
	}
	for _, s := range specs {
		switch {
		case s.Col < 0 || in[s.Col].Type != types.String || c.strTr[s.Col] != nil:
		case in[s.Col].StoredHeap:
			if !slices.Contains(c.stored, s.Col) {
				c.stored = append(c.stored, s.Col)
			}
		default:
			strCol(s.Col)
		}
	}
	return c, nil
}

// freshHeap gives string column col an empty heap and a translator into
// it, retiring the previous translator: its memos point into the old heap.
func (c *aggCore) freshHeap(qc *QueryCtx, col int, coll types.Collation) {
	c.retire(col)
	c.strHeaps[col] = heap.New(coll)
	c.strTr[col] = heap.NewTranslator(c.strHeaps[col], heap.NewAccelerator(c.strHeaps[col], 0), qc, c.st.kind)
}

// dropMemos frees the translators' memos, keeping their counters.
func (c *aggCore) dropMemos() {
	for _, tr := range c.strTr {
		if tr != nil {
			tr.Release()
		}
	}
}

// retire releases col's translator, if any, and books its counters.
func (c *aggCore) retire(col int) {
	if tr := c.strTr[col]; tr != nil {
		tr.Release()
		c.st.AddStrings(tr.Interned, tr.Translated)
		c.strTr[col] = nil
	}
}

// internStrings rewrites string tokens in place (the block is owned by
// the caller's read loop) into the per-column aggregation heaps, making
// tokens comparable across blocks and collation-aware.
func (c *aggCore) internStrings(b *vec.Block) {
	for col, tr := range c.strTr {
		if tr == nil {
			continue
		}
		v := &b.Vecs[col]
		tr.Translate(v.Heap, v.Data[:b.N], v.Data[:b.N])
		v.Heap = c.strHeaps[col]
	}
}

// foldBlock groups one block; the caller charges the growth
// (chargeGrowth). A plain block takes two passes: one computing every
// row's group id, then one fold loop per aggregate. The direct modes
// compute the ids on the block's keys as they arrive, before
// internStrings rewrites the string columns the aggregates read; the
// others group on the rewritten tokens. A block of aligned runs goes
// through the same passes over its run values, one row per run, and
// folds each run weighted by its length.
func (c *aggCore) foldBlock(b *vec.Block) error {
	var runs []enc.Run
	if c.runCapable(b) {
		c.runBlocks++
		if v := &b.Vecs[0]; len(b.Vecs) == 1 && len(c.keyCols) == 0 && v.Dict == nil && v.Heap == nil {
			// Global aggregate over plain scalar runs: the pure kernels
			// fold (SUM multiplies by run length, COUNT adds it) into the
			// single global group, there being no keys.
			c.foldRuns(c.findTuple(), v.Runs, v.Type, b.N)
			return nil
		}
		runs = b.Vecs[0].Runs
		c.runRows = runRows(b, c.runRows)
		b = c.runRows
	} else {
		b.Materialize() // late-decode boundary for shapes the run path skips
	}
	for _, col := range c.stored {
		if b.Vecs[col].Heap != c.in[col].Heap {
			return fmt.Errorf("exec: aggregate input %q: a block whose heap is not the column's stored heap", c.in[col].Name)
		}
	}
	gids := c.gids[:b.N]
	if c.dkeys != nil {
		if err := c.directIDs(b, gids); err != nil {
			return err
		}
		c.internStrings(b)
	} else {
		c.internStrings(b)
		c.groupIDs(b, gids)
	}
	if runs != nil {
		for r, g := range gids {
			for j := range c.specs {
				c.updateSpec(int(g), j, b, r, int64(runs[r].Count))
			}
		}
	} else {
		c.fold(b, gids)
	}
	return nil
}

// groupIDs is the hash and ordered modes' group-id pass.
func (c *aggCore) groupIDs(b *vec.Block, gids []int32) {
	if c.chosen == AggHash && len(c.keyCols) == 1 {
		keys := b.Vecs[c.keyCols[0]].Data
		for i := range gids {
			gids[i] = int32(c.findGroupKey(keys[i]))
		}
		return
	}
	for i := range gids {
		for j, kc := range c.keyCols {
			c.tuple[j] = b.Vecs[kc].Data[i]
		}
		gids[i] = int32(c.findTuple())
	}
}

// fold is the accumulation pass: one loop per aggregate over the block's
// group ids, into that aggregate's columns. COUNT(*), COUNT, SUM and AVG
// over plain vectors run specialised loops; the rest fold row by row
// through updateSpec.
func (c *aggCore) fold(b *vec.Block, gids []int32) {
	for j, s := range c.specs {
		a := &c.cols[j]
		if s.Col < 0 { // COUNT(*)
			for _, g := range gids {
				a.cnt[g]++
			}
			continue
		}
		v := &b.Vecs[s.Col]
		data := v.Data[:len(gids)]
		switch {
		case v.Dict != nil: // tokens: resolved per row below
		case s.Func == Count:
			null := nullOf(v)
			for i, g := range gids {
				if data[i] != null {
					a.cnt[g]++
				}
			}
			continue
		case a.sumF != nil:
			null := nullOf(v)
			for i, g := range gids {
				if x := data[i]; x != null {
					a.cnt[g]++
					a.sumF[g] += types.ToReal(x)
				}
			}
			continue
		case a.sumI != nil:
			null := nullOf(v)
			for i, g := range gids {
				if x := data[i]; x != null {
					a.cnt[g]++
					a.sumI[g] += int64(x)
				}
			}
			continue
		}
		for i, g := range gids {
			c.updateSpec(int(g), j, b, i, 1)
		}
	}
}

// nullOf is the NULL pattern of a plain (non-dictionary) vector's data.
func nullOf(v *vec.Vector) uint64 {
	if v.Heap != nil {
		return types.NullToken
	}
	return types.NullBits(v.Type)
}

// chargeGrowth charges what the group state and heaps grew by since the
// last charge plus rows input rows' worth of retained per-row state.
func (c *aggCore) chargeGrowth(qc *QueryCtx, rows int) error {
	grown, state := heapSizes(c.strHeaps), c.stateBytes()
	cost := (state - c.stateCharged) + rows*c.perRow + (grown - c.heapBytes)
	c.heapBytes, c.stateCharged = grown, state
	if err := qc.Charge(c.st.kind, cost); err != nil {
		return err
	}
	c.charged += cost
	return nil
}

// stateBytes is what the group state occupies: its room's worth of
// groups at groupCost each — so the slack a doubling leaves counts too —
// and the direct mode's page maps.
func (c *aggCore) stateBytes() int {
	return c.room*c.groupCost + 4*(len(c.page)+cap(c.virt))
}

// runCapable reports whether b can be folded run-at-a-time: every vector
// carries aligned runs and no aggregate is a MEDIAN, which retains one
// value per input row, so run weighting buys nothing.
func (c *aggCore) runCapable(b *vec.Block) bool {
	if !alignedRuns(b) {
		return false
	}
	for _, s := range c.specs {
		if s.Func == Median {
			return false
		}
	}
	return true
}

// foldRuns applies the enc run kernels to a plain scalar column's runs.
func (c *aggCore) foldRuns(g int, runs []enc.Run, t types.Type, rows int) {
	null := types.NullBits(t)
	for j, s := range c.specs {
		a := &c.cols[j]
		if s.Col < 0 { // COUNT(*) counts NULLs too
			a.cnt[g] += int64(rows)
			continue
		}
		switch s.Func {
		case Count:
			a.cnt[g] += enc.CountRuns(runs, null)
		case CountD:
			for _, r := range runs {
				if r.Value != null {
					a.wide[g].add(r.Value)
				}
			}
		case Sum, Avg:
			if t == types.Real {
				sum, n := enc.SumRunsReal(runs, null)
				a.sumF[g] += sum
				a.cnt[g] += n
			} else {
				sum, n := enc.SumRunsInt(runs, null)
				a.sumI[g] += sum
				a.cnt[g] += n
			}
		case Min, Max:
			mn, mx, ok := enc.MinMaxRuns(runs, null, func(a, b uint64) int {
				return types.Compare(t, a, b)
			})
			if ok && s.Func == Min {
				c.foldExt(j, g, mn)
			} else if ok {
				c.foldExt(j, g, mx)
			}
		}
	}
}

// finish closes the ordered mode's running group.
func (c *aggCore) finish() { c.curSet = false }

// finished is how many groups are final: all but ordered mode's running
// one.
func (c *aggCore) finished() int {
	if c.curSet {
		return c.n - 1
	}
	return c.n
}

// hashTuple hashes a key tuple; the slot index takes its top bits, which
// every bit of every key reaches.
func hashTuple(keys []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, k := range keys {
		h = (h ^ k) * 0x9E3779B97F4A7C15
	}
	return h
}

// findTuple is the hash and ordered modes' dispatch behind groupIDs and
// mergeFrom: the group holding the key tuple in c.tuple, created on first
// sight.
func (c *aggCore) findTuple() int {
	if c.chosen != AggOrdered {
		return c.findGroupKeys(c.tuple)
	}
	if !c.curSet || !c.keysEqual(c.n-1, c.tuple) {
		c.newGroup(c.tuple)
		c.curSet = true
	}
	return c.n - 1
}

func (c *aggCore) keysEqual(g int, keys []uint64) bool {
	for j, k := range c.keys[g*len(keys) : (g+1)*len(keys)] {
		if k != keys[j] {
			return false
		}
	}
	return true
}

// newGroup appends a group with the given key tuple and returns its
// index, its state zero. The state doubles its room (from nothing: 16
// groups); append grows a large slice by about 1.25×, which copies it
// far more often.
func (c *aggCore) newGroup(keys []uint64) int {
	if c.n == c.room {
		c.reserve(max(2*c.room, 16))
	}
	copy(c.keys[c.n*len(keys):], keys)
	c.n++
	return c.n - 1
}

// reserve gives the group state — columns, key tuples, touched bits —
// room for room groups, keeping the entries both rooms cover.
func (c *aggCore) reserve(room int) {
	keep := min(c.room, room)
	for j := range c.cols {
		c.cols[j].resize(room, keep)
	}
	nk := len(c.keyCols)
	c.keys = resized(c.keys, room*nk, keep*nk)
	c.touched = resized(c.touched, (room+63)/64, (keep+63)/64)
	c.room = room
}

// group is the index of the i-th group held, in first-seen order.
func (c *aggCore) group(i int) int {
	if c.dkeys != nil {
		return int(c.order[i])
	}
	return i
}

// key is key column j of group g: direct mode decodes it from the slot.
func (c *aggCore) key(g, j int) uint64 {
	if c.dkeys != nil {
		dk := &c.dkeys[j]
		return dk.key(c.slot(g) / dk.stride % (dk.null + 1))
	}
	return c.keys[g*len(c.keyCols)+j]
}

// findGroupKey is findGroupKeys for a single key.
func (c *aggCore) findGroupKey(key uint64) int {
	if c.n*2 >= len(c.slots) {
		c.growSlots()
	}
	mask := uint64(len(c.slots) - 1)
	for i := hashTuple1(key) >> c.shift; ; i = (i + 1) & mask {
		g := int(c.slots[i]) - 1
		if g < 0 {
			c.slots[i] = int32(c.n + 1)
			c.tuple[0] = key
			return c.newGroup(c.tuple)
		}
		if c.keys[g] == key {
			return g
		}
	}
}

// hashTuple1 is hashTuple of a one-key tuple.
func hashTuple1(k uint64) uint64 {
	return (uint64(1469598103934665603) ^ k) * 0x9E3779B97F4A7C15
}

// findGroupKeys is hash mode's probe: the group holding the key tuple,
// created on first sight.
func (c *aggCore) findGroupKeys(keys []uint64) int {
	if c.n*2 >= len(c.slots) {
		c.growSlots()
	}
	mask := uint64(len(c.slots) - 1)
	for i := hashTuple(keys) >> c.shift; ; i = (i + 1) & mask {
		g := int(c.slots[i]) - 1
		if g < 0 {
			c.slots[i] = int32(c.n + 1)
			return c.newGroup(keys)
		}
		if c.keysEqual(g, keys) {
			return g
		}
	}
}

// growSlots doubles the slot index (from nothing: 64 slots) and re-seats
// every group from its keys in the slab.
func (c *aggCore) growSlots() {
	n := 2 * len(c.slots)
	if n == 0 {
		n, c.shift = 64, 64-5
	}
	c.slots = make([]int32, n)
	c.shift--
	mask := uint64(n - 1)
	nk := len(c.keyCols)
	for g := 0; g < c.n; g++ {
		i := hashTuple(c.keys[g*nk:(g+1)*nk]) >> c.shift
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = int32(g + 1)
	}
}

// updateSpec folds row i of b into group g's state of aggregate j w
// times in O(1): w is a run length on foldBlock's run path.
func (c *aggCore) updateSpec(g, j int, b *vec.Block, i int, w int64) {
	a, s := &c.cols[j], c.specs[j]
	if s.Col < 0 { // COUNT(*)
		a.cnt[g] += w
		return
	}
	v := &b.Vecs[s.Col]
	if v.IsNull(i) {
		return // aggregates skip NULLs
	}
	bits := v.Value(i)
	switch s.Func {
	case Count:
		a.cnt[g] += w
	case CountD:
		a.wide[g].add(v.Data[i])
	case Sum, Avg:
		a.cnt[g] += w
		if a.sumF != nil {
			a.sumF[g] += types.ToReal(bits) * float64(w)
		} else {
			a.sumI[g] += int64(bits) * w
		}
	case Min, Max:
		c.foldExt(j, g, bits)
	case Median:
		for k := int64(0); k < w; k++ {
			a.wide[g].all = append(a.wide[g].all, bits)
		}
	}
}

// foldExt folds one value of aggregate j's input (a token of the
// column's aggregation heap when it is a string) into group g's extreme.
func (c *aggCore) foldExt(j, g int, v uint64) {
	a, s := &c.cols[j], c.specs[j]
	if !a.seen.has(g) {
		a.seen.put(g, true)
		a.ext[g] = v
		return
	}
	if d := c.compare(s.Col, v, a.ext[g]); d < 0 && s.Func == Min || d > 0 && s.Func == Max {
		a.ext[g] = v
	}
}

func (c *aggCore) compare(col int, a, b uint64) int {
	if h := c.valHeap(col); h != nil {
		return h.Compare(a, b)
	}
	return types.Compare(c.in[col].Type, a, b)
}

// valHeap is the heap column col's aggregate state resolves through:
// the aggregation's own when it re-homed the column's strings, the
// column's otherwise (a stored heap, or nil for a scalar).
func (c *aggCore) valHeap(col int) *heap.Heap {
	if h := c.strHeaps[col]; h != nil {
		return h
	}
	return c.in[col].Heap
}

// remapToken translates a string token minted in o's per-column heap into
// c's heap (identity for non-string columns).
func (c *aggCore) remapToken(o *aggCore, col int, tok uint64) uint64 {
	if col < 0 || c.strTr[col] == nil {
		return tok
	}
	return c.strTr[col].One(o.strHeaps[col], tok)
}

// mergeFrom folds another core's partial groups into c — the merge stage
// of a multi-worker aggregation. Both cores were fed disjoint morsels of
// the same input in the same mode, so the states combine associatively,
// column to column. In direct mode the slots are the same in both; o's
// hash keys probe c exactly like rows do, string tokens translated from
// o's heaps into c's.
func (c *aggCore) mergeFrom(o *aggCore, qc *QueryCtx) error {
	o.finish()
	// Both inputs are drained, so their memos are dead; the merge's own go
	// before the merged state — the operator's memory peak — is charged.
	o.dropMemos()
	c.dropMemos()
	src, dst := o.order, make([]int32, o.n)
	if c.dkeys != nil {
		for i, g := range src {
			dst[i] = int32(o.slot(int(g)))
		}
		c.place(dst)
	} else {
		src = make([]int32, o.n)
		for g := range src {
			for j, kc := range c.keyCols {
				c.tuple[j] = c.remapToken(o, kc, o.key(g, j))
			}
			src[g], dst[g] = int32(g), int32(c.findTuple())
		}
	}
	for j := range c.specs {
		c.mergeCol(j, o, src, dst)
	}
	c.dropMemos()
	return c.chargeGrowth(qc, 0)
}

// mergeCol adds o's columns of aggregate j into c's: o's group src[i]
// into c's group dst[i].
func (c *aggCore) mergeCol(j int, o *aggCore, src, dst []int32) {
	a, b, s := &c.cols[j], &o.cols[j], c.specs[j]
	addAt(a.cnt, b.cnt, src, dst)
	addAt(a.sumI, b.sumI, src, dst)
	addAt(a.sumF, b.sumF, src, dst)
	for i, g := range src {
		switch d := int(dst[i]); {
		case a.ext != nil:
			if b.seen.has(int(g)) {
				c.foldExt(j, d, c.remapToken(o, s.Col, b.ext[g]))
			}
		case a.wide == nil:
			return // counts and sums only
		case s.Func == CountD:
			for tok := range b.wide[g].distinct {
				a.wide[d].add(c.remapToken(o, s.Col, tok))
			}
		default: // MEDIAN
			a.wide[d].all = append(a.wide[d].all, b.wide[g].all...)
		}
	}
}

// addAt adds column from's entries src[i] into column to's entries
// dst[i]; an unused (nil) column is left alone.
func addAt[T int64 | float64](to, from []T, src, dst []int32) {
	for i := 0; to != nil && i < len(src); i++ {
		to[dst[i]] += from[src[i]]
	}
}

// emit writes up to BlockSize finished groups starting at 'at' into b,
// returning how many it wrote. outSchema is the aggregate operator's
// output schema.
func (c *aggCore) emit(b *vec.Block, at int, outSchema []ColInfo) int {
	n := c.finished() - at
	if n <= 0 {
		return 0
	}
	gs := c.gids[:min(n, vec.BlockSize)]
	for r := range gs {
		gs[r] = int32(c.group(at + r))
	}
	ensureVecs(b, len(outSchema))
	for j, kc := range c.keyCols {
		v := &b.Vecs[j]
		v.Type = c.in[kc].Type
		v.Heap = c.keyHeap(kc)
		v.Dict = c.in[kc].Dict
		for r, g := range gs {
			v.Data[r] = c.key(int(g), j)
		}
	}
	for j, s := range c.specs {
		v := &b.Vecs[len(c.keyCols)+j]
		v.Type = outSchema[len(c.keyCols)+j].Type
		v.Heap = nil
		v.Dict = nil
		if (s.Func == Min || s.Func == Max) && s.Col >= 0 {
			v.Heap = c.valHeap(s.Col) // extremes are values: a dictionary column's are resolved
		}
		for r, g := range gs {
			v.Data[r] = c.finishAcc(int(g), j)
		}
	}
	b.N = len(gs)
	return len(gs)
}

// keyHeap is the heap key column col's group tokens resolve through: the
// aggregation's own when it re-homed the column's strings, the column's
// otherwise — the stored heap the direct modes group on by element
// position. (A direct key that is also a MIN/MAX/COUNTD input has a heap
// of its own for the aggregate, not for the key.)
func (c *aggCore) keyHeap(col int) *heap.Heap {
	if c.chosen == AggDirect {
		return c.in[col].Heap
	}
	return c.valHeap(col)
}

// release drops the group state and returns the charged bytes to the
// accountant.
func (c *aggCore) release(qc *QueryCtx) {
	c.n, c.room, c.stateCharged = 0, 0, 0
	c.cols, c.keys, c.slots, c.dkeys, c.page, c.virt, c.touched, c.order = nil, nil, nil, nil, nil, nil, nil, nil
	for col := range c.strTr {
		c.retire(col)
	}
	qc.Release(c.charged)
	c.charged = 0
}

// Aggregate is the grouping operator: stop-and-go in the hash and direct
// modes, a flow in ordered mode, whose Next drives the child and lets each
// group leave once its key changes. With Workers > 1 it is
// morsel-parallel: that many goroutines claim the child's blocks through
// the morsel dispenser (morsels), each folding its morsels into a private
// aggCore, and Open merges the partials into one result — Exchange →
// PartialAgg → MergeAgg collapsed into one operator. The workers share the query's
// memory budget through the (atomic) QueryCtx accountant and one spill
// state. With one worker the same consume loop runs inline on the caller's
// goroutine, with no lock and nothing to merge.
type Aggregate struct {
	OpInstr
	child   Operator
	keyCols []int
	specs   []AggSpec
	mode    AggMode
	chosen  AggMode
	schema  []ColInfo

	// Workers is the number of partial-aggregation workers; the strategic
	// optimizer injects it (Sect. 2.3.1). Values below 2 mean serial.
	Workers int
	// EncodedOff, set by the planner when encoded execution is disabled,
	// keeps dictionary keys off direct mode (the token-direct routine).
	EncodedOff bool

	cores     []*aggCore  // one per worker, while Open consumes and merges
	dkeys     []directKey // the direct modes' key ordinals (nil otherwise)
	runBlocks int         // blocks folded run-at-a-time (for the routine string)

	// The result: em emits the merged core and then whatever the workers
	// evicted to sp — or, in ordered mode, streams the child's groups.
	qc *QueryCtx
	sp *aggSpill
	em *aggEmitter
}

// NewAggregate groups child by keyCols computing specs. mode AggAuto lets
// the tactical optimizer decide from runtime metadata.
func NewAggregate(child Operator, keyCols []int, specs []AggSpec, mode AggMode) *Aggregate {
	a := &Aggregate{child: child, keyCols: keyCols, specs: specs, mode: mode}
	a.schema = aggSchema(child.Schema(), keyCols, specs)
	return a
}

// aggSchema derives the output schema: key columns then one column per
// aggregate.
func aggSchema(in []ColInfo, keyCols []int, specs []AggSpec) []ColInfo {
	var schema []ColInfo
	for _, k := range keyCols {
		key := in[k]
		key.StoredHeap = false // hash mode emits its own heaps' tokens
		schema = append(schema, key)
	}
	for _, s := range specs {
		name := s.Name
		if name == "" {
			if s.Col >= 0 {
				name = fmt.Sprintf("%s(%s)", s.Func, in[s.Col].Name)
			} else {
				name = "COUNT(*)"
			}
		}
		schema = append(schema, ColInfo{Name: name, Type: aggType(s, in)})
	}
	return schema
}

func aggType(s AggSpec, in []ColInfo) types.Type {
	switch s.Func {
	case Count, CountD:
		return types.Integer
	case Avg, Median:
		return types.Real
	case Sum:
		if s.Col >= 0 && in[s.Col].Type == types.Real {
			return types.Real
		}
		return types.Integer
	default: // Min, Max
		return in[s.Col].Type
	}
}

// Schema implements Operator.
func (a *Aggregate) Schema() []ColInfo { return a.schema }

// Mode returns the algorithm actually chosen (valid after Open).
func (a *Aggregate) Mode() AggMode { return a.chosen }

// routine renders the chosen algorithm for OpStats — "hash", or
// "hash(workers=4)" when parallel, "token-direct" for direct mode over one
// dictionary key — upgraded to the rle-* encoded-routine names when any
// input block was folded run-at-a-time (e.g. "rle-sum", or
// "rle-agg+token-direct" when grouped).
func (a *Aggregate) routine() string {
	name := a.chosen.String()
	if a.chosen == AggDirect && len(a.keyCols) == 1 && a.child.Schema()[a.keyCols[0]].Dict != nil {
		name = "token-direct"
	}
	if a.Workers > 1 {
		name = fmt.Sprintf("%s(workers=%d)", name, a.Workers)
	}
	if a.runBlocks == 0 {
		return name
	}
	r := "rle-agg"
	if len(a.specs) == 1 && a.Workers <= 1 {
		r = "rle-" + strings.ToLower(a.specs[0].Func.String())
	}
	if len(a.keyCols) > 0 || a.Workers > 1 {
		r += "+" + name
	}
	return r
}

// OpKind implements Instrumented: the plan label names the regime.
func (a *Aggregate) OpKind() string {
	if a.Workers > 1 {
		return "ParallelAggregate"
	}
	return "Aggregate"
}

// OpChildren implements Instrumented.
func (a *Aggregate) OpChildren() []Operator { return []Operator{a.child} }

// chooseMode is the tactical decision: ordered beats direct beats hash
// when applicable, and it returns the direct modes' key ordinals. The
// direct modes' preconditions — the keys' domains — are schema
// properties and hold for any morsel subset; sortedness does not survive
// the split, so with several workers ordered mode is demoted to hash (the
// strategic planner keeps a sorted single key serial for that reason).
// A direct mode the keys do not support falls back to hash.
func (a *Aggregate) chooseMode(in []ColInfo) (AggMode, []directKey) {
	mode := a.mode
	if mode == AggAuto {
		mode = a.autoMode(in)
	}
	switch mode {
	case AggOrdered:
		if a.Workers > 1 {
			return AggHash, nil
		}
	case AggDirect:
		dks := directKeys(in, a.keyCols, !a.EncodedOff)
		if dks == nil {
			return AggHash, nil
		}
		return mode, dks
	}
	return mode, nil
}

func (a *Aggregate) autoMode(in []ColInfo) AggMode {
	if len(a.keyCols) == 0 {
		return AggHash
	}
	if len(a.keyCols) == 1 {
		k := &in[a.keyCols[0]]
		if k.Meta.SortedKnown && k.Meta.SortedAsc {
			return AggOrdered
		}
	}
	if directKeys(in, a.keyCols, !a.EncodedOff) != nil {
		return AggDirect
	}
	return AggHash
}

// Open implements Operator. The hash and direct modes are stop-and-go, so
// all their grouping happens here — consume (inline or per worker), merge
// the partials, then hand the result to the in-memory or spilled emit
// path. Ordered mode only sets up its core: Next drives the child, which
// stays open until its input ends or Close.
func (a *Aggregate) Open(qc *QueryCtx) (err error) {
	start := a.beginOpen(qc, a.OpKind())
	defer func() {
		a.st.SetRoutine(a.routine())
		a.endOpen(start)
	}()
	a.cleanup() // a re-Open starts over
	a.qc = qc
	a.runBlocks = 0
	defer func() {
		if err != nil {
			a.cleanup()
		}
	}()
	if err := a.child.Open(qc); err != nil {
		return err
	}
	in := a.child.Schema()
	a.chosen, a.dkeys = a.chooseMode(in)
	if a.chosen == AggOrdered {
		core, err := newAggCore(in, a.keyCols, a.specs, AggOrdered, nil, a.st, qc)
		if err != nil {
			a.child.Close()
			return err
		}
		a.em = &aggEmitter{qc: qc, out: a.schema, core: core, in: &childInput{a: a, b: vec.NewBlock(len(in))}}
		return nil
	}
	defer a.child.Close()
	ordCharge := 0
	defer func() { qc.Release(ordCharge) }() // unless the emitted groups took it
	if a.dkeys != nil {
		// The heap keys' ordinal tables live as long as the direct groups,
		// whose keys come from their slots.
		n := ordinalBytes(a.dkeys)
		if err := qc.Charge(a.st.kind, n); err != nil {
			if !errors.Is(err, ErrBudgetExceeded) {
				return err
			}
			a.chosen, a.dkeys = AggHash, nil
		} else {
			ordCharge = n
			bindDirectKeys(a.dkeys)
		}
	}
	if err := a.newCores(qc, in); err != nil {
		return err
	}
	if qc.SpillEnabled() {
		a.sp = newAggSpill(qc, a.st, in, a.keyCols, a.specs)
	}
	if len(a.cores) == 1 {
		err = a.consume(a.cores[0], a.child.Next)
	} else {
		err = a.consumeParallel()
	}
	if err != nil {
		return err
	}
	merged := a.cores[0]
	a.runBlocks = merged.runBlocks
	for i, c := range a.cores[1:] {
		a.runBlocks += c.runBlocks
		if err := merged.mergeFrom(c, qc); err != nil {
			if !spillableErr(qc, err) {
				return err
			}
			// merged already holds this partial's groups (mergeFrom folds
			// before charging): evict the union and carry on merging
			if err := a.sp.evict(merged); err != nil {
				return err
			}
		}
		c.release(qc) // the partial's memory is garbage after the merge
		a.cores[i+1] = nil
	}
	if len(a.keyCols) == 0 && merged.n == 0 && (a.sp == nil || !a.sp.spilled) {
		// No input rows: an aggregate without keys still answers one row,
		// COUNT 0 and every other aggregate NULL.
		merged.findTuple()
	}
	merged.finish()
	a.dkeys = nil
	a.cores = nil // merged's charge is the emitter's from here on
	a.em = &aggEmitter{qc: qc, sp: a.sp, out: a.schema, core: merged}
	if a.sp == nil || !a.sp.spilled {
		if merged.dkeys != nil {
			merged.charged, ordCharge = merged.charged+ordCharge, 0
		}
		return nil
	}
	// Evict what is left too: every group then comes from the fold, which
	// gets the budget the emptied state held.
	if a.em.work, err = a.sp.finishConsume(merged); err != nil {
		return err
	}
	merged.release(qc)
	a.em.core = nil
	return nil
}

// newCores sets up one core per worker in the chosen mode. Every worker
// charges its own direct table, so that up-front cost scales with Workers;
// when the budget denies it the operator falls back to hash mode, which
// allocates nothing up front (and can evict, when the query may spill).
func (a *Aggregate) newCores(qc *QueryCtx, in []ColInfo) error {
	n := a.Workers
	if n < 1 {
		n = 1
	}
	for len(a.cores) < n {
		c, err := newAggCore(in, a.keyCols, a.specs, a.chosen, a.dkeys, a.st, qc)
		if err == nil {
			a.cores = append(a.cores, c)
			continue
		}
		if a.dkeys == nil || !errors.Is(err, ErrBudgetExceeded) {
			return err
		}
		a.releaseCores()
		a.chosen, a.dkeys = AggHash, nil
	}
	return nil
}

// consume folds the blocks pull yields into core until the input ends.
// When a charge is denied and a spill budget is set, the worker degrades
// instead of failing — it evicts core's partial groups to partition files
// — and keeps pulling.
func (a *Aggregate) consume(core *aggCore, pull func(*vec.Block) (bool, error)) error {
	b := vec.NewBlock(len(a.child.Schema()))
	for {
		ok, err := pull(b)
		if err != nil || !ok {
			return err
		}
		if b.N == 0 {
			continue // a morsel the zone maps refuted
		}
		err = core.foldBlock(b)
		if err == nil {
			err = core.chargeGrowth(a.qc, b.N)
		}
		if err != nil {
			if !spillableErr(a.qc, err) {
				return err
			}
			if err := a.sp.evict(core); err != nil {
				return err
			}
		}
	}
}

// consumeParallel runs one consume loop per core, each on its own
// goroutine pulling its own morsel source, and returns the first failure.
// Workers check cancellation once per block like any serial operator;
// after a failure the others stop at their next pull.
func (a *Aggregate) consumeParallel() error {
	var (
		mu       sync.Mutex // guards firstErr
		firstErr error
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		failed.Store(true)
	}
	srcs := morsels(a.child, len(a.cores))
	for i, core := range a.cores {
		src := srcs[i]
		pull := func(b *vec.Block) (bool, error) {
			if failed.Load() {
				return false, nil
			}
			if err := a.qc.Err(); err != nil {
				return false, err
			}
			_, ok, err := src.next(b)
			return ok, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("exec: parallel aggregation worker panicked: %v", r))
				}
			}()
			if err := a.consume(core, pull); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Next implements Operator: emits one block of groups.
func (a *Aggregate) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := a.em.next(b)
	a.endNext(start, b, ok && err == nil)
	return ok, err
}

// finishAcc renders group g's state of aggregate j as the aggregate's
// output bits.
func (c *aggCore) finishAcc(g, j int) uint64 {
	a, s := &c.cols[j], c.specs[j]
	t := types.Integer // COUNT(*) reads no column
	if s.Col >= 0 {
		t = c.in[s.Col].Type
	}
	switch s.Func {
	case Count:
		return uint64(a.cnt[g])
	case CountD:
		if slices.Contains(c.stored, s.Col) {
			return uint64(countClasses(a.wide[g].distinct, c.in[s.Col].Heap))
		}
		return uint64(int64(len(a.wide[g].distinct)))
	case Sum:
		switch {
		case a.cnt[g] == 0:
			return types.NullBits(aggType(s, c.in))
		case a.sumF != nil:
			return types.FromReal(a.sumF[g])
		}
		return uint64(a.sumI[g])
	case Avg:
		switch {
		case a.cnt[g] == 0:
			return types.NullBits(types.Real)
		case a.sumF != nil:
			return types.FromReal(a.sumF[g] / float64(a.cnt[g]))
		}
		return types.FromReal(float64(a.sumI[g]) / float64(a.cnt[g]))
	case Min, Max:
		if !a.seen.has(g) {
			return types.NullBits(t)
		}
		return a.ext[g]
	case Median:
		all := a.wide[g].all
		if len(all) == 0 {
			return types.NullBits(types.Real)
		}
		vals := make([]float64, len(all))
		for i, bits := range all {
			if t == types.Real {
				vals[i] = types.ToReal(bits)
			} else {
				vals[i] = float64(int64(bits))
			}
		}
		sort.Float64s(vals)
		mid := len(vals) / 2
		if len(vals)%2 == 1 {
			return types.FromReal(vals[mid])
		}
		return types.FromReal((vals[mid-1] + vals[mid]) / 2)
	}
	return 0
}

// countClasses counts the collation classes among the distinct tokens of
// h: a stored heap may hold equal elements more than once.
func countClasses(distinct map[uint64]struct{}, h *heap.Heap) int {
	toks := make([]uint64, 0, len(distinct))
	for tok := range distinct {
		toks = append(toks, tok)
	}
	slices.SortFunc(toks, h.Compare)
	n := 0
	for i, tok := range toks {
		if i == 0 || h.Compare(toks[i-1], tok) != 0 {
			n++
		}
	}
	return n
}

// Close implements Operator.
func (a *Aggregate) Close() error {
	a.cleanup()
	return nil
}

// cleanup releases the group state's charges, closes an ordered mode's
// child still streaming, and removes any spill files this operator still
// owns.
func (a *Aggregate) cleanup() {
	a.releaseCores()
	if a.em != nil {
		a.em.close()
		a.em = nil
	}
	if a.sp != nil {
		a.sp.cleanup()
		a.sp = nil
	}
}

// releaseCores returns every live core's charges to the accountant.
func (a *Aggregate) releaseCores() {
	for _, c := range a.cores {
		if c != nil {
			c.release(a.qc)
		}
	}
	a.cores = nil
}
