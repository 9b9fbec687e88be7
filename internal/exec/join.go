package exec

import (
	"fmt"
	"sync"

	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// JoinAlgo identifies the lookup algorithm the tactical optimizer picked
// for a join (Sect. 2.3.4): fetch joins need no lookup structure at all;
// direct lookups index a table over the key envelope (the perfect/direct
// hash cases); chained hashing is the expensive general fallback.
type JoinAlgo uint8

// Join algorithms.
const (
	// JoinAuto defers the choice to Open.
	JoinAuto JoinAlgo = iota
	// JoinFetch computes the inner row id as an affine transformation of
	// the key value: row = (key - base) / delta (Sect. 2.3.5). Fastest.
	JoinFetch
	// JoinDirect indexes an array over the inner key's [min,max] envelope
	// — the direct (<=2 byte) and perfect (3-4 byte) hash cases.
	JoinDirect
	// JoinHash uses a chained hash table with collision detection.
	JoinHash
)

func (a JoinAlgo) String() string {
	return [...]string{"auto", "fetch", "direct", "hash"}[a]
}

// directJoinLimit bounds the envelope array for direct lookups. 2-byte
// keys always fit (64K); wider keys qualify when their envelope happens to
// be small (the constructed perfect hash).
const directJoinLimit = 1 << 24

// HashJoin is a many-to-one (PK/FK) join: each outer row matches at most
// one inner row by key equality. The inner relation is a stop-and-go
// TableSource (Sect. 4.1.2: "The TDE Join operator takes a stop-and-go
// operator as the inner relation"), typically a FlowTable whose extracted
// metadata drives the algorithm choice.
type HashJoin struct {
	OpInstr
	outer    Operator
	inner    TableSource
	outerKey int
	innerKey int
	// LeftOuter keeps unmatched outer rows with NULL inner columns;
	// otherwise they are dropped.
	LeftOuter bool
	// Workers > 1 parallelizes the build (inner key decode + partitioned
	// hash insert) and runs the probe phase as an Exchange over the outer
	// child. Set before Open; 0/1 keeps the serial path.
	Workers int
	// PreserveOrder keeps the parallel probe's output in outer order
	// (order-preserving routing, Sect. 4.3); ignored when Workers <= 1.
	PreserveOrder bool
	algo          JoinAlgo
	chosen        JoinAlgo

	built    *Built
	schema   []ColInfo
	innerCol []uint64 // decoded inner key values
	// payload[c] holds inner column c decoded flat when its encoding has no
	// constant-time Get (a delta block or run list is walked from its start
	// for every probe hit); nil for the columns read in place.
	payload [][]uint64
	// lookup structures
	direct []int32
	dmin   int64
	table  map[uint64][]int32
	// Partitioned hash table (parallel build): shards[joinShard(v)]
	// replaces table when non-nil.
	shards    []map[uint64][]int32
	shardBits uint
	// String keys join by content (tokens from different heaps are not
	// comparable): collation-hashed candidates verified by collated
	// equality, plus the NULL row for Tableau NULL-join semantics.
	stringJoin bool
	strTable   map[uint64][]int32
	strNullRow int32
	coll       types.Collation
	innerHeap  *heap.Heap
	// fetch parameters
	base, delta int64

	buf *vec.Block
	ex  *Exchange // parallel probe (Workers > 1), nil on the serial path
	qc  *QueryCtx

	// charged tracks this operator's accountant charges so Close (and the
	// grace fallback) can return them.
	charged int
	// grace is the spill-to-disk fallback state when the in-memory build
	// exceeded the memory budget (nil on the in-memory path).
	grace *graceJoin
}

// NewHashJoin joins outer to inner on outer column outerKey = inner column
// innerKey. algo JoinAuto lets the tactical optimizer decide.
func NewHashJoin(outer Operator, inner TableSource, outerKey, innerKey int, algo JoinAlgo) *HashJoin {
	return &HashJoin{outer: outer, inner: inner, outerKey: outerKey, innerKey: innerKey, algo: algo}
}

// Schema implements Operator: outer columns followed by inner columns
// (except the inner key, which duplicates the outer key). Before the
// inner side is built, the schema comes from the TableSource's declared
// schema when it has one (FlowTable, a Built itself), so the strategic
// planner can resolve names against the joined shape.
func (j *HashJoin) Schema() []ColInfo {
	if j.schema != nil {
		return j.schema
	}
	out := append([]ColInfo{}, j.outer.Schema()...)
	// Outer columns keep their order metadata (the join preserves outer
	// order), but filtering by an inner join can break density — the very
	// effect Sect. 3.4.2 describes for filtered dimensions.
	if !j.LeftOuter {
		for i := range out {
			out[i].Meta.Dense = false
			out[i].Meta.IsAffine = false
		}
	}
	appendInner := func(info ColInfo) {
		// Inner values are fetched in outer order: sortedness, density,
		// uniqueness and affinity of the dimension column do not survive.
		info.Meta.SortedKnown = false
		info.Meta.IsAffine = false
		info.Meta.Dense = false
		info.Meta.Unique = false
		if j.LeftOuter {
			info.Meta.NullsKnown = false
		}
		out = append(out, info)
	}
	switch {
	case j.built != nil:
		for i := range j.built.Cols {
			if i != j.innerKey {
				appendInner(j.built.Cols[i].Info)
			}
		}
	default:
		if ss, ok := j.inner.(SchemaSource); ok {
			for i, info := range ss.Schema() {
				if i != j.innerKey {
					appendInner(info)
				}
			}
		}
	}
	return out
}

// Algo returns the algorithm actually chosen (valid after Open).
func (j *HashJoin) Algo() JoinAlgo { return j.chosen }

// OpKind implements Instrumented.
func (j *HashJoin) OpKind() string { return "HashJoin" }

// OpChildren implements Instrumented: the outer probe side, then the
// inner table source when it is itself a plan operator (FlowTable).
func (j *HashJoin) OpChildren() []Operator {
	out := []Operator{j.outer}
	if op, ok := j.inner.(Operator); ok {
		out = append(out, op)
	}
	return out
}

// charge routes a charge through the accountant and tracks it for
// release on Close.
func (j *HashJoin) charge(qc *QueryCtx, n int) error {
	if err := qc.Charge("HashJoin", n); err != nil {
		return err
	}
	j.charged += n
	return nil
}

// releaseBuild drops the lookup structures and returns their charges —
// the first step of degrading to a grace join.
func (j *HashJoin) releaseBuild(qc *QueryCtx) {
	j.direct = nil
	j.table = nil
	j.shards = nil
	j.strTable = nil
	j.innerCol = nil
	j.payload = nil
	qc.Release(j.charged)
	j.charged = 0
}

// spillInnerSource returns an operator that re-streams the inner rows
// for grace partitioning, or nil when the inner side cannot be
// re-streamed.
func (j *HashJoin) spillInnerSource() Operator {
	if j.built != nil {
		return NewBuiltScan(j.built)
	}
	if ss, ok := j.inner.(SpillSource); ok {
		return ss.SpillChild()
	}
	return nil
}

// Open implements Operator: materializes the inner side and builds the
// lookup structure the metadata admits. When a charge is denied and a
// spill budget is set, the join degrades to a grace hash join over
// partitioned spill files instead of failing.
func (j *HashJoin) Open(qc *QueryCtx) error {
	start := j.beginOpen(qc, "HashJoin")
	defer func() {
		if j.grace != nil {
			j.st.SetRoutine("grace")
		} else {
			j.st.SetRoutine(j.chosen.String())
		}
		j.endOpen(start)
	}()
	j.qc = qc
	err := j.openBuilt(qc)
	if err == nil || !spillableErr(qc, err) {
		return err
	}
	src := j.spillInnerSource()
	if src == nil {
		return err
	}
	j.releaseBuild(qc)
	return j.openGrace(qc, src)
}

// openBuilt is the in-memory build path.
func (j *HashJoin) openBuilt(qc *QueryCtx) error {
	bt, err := j.inner.BuildTable(qc)
	if err != nil {
		return err
	}
	j.built = bt
	j.schema = nil
	j.schema = j.Schema()
	j.buf = vec.NewBlock(len(j.outer.Schema()))
	j.payload = make([][]uint64, len(bt.Cols))
	for c := range bt.Cols {
		if k := bt.Cols[c].Data.Kind(); c != j.innerKey && (k == enc.Delta || k == enc.RunLength) {
			if j.payload[c], err = j.decodeColumn(qc, &bt.Cols[c]); err != nil {
				return err
			}
		}
	}

	key := &bt.Cols[j.innerKey]
	if key.Info.Type == types.String {
		return j.openStringJoin(qc, key)
	}
	md := key.Info.Meta
	j.chosen = j.algo
	if j.chosen == JoinAuto {
		switch {
		case md.IsAffine && md.AffineDelta != 0:
			// Dense/unique (or any exact affine) inner key: fetch join.
			j.chosen = JoinFetch
		case md.HasRange && md.RangeExact && !md.HasNulls &&
			md.Max-md.Min >= 0 && md.Max-md.Min < directJoinLimit:
			j.chosen = JoinDirect
		default:
			j.chosen = JoinHash
		}
	}

	switch j.chosen {
	case JoinFetch:
		j.base, j.delta = md.AffineBase, md.AffineDelta
		if j.delta == 0 {
			return fmt.Errorf("exec: fetch join requires nonzero affine delta")
		}
	case JoinDirect:
		j.dmin = md.Min
		if err := j.charge(qc, int(md.Max-md.Min+1)*4); err != nil {
			return err
		}
		j.direct = make([]int32, md.Max-md.Min+1)
		for i := range j.direct {
			j.direct[i] = -1
		}
		if j.innerCol, err = j.decodeColumn(qc, key); err != nil {
			return err
		}
		for r, v := range j.innerCol {
			idx := int64(v) - j.dmin
			if idx < 0 || idx >= int64(len(j.direct)) {
				return fmt.Errorf("exec: join key %d outside direct envelope (corrupt column metadata?)", int64(v))
			}
			j.direct[idx] = int32(r)
		}
	case JoinHash:
		if j.innerCol, err = j.decodeColumn(qc, key); err != nil {
			return err
		}
		// Chained hash table: ~2 words per entry on top of the key vector.
		if err := j.charge(qc, len(j.innerCol)*16); err != nil {
			return err
		}
		if err := j.buildHashTable(); err != nil {
			return err
		}
	}
	return j.openOuter(qc)
}

// parallelBuildMin is the inner cardinality below which a partitioned
// parallel build costs more than it saves.
const parallelBuildMin = 1 << 15

// buildHashTable inserts the decoded inner keys: serially into one
// chained table, or — with enough workers and rows — as a two-phase
// partitioned build: phase 1 range-splits the rows and buckets them by
// key shard per worker; phase 2 merges each shard's buckets in worker
// (= ascending row) order, so duplicate keys keep the same first-match
// winner the serial insert produces.
func (j *HashJoin) buildHashTable() error {
	n := len(j.innerCol)
	p := shardCount(j.Workers)
	if p < 2 || n < parallelBuildMin {
		j.table = make(map[uint64][]int32)
		for r, v := range j.innerCol {
			j.table[v] = append(j.table[v], int32(r))
		}
		return nil
	}
	j.shardBits = uint(0)
	for 1<<j.shardBits < p {
		j.shardBits++
	}
	buckets := make([][][]int32, p) // [worker][shard][]rows
	if err := parallelRanges(p, n, func(w, lo, hi int) {
		local := make([][]int32, p)
		for r := lo; r < hi; r++ {
			s := joinShard(j.innerCol[r], j.shardBits)
			local[s] = append(local[s], int32(r))
		}
		buckets[w] = local
	}); err != nil {
		return err
	}
	j.shards = make([]map[uint64][]int32, p)
	return parallelRanges(p, p, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			m := make(map[uint64][]int32)
			for w := 0; w < p; w++ {
				for _, r := range buckets[w][s] {
					v := j.innerCol[r]
					m[v] = append(m[v], r)
				}
			}
			j.shards[s] = m
		}
	})
}

// shardCount rounds workers down to a power of two, capped at 8.
func shardCount(workers int) int {
	p := 1
	for p*2 <= workers && p < 8 {
		p *= 2
	}
	return p
}

// joinShard maps a key to its partition by multiplicative hashing.
func joinShard(v uint64, bits uint) uint64 {
	return (v * 0x9E3779B97F4A7C15) >> (64 - bits)
}

// parallelRanges runs fn over p contiguous ranges of [0,n) concurrently,
// containing panics (goroutines here escape the engine's single-threaded
// panic boundary).
func parallelRanges(p, n int, fn func(w, lo, hi int)) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	per := (n + p - 1) / p
	for w := 0; w < p; w++ {
		lo := w * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("exec: parallel join build panicked: %v", r)
					}
					mu.Unlock()
				}
			}()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return firstErr
}

// openOuter opens the probe side: serially, or wrapped in an Exchange
// whose workers run joinBlock (read-only over the built state) per block.
func (j *HashJoin) openOuter(qc *QueryCtx) error {
	if j.Workers > 1 {
		newChain := func() []BlockTransform {
			return []BlockTransform{probeTransform{j}}
		}
		j.ex = NewExchange(j.outer, newChain, j.Workers, j.PreserveOrder, j.schema)
		return j.ex.Open(qc)
	}
	return j.outer.Open(qc)
}

// probeTransform adapts the probe phase to the Exchange worker interface;
// joinBlock only reads the lookup structures built in Open, so workers
// share one HashJoin.
type probeTransform struct{ j *HashJoin }

func (p probeTransform) Transform(in, out *vec.Block) int {
	return p.j.joinBlock(in, out)
}

// openStringJoin builds the content-based lookup for string join keys.
// Same-heap fast paths are possible when both sides share one heap, but
// content hashing is always correct and collation-aware.
func (j *HashJoin) openStringJoin(qc *QueryCtx, key *BuiltColumn) error {
	j.stringJoin = true
	j.chosen = JoinHash
	j.coll = key.Info.Collation
	if key.Info.Heap != nil {
		j.coll = key.Info.Heap.Collation()
	}
	j.strTable = make(map[uint64][]int32)
	j.table = make(map[uint64][]int32) // token-keyed fast path (same heap)
	j.strNullRow = -1
	j.innerHeap = key.Info.Heap
	var err error
	if j.innerCol, err = j.decodeColumn(qc, key); err != nil {
		return err
	}
	// Two hash tables (token and content keyed), ~2 words per entry each.
	if err := j.charge(qc, len(j.innerCol)*32); err != nil {
		return err
	}
	for r, tok := range j.innerCol {
		if tok == types.NullToken {
			// Tableau NULL join semantics: NULL matches NULL.
			j.strNullRow = int32(r)
			continue
		}
		j.table[tok] = append(j.table[tok], int32(r))
		s := key.Info.Heap.Get(tok)
		h := j.coll.Hash(s)
		j.strTable[h] = append(j.strTable[h], int32(r))
	}
	return j.openOuter(qc)
}

// probeString resolves an outer token through its (block) heap and looks
// up the matching inner row by content.
func (j *HashJoin) probeString(tok uint64, h *heap.Heap) int {
	if tok == types.NullToken {
		return int(j.strNullRow)
	}
	if h != nil && h == j.innerHeap {
		// Invisible-join fast path: both sides share a heap with distinct
		// tokens, so token equality is string equality (Sect. 4.1).
		for _, r := range j.table[tok] {
			if j.innerCol[r] == tok {
				return int(r)
			}
		}
		return -1
	}
	s := h.Get(tok)
	key := &j.built.Cols[j.innerKey]
	for _, r := range j.strTable[j.coll.Hash(s)] {
		if j.coll.Equal(key.Info.Heap.Get(j.innerCol[r]), s) {
			return int(r)
		}
	}
	return -1
}

// decodeColumn decodes one built column into a flat array of resolved
// values, charged to the query until releaseBuild or Close.
func (j *HashJoin) decodeColumn(qc *QueryCtx, col *BuiltColumn) ([]uint64, error) {
	n := col.Data.Len()
	if err := j.charge(qc, n*8); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	w := col.Data.Width()
	p := shardCount(j.Workers)
	if n < parallelBuildMin {
		p = 1
	}
	// enc.Reader caches decode state, so each range decodes through its
	// own; Stream itself is stateless and shared.
	return out, parallelRanges(p, n, func(_, lo, hi int) {
		r := enc.NewReader(col.Data)
		r.Read(lo, hi-lo, out[lo:hi])
		for i := lo; i < hi; i++ {
			out[i] = resolveRaw(out[i], w, col.Info)
		}
	})
}

// Next implements Operator.
func (j *HashJoin) Next(b *vec.Block) (bool, error) {
	start := nowNanos()
	ok, err := j.nextBlock(b)
	j.endNext(start, b, ok && err == nil)
	return ok, err
}

func (j *HashJoin) nextBlock(b *vec.Block) (bool, error) {
	if j.grace != nil {
		return j.grace.next(b)
	}
	if j.ex != nil {
		return j.ex.Next(b)
	}
	for {
		ok, err := j.outer.Next(j.buf)
		if err != nil || !ok {
			return false, err
		}
		if n := j.joinBlock(j.buf, b); n > 0 {
			return true, nil
		}
	}
}

func (j *HashJoin) joinBlock(in, out *vec.Block) int {
	in.Materialize() // late-decode boundary: the probe is row-at-a-time
	nOuter := len(in.Vecs)
	ensureVecs(out, len(j.schema))
	keyVec := &in.Vecs[j.outerKey]
	keys := keyVec.Data
	k := 0
	for i := 0; i < in.N; i++ {
		var row int
		if j.stringJoin {
			row = j.probeString(keys[i], keyVec.Heap)
		} else {
			row = j.probe(keys[i])
		}
		if row < 0 && !j.LeftOuter {
			continue
		}
		for c := 0; c < nOuter; c++ {
			out.Vecs[c].Data[k] = in.Vecs[c].Data[i]
		}
		oc := nOuter
		for c := range j.built.Cols {
			if c == j.innerKey {
				continue
			}
			switch {
			case row < 0:
				out.Vecs[oc].Data[k] = types.NullBits(j.built.Cols[c].Info.Type)
			case j.payload[c] != nil:
				out.Vecs[oc].Data[k] = j.payload[c][row]
			default:
				out.Vecs[oc].Data[k] = j.built.Value(c, row)
			}
			oc++
		}
		k++
	}
	for c := 0; c < nOuter; c++ {
		out.Vecs[c].Type = in.Vecs[c].Type
		out.Vecs[c].Heap = in.Vecs[c].Heap
		out.Vecs[c].Dict = in.Vecs[c].Dict
	}
	oc := nOuter
	for c := range j.built.Cols {
		if c == j.innerKey {
			continue
		}
		info := j.built.Cols[c].Info
		out.Vecs[oc].Type = info.Type
		out.Vecs[oc].Heap = info.Heap
		out.Vecs[oc].Dict = info.Dict
		oc++
	}
	out.N = k
	return k
}

// probe returns the matching inner row, or -1.
func (j *HashJoin) probe(key uint64) int {
	switch j.chosen {
	case JoinFetch:
		// No intermediate lookup table at all (Sect. 2.3.5).
		off := int64(key) - j.base
		if off%j.delta != 0 {
			return -1
		}
		row := off / j.delta
		if row < 0 || row >= int64(j.built.Rows) {
			return -1
		}
		return int(row)
	case JoinDirect:
		idx := int64(key) - j.dmin
		if idx < 0 || idx >= int64(len(j.direct)) {
			return -1
		}
		return int(j.direct[idx])
	default:
		m := j.table
		if j.shards != nil {
			m = j.shards[joinShard(key, j.shardBits)]
		}
		for _, r := range m[key] {
			if j.innerCol[r] == key {
				return int(r)
			}
		}
		return -1
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.direct = nil
	j.table = nil
	j.shards = nil
	j.strTable = nil
	j.innerCol = nil
	j.payload = nil
	j.qc.Release(j.charged)
	j.charged = 0
	// The inner table source holds materialized (and charged) state that
	// nothing else owns once the join is done.
	if c, ok := j.inner.(interface{ Close() error }); ok {
		_ = c.Close()
	}
	if j.grace != nil {
		g := j.grace
		j.grace = nil
		g.cleanup()
		return nil // grace closed the outer child after partitioning it
	}
	if j.ex != nil {
		ex := j.ex
		j.ex = nil
		return ex.Close() // closes the outer child
	}
	return j.outer.Close()
}

// InvisibleJoinResolve is a convenience used by tests: given a token block
// column and a dictionary table, resolve tokens to values.
func InvisibleJoinResolve(tokens []uint64, dict []uint64) []uint64 {
	out := make([]uint64, len(tokens))
	for i, t := range tokens {
		if t == types.NullToken {
			out[i] = types.NullToken
			continue
		}
		out[i] = dict[t]
	}
	return out
}
