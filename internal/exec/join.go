package exec

import (
	"fmt"

	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// JoinAlgo identifies the lookup algorithm the tactical optimizer picked
// for a join (Sect. 2.3.4): fetch joins need no lookup structure at all;
// direct lookups index an array over the key envelope; the collision-
// checked hash index is the general fallback.
type JoinAlgo uint8

// Join algorithms.
const (
	// JoinAuto defers the choice to Open.
	JoinAuto JoinAlgo = iota
	// JoinFetch computes the inner row id as an affine transformation of
	// the key value: row = (key - base) / delta (Sect. 2.3.5). Fastest.
	JoinFetch
	// JoinDirect indexes an array over the inner key's exact [min,max]
	// envelope when that is narrower than directJoinLimit.
	JoinDirect
	// JoinHash finds the row through an open-addressing index verified
	// against the key column.
	JoinHash
)

func (a JoinAlgo) String() string {
	return [...]string{"auto", "fetch", "direct", "hash"}[a]
}

// directJoinLimit bounds the envelope array for direct lookups.
const directJoinLimit = 1 << 24

// HashJoin is a many-to-one (PK/FK) join: each outer row matches at most
// one inner row by key equality. The inner relation is a stop-and-go
// TableSource (Sect. 4.1.2: "The TDE Join operator takes a stop-and-go
// operator as the inner relation"): a clean dimension's table Scan, read
// in place with its stored metadata and heaps, or a FlowTable whose
// extracted metadata drives the algorithm choice.
//
// When the inner side holds several rows with one key, the first of them
// in inner order is the match — under every algorithm, in memory and
// spilled alike, and for the NULL string key (which matches NULL, Tableau
// semantics) as well.
//
// The probe is a flow stage: under a parallel consumer (Aggregate's or
// Exchange's workers) each worker probes the blocks it claims against
// the shared resident inner (morsels, joinProbe). A join that went grace
// probes partition by partition and is pulled serially.
type HashJoin struct {
	OpInstr
	outer    Operator
	inner    TableSource
	outerKey int
	innerKey int
	// LeftOuter keeps unmatched outer rows with NULL inner columns;
	// otherwise they are dropped.
	LeftOuter bool
	algo      JoinAlgo
	chosen    JoinAlgo

	built  *Built
	schema []ColInfo
	// part is the resident inner: the whole Built in memory, the loaded
	// partition under the grace join (nil between partitions and while a
	// partition is joined by block-nested-loop).
	part *joinPart
	sc   joinScratch // the serial probe's
	buf  *vec.Block
	qc   *QueryCtx
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
// schema (a clean table Scan, a FlowTable, a Built itself), so the
// strategic planner can resolve names against the joined shape.
func (j *HashJoin) Schema() []ColInfo {
	if j.schema != nil {
		return j.schema
	}
	out := append([]ColInfo{}, j.outer.Schema()...)
	// A grace join spills the outer key as a string; every other outer
	// column, and every inner one read in place, comes back on its stored
	// heap.
	out[j.outerKey].StoredHeap = false
	// Outer columns keep their order metadata (the join preserves outer
	// order), but filtering by an inner join can break density — the very
	// effect Sect. 3.4.2 describes for filtered dimensions.
	if !j.LeftOuter {
		for i := range out {
			out[i].Meta.Dense = false
			out[i].Meta.IsAffine = false
		}
	}
	inner := j.inner.Schema()
	if j.built != nil {
		inner = j.built.Schema()
	}
	for i, info := range inner {
		if i == j.innerKey {
			continue
		}
		// Inner values are fetched in outer order: sortedness, density,
		// uniqueness and affinity of the dimension column do not survive.
		info.Meta.SortedKnown, info.Meta.IsAffine = false, false
		info.Meta.Dense, info.Meta.Unique = false, false
		info.Meta.NullsKnown = info.Meta.NullsKnown && !j.LeftOuter
		info.StoredHeap = info.StoredHeap && j.inPlace()
		out = append(out, info)
	}
	return out
}

// inPlace reports whether the inner's heaps are known before Open: a
// FlowTable re-homes its strings into heaps it makes when it builds.
func (j *HashJoin) inPlace() bool {
	_, ft := j.inner.(*FlowTable)
	return !ft
}

// Algo returns the algorithm actually chosen (valid after Open).
func (j *HashJoin) Algo() JoinAlgo { return j.chosen }

// OpKind implements Instrumented.
func (j *HashJoin) OpKind() string { return "HashJoin" }

// OpChildren implements Instrumented: the outer probe side, then the
// inner table source when it is itself a plan operator (a Scan read in
// place, or a FlowTable).
func (j *HashJoin) OpChildren() []Operator {
	out := []Operator{j.outer}
	if op, ok := j.inner.(Operator); ok {
		out = append(out, op)
	}
	return out
}

// spillInnerSource returns an operator that re-streams the inner rows
// for grace partitioning, or nil when the inner side cannot be
// re-streamed.
func (j *HashJoin) spillInnerSource() Operator {
	if j.built != nil {
		return NewBuiltScan(j.built)
	}
	if ft, ok := j.inner.(*FlowTable); ok {
		return ft.child // its build failed: re-stream its input
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
	j.releasePart()
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
	if err := j.indexBuilt(qc); err != nil {
		return err
	}
	return j.outer.Open(qc)
}

// indexBuilt makes the Built the resident inner: the algorithm its key
// metadata admits (Sect. 2.3.5: an affine key is fetched, an exact narrow
// envelope indexed directly, anything else hashed), the lookup structure
// that algorithm needs, and a flat copy of every payload column, decoded
// once, so a probe hit is one array read whatever the encoding (a delta
// block or run list would otherwise be walked from its start per hit).
func (j *HashJoin) indexBuilt(qc *QueryCtx) error {
	bt := j.built
	p := &joinPart{info: bt.Schema(), cols: make([][]uint64, len(bt.Cols)),
		rows: bt.Rows, key: j.innerKey, nullRow: -1}
	j.part = p
	for c := range bt.Cols {
		if c != p.key {
			if err := p.decode(qc, bt, c); err != nil {
				return err
			}
		}
	}
	key := p.info[p.key]
	md := key.Meta
	p.algo = j.algo
	switch {
	case key.Type == types.String:
		// String keys join by content: tokens from different heaps are not
		// comparable.
		p.algo, p.keyStr, p.coll = JoinHash, true, collationOf(key)
	case key.Dict != nil:
		// Dictionary keys join by value (decode resolves them); the
		// metadata describes the tokens.
		p.algo = JoinHash
	case p.algo != JoinAuto:
	case md.IsAffine && md.AffineDelta != 0:
		p.algo = JoinFetch
	case md.HasRange && md.RangeExact && !md.HasNulls &&
		md.Max-md.Min >= 0 && md.Max-md.Min < directJoinLimit:
		p.algo = JoinDirect
	default:
		p.algo = JoinHash
	}
	j.chosen = p.algo

	if p.algo == JoinFetch {
		p.base, p.delta = md.AffineBase, md.AffineDelta
		if p.delta == 0 {
			return fmt.Errorf("exec: fetch join requires nonzero affine delta")
		}
		return nil
	}
	if err := p.decode(qc, bt, p.key); err != nil {
		return err
	}
	if p.algo == JoinHash {
		return p.buildHashIndex(qc)
	}
	p.dmin = md.Min
	if err := p.charge(qc, int(md.Max-md.Min+1)*4); err != nil {
		return err
	}
	p.index = make([]int32, md.Max-md.Min+1)
	for r, v := range p.cols[p.key] {
		idx := int64(v) - p.dmin
		if idx < 0 || idx >= int64(len(p.index)) {
			return fmt.Errorf("exec: join key %d outside direct envelope (corrupt column metadata?)", int64(v))
		}
		if p.index[idx] == 0 {
			p.index[idx] = int32(r + 1)
		}
	}
	// The envelope index answers every probe on its own; the flat key
	// column was only its input.
	n := len(p.cols[p.key]) * 8
	p.cols[p.key] = nil
	p.charged -= n
	qc.Release(n)
	return nil
}

// joinPart is one resident inner relation with the one way to look a key
// up in it (probe) — the whole Built on the in-memory path, one loaded
// partition under the grace join, and the matched rows of one outer block
// under block-nested-loop (which only gathers from it).
type joinPart struct {
	// info describes the columns; a string column's Heap is the heap the
	// part's tokens point into.
	info []ColInfo
	// cols[c] is column c as flat full-width values; the key's is nil
	// where the lookup needs no key column (fetch, direct).
	cols [][]uint64
	rows int
	key  int // the inner key column

	algo        JoinAlgo
	base, delta int64 // JoinFetch: row = (key - base) / delta
	dmin        int64 // JoinDirect: row = index[key - dmin]
	// index is the one key index: a key's first row +1, 0 = empty.
	// JoinDirect addresses it by envelope offset; JoinHash by open
	// addressing (at most half full, linear probing from the top bits of
	// the hashed scalar key or collation hash), each hit verified against
	// the flat key column.
	index   []int32
	shift   uint
	keyStr  bool
	coll    types.Collation
	nullRow int32 // first row with the NULL string key, or -1

	charged int
}

// charge routes a charge through the accountant and tracks it for release.
func (p *joinPart) charge(qc *QueryCtx, n int) error {
	if err := qc.Charge("HashJoin", n); err != nil {
		return err
	}
	p.charged += n
	return nil
}

// releasePart drops the resident inner and returns its charges.
func (j *HashJoin) releasePart() {
	if j.part != nil {
		j.qc.Release(j.part.charged)
		j.part, j.sc.memoPart = nil, nil
	}
}

// decode flattens column c of bt into full-width values; the key
// column's dictionary tokens are resolved, since joins compare values.
func (p *joinPart) decode(qc *QueryCtx, bt *Built, c int) error {
	col := &bt.Cols[c]
	n := col.Data.Len()
	if err := p.charge(qc, n*8); err != nil {
		return err
	}
	out := make([]uint64, n)
	enc.NewReader(col.Data).Read(0, n, out)
	widenInPlace(out, col.Data.Width(), &col.Info)
	if c == p.key && col.Info.Dict != nil {
		v := vec.Vector{Type: col.Info.Type, Data: out, Dict: col.Info.Dict}
		for i := range out {
			out[i] = v.Value(i)
		}
	}
	p.cols[c] = out
	return nil
}

// buildHashIndex indexes the flat key column, charging the slots it
// allocates. Rows go in in order and a key already present keeps its
// first row.
func (p *joinPart) buildHashIndex(qc *QueryCtx) error {
	n := 8
	p.shift = 64 - 3
	for n < 2*p.rows {
		n *= 2
		p.shift--
	}
	if err := p.charge(qc, n*4); err != nil {
		return err
	}
	p.index = make([]int32, n)
	kh := p.info[p.key].Heap
	for r, v := range p.cols[p.key] {
		if p.keyStr && v == types.NullToken {
			if p.nullRow < 0 {
				p.nullRow = int32(r)
			}
			continue
		}
		if slot, row := p.find(v, kh); row < 0 {
			p.index[slot] = int32(r + 1)
		}
	}
	return nil
}

// find walks key's probe sequence to its first row, or to the empty slot
// ending the sequence (row -1). h resolves a string key's token.
func (p *joinPart) find(key uint64, h *heap.Heap) (slot uint64, row int) {
	keys := p.cols[p.key]
	kh := p.info[p.key].Heap
	hash := key
	var s string
	if p.keyStr {
		s = h.Get(key)
		hash = p.coll.Hash(s)
	}
	mask := uint64(len(p.index) - 1)
	for i := (hash * 0x9E3779B97F4A7C15) >> p.shift; ; i = (i + 1) & mask {
		r := int(p.index[i]) - 1
		if r < 0 {
			return i, -1
		}
		eq := keys[r] == key
		if p.keyStr {
			eq = p.coll.Equal(kh.Get(keys[r]), s)
		}
		if eq {
			return i, r
		}
	}
}

// probe returns the first inner row matching key, or -1.
func (p *joinPart) probe(key uint64, h *heap.Heap) int {
	switch p.algo {
	case JoinFetch:
		// No intermediate lookup table at all (Sect. 2.3.5).
		off := int64(key) - p.base
		if off%p.delta != 0 {
			return -1
		}
		row := off / p.delta
		if row < 0 || row >= int64(p.rows) {
			return -1
		}
		return int(row)
	case JoinDirect:
		idx := int64(key) - p.dmin
		if idx < 0 || idx >= int64(len(p.index)) {
			return -1
		}
		return int(p.index[idx]) - 1
	}
	if p.keyStr && key == types.NullToken {
		return int(p.nullRow) // Tableau NULL join semantics: NULL matches NULL
	}
	_, row := p.find(key, h)
	return row
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
	for {
		ok, err := j.outer.Next(j.buf)
		if err != nil || !ok {
			return false, err
		}
		if n := j.joinBlock(j.part, j.buf, b, &j.sc); n > 0 {
			return true, nil
		}
	}
}

// joinScratch is one prober's state. match[i] is outer row i's inner row
// (or -1) going into emit, which compacts it beside sel, the outer rows
// kept. keys holds a dictionary key's values. memo remembers
// the rows found for string tokens of one outer heap in one part: a key
// column repeats few tokens many times, and a token seen before needs no
// string hash and compare (token +1, 0 = empty).
type joinScratch struct {
	match, sel [vec.BlockSize]int32
	keys       [vec.BlockSize]uint64
	memoPart   *joinPart
	memoHeap   *heap.Heap
	memoTok    [1 << joinMemoBits]uint64
	memoRow    [1 << joinMemoBits]int32
}

const joinMemoBits = 10

// joinBlock probes one outer block against p and assembles the joined
// rows: a join is probe -> inner row position, then a gather.
func (j *HashJoin) joinBlock(p *joinPart, in, out *vec.Block, sc *joinScratch) int {
	in.Materialize() // late-decode boundary: the probe is row-at-a-time
	kv := &in.Vecs[j.outerKey]
	if p.keyStr && (sc.memoPart != p || sc.memoHeap != kv.Heap) {
		sc.memoPart, sc.memoHeap, sc.memoTok = p, kv.Heap, [1 << joinMemoBits]uint64{}
	}
	keys := kv.Data[:in.N]
	if kv.Dict != nil {
		for i := range keys {
			sc.keys[i] = kv.Value(i)
		}
		keys = sc.keys[:in.N]
	}
	for i, key := range keys {
		if !p.keyStr || key == types.NullToken {
			sc.match[i] = int32(p.probe(key, kv.Heap))
			continue
		}
		m := (key * 0x9E3779B97F4A7C15) >> (64 - joinMemoBits)
		if sc.memoTok[m] != key+1 {
			sc.memoTok[m], sc.memoRow[m] = key+1, int32(p.probe(key, kv.Heap))
		}
		sc.match[i] = sc.memoRow[m]
	}
	return j.emit(p, in, out, sc)
}

// emit is the one row-assembly loop: the outer rows with a match in
// sc.match (all of them under LeftOuter) followed by their row of p, or
// NULLs.
func (j *HashJoin) emit(p *joinPart, in, out *vec.Block, sc *joinScratch) int {
	ensureVecs(out, len(j.schema))
	k := 0
	for i, row := range sc.match[:in.N] {
		if row >= 0 || j.LeftOuter {
			sc.sel[k], sc.match[k] = int32(i), row
			k++
		}
	}
	for c := range in.Vecs {
		src, dst := &in.Vecs[c], &out.Vecs[c]
		dst.Type, dst.Heap, dst.Dict = src.Type, src.Heap, src.Dict
		for t, i := range sc.sel[:k] {
			dst.Data[t] = src.Data[i]
		}
	}
	oc := len(in.Vecs)
	for c := range p.info {
		if c == p.key {
			continue
		}
		info, dst, flat := &p.info[c], &out.Vecs[oc], p.cols[c]
		oc++
		dst.Type, dst.Heap, dst.Dict = info.Type, info.Heap, info.Dict
		null := types.NullBits(info.Type)
		for t, row := range sc.match[:k] {
			dst.Data[t] = null
			if row >= 0 {
				dst.Data[t] = flat[row]
			}
		}
	}
	out.N = k
	return k
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.releasePart()
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
	return j.outer.Close()
}
