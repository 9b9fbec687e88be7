package exec

import (
	"io"

	"tde/internal/heap"
	"tde/internal/spill"
	"tde/internal/types"
	"tde/internal/vec"
)

// gracePart is one unit of probe work: the spill files holding one hash
// bucket of both sides. route records the bucket chosen at each depth so
// the multi-pass mode (outer side never spilled) can re-filter the outer
// stream; it is empty for the diskFull single-partition ladder rung.
type gracePart struct {
	depth int
	route []int
	inner []string
	outer []string // nil in multi-pass mode
}

// graceJoin is the spilling fallback of HashJoin: both sides are
// partitioned by a content hash of the join key into compressed spill
// files, and each partition is joined independently — loaded, the inner
// partition is a joinPart like the in-memory inner, and fits where the
// whole table did not. Partitions that still do not fit are
// re-partitioned with a deeper hash salt, and at spillMaxDepth the probe
// degrades to a block-nested-loop over the partition files, which needs
// only one chunk of memory per side.
//
// ENOSPC ladder: if spilling the outer side fails, the outer is
// re-streamed from its child once per partition (multi-pass); if
// spilling the inner side fails, it is spooled serially to a single
// file probed by block-nested-loop. Disk faults inside those fallbacks
// surface as typed errors.
type graceJoin struct {
	j     *HashJoin
	qc    *QueryCtx
	mgr   *spill.Manager
	stats *OpSpillStats

	innerInfo  []ColInfo
	innerSpecs []spill.ColSpec
	outerInfo  []ColInfo
	outerSpecs []spill.ColSpec
	keyStr     bool
	coll       types.Collation

	multiPass bool
	diskFull  bool

	work []gracePart

	// active partition state; its inner side, loaded, is j.part — nil
	// while the partition is joined by block-nested-loop
	cur  gracePart
	osrc *graceOuterSrc
	obuf *vec.Block
}

// openGrace partitions both sides and leaves the probe to Next.
func (j *HashJoin) openGrace(qc *QueryCtx, src Operator) error {
	g := &graceJoin{j: j, qc: qc, mgr: qc.SpillManager(), stats: &j.opStats().Spill}
	g.stats.AddSpill()
	j.grace = g
	j.chosen = JoinHash
	g.outerInfo = j.outer.Schema()
	g.innerInfo = src.Schema()
	g.outerSpecs, g.innerSpecs = spillSpecs(g.outerInfo), spillSpecs(g.innerInfo)
	// Stored tokens outlive the query: spill them as they are, so the
	// partitions' rows come back on the stored heap (a FlowTable inner's
	// heaps are not stored: its strings are re-homed). A key is spilled
	// as a string: repartitioning hashes it.
	for c, info := range g.outerInfo {
		if info.StoredHeap && c != j.outerKey {
			g.outerSpecs[c] = spill.ColSpec{Sentinel: types.NullToken}
		}
	}
	for c, info := range g.innerInfo {
		if info.StoredHeap && c != j.innerKey && j.inPlace() {
			g.innerSpecs[c] = spill.ColSpec{Sentinel: types.NullToken}
		}
	}
	// Keys are partitioned and spilled as values: two dictionaries'
	// tokens are not comparable.
	g.outerSpecs[j.outerKey] = valueSpec(g.outerInfo[j.outerKey])
	g.innerSpecs[j.innerKey] = valueSpec(g.innerInfo[j.innerKey])
	ki := g.innerInfo[j.innerKey]
	g.keyStr = ki.Type == types.String
	g.coll = collationOf(ki)

	// Grace output is partition-ordered, not outer-ordered: strip the
	// outer columns' order metadata from the schema.
	j.schema = nil
	sch := append([]ColInfo{}, j.Schema()...)
	for i := range g.outerInfo {
		m := &sch[i].Meta
		m.SortedKnown = false
		m.IsAffine = false
		m.Dense = false
		m.Unique = false
	}
	j.schema = sch
	g.obuf = vec.NewBlock(len(g.outerInfo))

	// Phase 1: partition the inner side.
	innerPaths, err := g.partitionStream(src, g.innerSpecs, j.innerKey, spillFanout)
	if err != nil {
		if !diskErr(err) {
			return err
		}
		// Rung: no room to partition — spool the inner serially to one
		// file, probed by block-nested-loop with the outer re-streamed.
		g.diskFull = true
		g.multiPass = true
		single, serr := g.partitionStream(src, g.innerSpecs, j.innerKey, 1)
		if serr != nil {
			return serr
		}
		p := gracePart{depth: spillMaxDepth}
		if single[0] != "" {
			p.inner = single
		}
		g.work = []gracePart{p}
		return nil
	}

	// Phase 2: partition the outer side.
	outerPaths, oerr := g.partitionStream(j.outer, g.outerSpecs, j.outerKey, spillFanout)
	if oerr != nil {
		if !diskErr(oerr) {
			return oerr
		}
		// Rung: outer spill failed — re-stream the outer child once per
		// partition, filtering rows by the partition's hash route.
		g.multiPass = true
		g.diskFull = true
	}
	g.work = g.pairParts(0, nil, innerPaths, outerPaths)
	return nil
}

// pairParts turns one partitioning level's per-bucket files into work
// items, dropping (and removing the files of) buckets that can emit
// nothing: no outer rows, or no inner rows under inner-join semantics.
// outer is unused in multi-pass mode, where every bucket stays.
func (g *graceJoin) pairParts(depth int, route []int, inner, outer []string) []gracePart {
	var parts []gracePart
	for b := 0; b < spillFanout; b++ {
		p := gracePart{depth: depth, route: append(append([]int{}, route...), b)}
		if inner[b] != "" {
			p.inner = []string{inner[b]}
		}
		if !g.multiPass {
			if outer[b] != "" {
				p.outer = []string{outer[b]}
			}
			if p.outer == nil || p.inner == nil && !g.j.LeftOuter {
				g.removeFiles(p)
				continue
			}
		}
		parts = append(parts, p)
	}
	return parts
}

func (g *graceJoin) removeFiles(p gracePart) {
	for _, path := range p.inner {
		_ = g.mgr.Remove(path)
	}
	for _, path := range p.outer {
		_ = g.mgr.Remove(path)
	}
}

// valueSpec is a key column's spill representation: its values, with a
// dictionary's tokens resolved.
func valueSpec(info ColInfo) spill.ColSpec {
	info.Dict = nil
	return spillSpecFor(info)
}

// bucketOf hashes one key value at the given depth.
func (g *graceJoin) bucketOf(v uint64, h *heap.Heap, depth int) int {
	hh := newSpillHasher(depth)
	hh.fold(spillValHash(v, g.keyStr, g.coll, h))
	return hh.part()
}

// partitionStream drains op (opening and closing it), appending each row
// to the bucket its key hashes to at depth 0. fan 1 spools every row to
// bucket 0.
func (g *graceJoin) partitionStream(op Operator, specs []spill.ColSpec, keyCol, fan int) ([]string, error) {
	p := newSpillPartitioner(g.mgr, g.stats, specs, fan)
	defer p.abandon()
	if err := op.Open(g.qc); err != nil {
		return nil, err
	}
	defer op.Close()
	b := vec.NewBlock(len(specs))
	for {
		ok, err := op.Next(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			return p.finish()
		}
		b.Materialize()
		for c := range specs {
			p.heaps[c] = b.Vecs[c].Heap
		}
		kv := &b.Vecs[keyCol]
		for i := 0; i < b.N; i++ {
			for c := range specs {
				p.row[c] = b.Vecs[c].Data[i]
			}
			p.row[keyCol] = kv.Value(i)
			bucket := 0
			if fan > 1 {
				bucket = g.bucketOf(p.row[keyCol], kv.Heap, 0)
			}
			if err := p.append(bucket); err != nil {
				return nil, err
			}
		}
	}
}

// loadInner materializes one partition's inner files as a joinPart —
// flat columns, strings re-interned into one heap per column, the hash
// index — charging as it grows; on a denied charge the partial load is
// released and the budget error returned (the caller splits or degrades).
func (g *graceJoin) loadInner(paths []string) (*joinPart, error) {
	nc := len(g.innerSpecs)
	p := &joinPart{info: append([]ColInfo{}, g.innerInfo...), cols: make([][]uint64, nc),
		key: g.j.innerKey, algo: JoinHash, keyStr: g.keyStr, coll: g.coll, nullRow: -1}
	heaps := make([]*heap.Heap, nc)
	trs := make([]*heap.Translator, nc)
	for c, s := range g.innerSpecs {
		if s.Str {
			heaps[c] = heap.New(s.Collation)
			trs[c] = heap.NewTranslator(heaps[c], heap.NewAccelerator(heaps[c], 0), g.qc, "HashJoin")
			p.info[c].Heap = heaps[c]
		}
	}
	defer releaseTranslators(trs)
	heapBytes := 0
	err := readChunks(g.mgr, paths, &g.stats.IO, func(ch *spill.Chunk) error {
		for c := 0; c < nc; c++ {
			col := ch.Cols[c]
			at := len(p.cols[c])
			p.cols[c] = append(p.cols[c], col.Values[:ch.Rows]...)
			if trs[c] != nil {
				trs[c].Translate(col.Heap, p.cols[c][at:], p.cols[c][at:])
			}
		}
		p.rows += ch.Rows
		grown := heapSizes(heaps)
		cost := ch.Rows*nc*8 + (grown - heapBytes)
		heapBytes = grown
		return p.charge(g.qc, cost)
	})
	if err == nil {
		err = p.buildHashIndex(g.qc)
	}
	if err != nil {
		g.qc.Release(p.charged)
		return nil, err
	}
	return p, nil
}

// graceOuterSrc feeds the current partition's outer rows: from its spill
// files, or — in multi-pass mode — by re-streaming the outer child and
// filtering rows onto this partition's hash route.
type graceOuterSrc struct {
	g *graceJoin
	// spill-file mode
	paths []string
	fi    int
	r     *spill.Reader
	// multi-pass mode
	op     Operator
	opened bool
	route  []int
	buf    *vec.Block
}

func (g *graceJoin) newOuterSrc(p gracePart) *graceOuterSrc {
	if g.multiPass {
		return &graceOuterSrc{g: g, op: g.j.outer, route: p.route,
			buf: vec.NewBlock(len(g.outerInfo))}
	}
	return &graceOuterSrc{g: g, paths: p.outer}
}

func (s *graceOuterSrc) next(b *vec.Block) (bool, error) {
	g := s.g
	if s.op != nil {
		if !s.opened {
			if err := s.op.Open(g.qc); err != nil {
				return false, err
			}
			s.opened = true
		}
		key := g.j.outerKey
		for {
			ok, err := s.op.Next(s.buf)
			if err != nil || !ok {
				return false, err
			}
			s.buf.Materialize()
			ensureVecs(b, len(s.buf.Vecs))
			k := 0
			kv := &s.buf.Vecs[key]
			for i := 0; i < s.buf.N; i++ {
				pass := true
				for d, want := range s.route {
					if g.bucketOf(kv.Value(i), kv.Heap, d) != want {
						pass = false
						break
					}
				}
				if !pass {
					continue
				}
				for c := range s.buf.Vecs {
					b.Vecs[c].Data[k] = s.buf.Vecs[c].Data[i]
				}
				k++
			}
			if k == 0 {
				continue
			}
			for c := range s.buf.Vecs {
				b.Vecs[c].Type = s.buf.Vecs[c].Type
				b.Vecs[c].Heap = s.buf.Vecs[c].Heap
				b.Vecs[c].Dict = s.buf.Vecs[c].Dict
			}
			b.N = k
			return true, nil
		}
	}
	for {
		if s.r == nil {
			if s.fi >= len(s.paths) {
				return false, nil
			}
			r, err := g.mgr.OpenReader(s.paths[s.fi], &g.stats.IO)
			if err != nil {
				return false, err
			}
			s.r = r
			s.fi++
		}
		ch, err := s.r.Next()
		if err == io.EOF {
			s.r.Close()
			s.r = nil
			continue
		}
		if err != nil {
			return false, err
		}
		ensureVecs(b, len(g.outerInfo))
		for c, info := range g.outerInfo {
			v := &b.Vecs[c]
			v.Type = info.Type
			v.Dict = info.Dict
			if c == g.j.outerKey {
				v.Dict = nil // spilled as values
			}
			v.Heap = info.Heap
			if g.outerSpecs[c].Str {
				v.Heap = ch.Cols[c].Heap
			}
			copy(v.Data[:ch.Rows], ch.Cols[c].Values)
		}
		b.N = ch.Rows
		return true, nil
	}
}

func (s *graceOuterSrc) close() {
	if s.r != nil {
		s.r.Close()
		s.r = nil
	}
	if s.opened {
		_ = s.op.Close()
		s.opened = false
	}
}

// next is the grace probe loop: one partition at a time, hash mode when
// the partition fits, block-nested-loop when it cannot be split further.
func (g *graceJoin) next(b *vec.Block) (bool, error) {
	for {
		if g.osrc != nil {
			ok, err := g.osrc.next(g.obuf)
			if err != nil {
				return false, err
			}
			if ok {
				var k int
				if g.j.part != nil {
					k = g.j.joinBlock(g.j.part, g.obuf, b, &g.j.sc)
				} else if k, err = g.bnlJoinBlock(g.obuf, b); err != nil {
					return false, err
				}
				if k > 0 {
					return true, nil
				}
				continue
			}
			g.finishPartition()
		}
		if len(g.work) == 0 {
			return false, nil
		}
		p := g.work[0]
		g.work = g.work[1:]
		if err := g.startPartition(p); err != nil {
			return false, err
		}
	}
}

// startPartition loads p's inner side, splitting or degrading to
// block-nested-loop when the budget refuses it.
func (g *graceJoin) startPartition(p gracePart) error {
	part, err := g.loadInner(p.inner)
	if err != nil {
		if !spillableErr(g.qc, err) {
			return err
		}
		if p.depth < spillMaxDepth && !g.diskFull {
			subs, serr := g.splitPart(p)
			if serr == nil {
				g.work = append(subs, g.work...)
				return nil // the caller's loop starts the first sub-partition
			}
			if !diskErr(serr) {
				return serr
			}
			g.diskFull = true
		}
		// Block-nested-loop: one inner chunk and one outer block of memory,
		// whatever the partition's size.
		g.stats.AddSpill()
	}
	g.j.part = part
	g.cur = p
	g.osrc = g.newOuterSrc(p)
	return nil
}

// splitPart re-partitions both sides of p one level deeper.
func (g *graceJoin) splitPart(p gracePart) ([]gracePart, error) {
	d := p.depth + 1
	g.stats.NoteDepth(d)
	innerPaths, err := repartition(g.mgr, g.stats, g.innerSpecs, p.inner, []int{g.j.innerKey}, d)
	if err != nil {
		return nil, err
	}
	var outerPaths []string
	if !g.multiPass {
		if outerPaths, err = repartition(g.mgr, g.stats, g.outerSpecs, p.outer, []int{g.j.outerKey}, d); err != nil {
			g.removeFiles(gracePart{inner: innerPaths})
			return nil, err
		}
	}
	return g.pairParts(d, p.route, innerPaths, outerPaths), nil
}

// bnlJoinBlock joins one outer block by scanning the partition's inner
// files front to back, keeping the first match per outer row (and the
// first NULL-key inner row for string NULL-matches-NULL semantics).
// Matched inner rows are copied out of the transient chunks as they are
// found — into a block-sized joinPart with fresh string heaps that emit
// gathers from — so memory stays bounded by one chunk plus one block.
func (g *graceJoin) bnlJoinBlock(in *vec.Block, out *vec.Block) (int, error) {
	j := g.j
	kc := j.innerKey
	p := &joinPart{info: append([]ColInfo{}, g.innerInfo...), cols: make([][]uint64, len(g.innerInfo)), key: kc}
	for c, s := range g.innerSpecs {
		if s.Str && c != kc {
			p.info[c].Heap = heap.New(s.Collation)
		}
	}
	keep := func(ch *spill.Chunk, ir int) int32 {
		for c := range p.cols {
			if c == kc {
				continue
			}
			v := ch.Cols[c].Values[ir]
			if g.innerSpecs[c].Str && v != types.NullToken {
				v = p.info[c].Heap.Append(ch.Cols[c].Heap.Get(v))
			}
			p.cols[c] = append(p.cols[c], v)
		}
		p.rows++
		return int32(p.rows - 1)
	}
	match := j.sc.match[:in.N]
	for i := range match {
		match[i] = -1
	}
	nullRow := int32(-1)
	keyVec := &in.Vecs[j.outerKey]
	err := readChunks(g.mgr, g.cur.inner, &g.stats.IO, func(ch *spill.Chunk) error {
		for ir, ktok := range ch.Cols[kc].Values[:ch.Rows] {
			var kstr string
			if g.keyStr {
				if ktok == types.NullToken {
					if nullRow < 0 {
						nullRow = keep(ch, ir)
					}
					continue
				}
				kstr = ch.Cols[kc].Heap.Get(ktok)
			}
			kept := int32(-1)
			for i, otok := range keyVec.Data[:in.N] {
				if match[i] >= 0 {
					continue
				}
				if g.keyStr {
					if otok == types.NullToken || !g.coll.Equal(keyVec.Heap.Get(otok), kstr) {
						continue
					}
				} else if keyVec.Value(i) != ktok {
					continue
				}
				if kept < 0 {
					kept = keep(ch, ir)
				}
				match[i] = kept
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if g.keyStr {
		for i, otok := range keyVec.Data[:in.N] {
			if otok == types.NullToken {
				match[i] = nullRow
			}
		}
	}
	return j.emit(p, in, out, &j.sc), nil
}

// finishPartition releases the active partition's memory and disk.
func (g *graceJoin) finishPartition() {
	if g.osrc != nil {
		g.osrc.close()
		g.osrc = nil
	}
	g.j.releasePart()
	g.removeFiles(g.cur)
	g.cur = gracePart{}
}

// cleanup releases everything the grace join still holds — called from
// Close on success, cancellation, and error alike.
func (g *graceJoin) cleanup() {
	g.finishPartition()
	for _, p := range g.work {
		g.removeFiles(p)
	}
	g.work = nil
}
