package exec

import (
	"errors"
	"sync"

	"tde/internal/heap"
	"tde/internal/spill"
	"tde/internal/types"
	"tde/internal/vec"
)

// This file implements graceful degradation for hash aggregation: when
// the accountant denies a charge, the in-memory groups are decomposed
// into partial rows, partitioned by a content hash of their keys, and
// evicted to compressed spill files. After the input is drained, each
// partition is folded back into a fresh hash core one at a time (its
// groups fit where the whole table did not); a partition that still does
// not fit is recursively re-partitioned with a deeper hash salt, and at
// spillMaxDepth — where re-hashing can no longer separate a dominant key
// — a merge-based fallback sorts the partial rows by key content and
// streams them through ordered aggregation's fold, which holds one
// running group.
//
// Partial-row layout: the group's key columns followed by fixed-size
// accumulator fields per aggregate spec. Groups carrying per-input-row
// state (COUNTD's distinct set, MEDIAN's value list) explode into one row
// per retained value; the fixed fields ride on row 0 and are neutral
// (zero) on the others, so folding is plain associative accumulation.
//
// ENOSPC ladder: in-memory → partitioned spill → (on a disk write
// failure or spill-budget denial) a serial pass that spools every
// eviction to a single file at a time and folds all spilled rows as one
// partition → typed error.

// aggFieldSpecs returns the spill column specs for spec s's fields. A
// string input that keeps its stored tokens spills them as they are.
func aggFieldSpecs(in []ColInfo, s AggSpec) []spill.ColSpec {
	count := spill.ColSpec{Sentinel: types.NullToken}
	if s.Col < 0 {
		return []spill.ColSpec{count}
	}
	t := in[s.Col].Type
	switch s.Func {
	case Count:
		return []spill.ColSpec{count}
	case Sum, Avg:
		return []spill.ColSpec{count,
			{Signed: true, Sentinel: types.NullToken},
			{Sentinel: types.NullToken}}
	case Min, Max:
		val := spill.ColSpec{Signed: signedType(t), Sentinel: types.NullBits(t)}
		if t == types.String && !in[s.Col].StoredHeap {
			val = spill.ColSpec{Str: true, Sentinel: types.NullToken, Collation: collationOf(in[s.Col])}
		}
		return []spill.ColSpec{count, val} // count slot doubles as the seen flag
	case CountD:
		val := spill.ColSpec{Sentinel: types.NullToken}
		if t == types.String && !in[s.Col].StoredHeap {
			val = spill.ColSpec{Str: true, Sentinel: types.NullToken, Collation: collationOf(in[s.Col])}
		}
		return []spill.ColSpec{count, val}
	default: // Median
		return []spill.ColSpec{count,
			{Signed: signedType(t), Sentinel: types.NullBits(t)}}
	}
}

// aggPartition is one unit of fold work: the files holding one hash
// bucket's partial rows.
type aggPartition struct {
	depth int
	paths []string
}

// aggSpill owns the spilled state of one aggregation operator. Parallel
// aggregation workers share one; evictions serialize on mu.
type aggSpill struct {
	qc      *QueryCtx
	in      []ColInfo
	keyCols []int
	aspecs  []AggSpec

	rowSpecs []spill.ColSpec // keys then per-spec fields
	fieldAt  []int           // spec j's first field column
	mgr      *spill.Manager
	st       *OpStats
	stats    *OpSpillStats // &st.Spill

	mu       sync.Mutex
	parts    [spillFanout][]string
	serial   []string // diskFull single-spool files
	diskFull bool
	spilled  bool
}

func newAggSpill(qc *QueryCtx, st *OpStats, in []ColInfo, keyCols []int, specs []AggSpec) *aggSpill {
	sp := &aggSpill{qc: qc, st: st, in: append([]ColInfo(nil), in...), keyCols: keyCols, aspecs: specs,
		mgr: qc.SpillManager(), stats: &st.Spill}
	// Keys spill as strings in their chunks' heaps; an aggregate input
	// that keeps its stored tokens (aggCore.stored) spills and folds them.
	for _, kc := range keyCols {
		sp.in[kc].StoredHeap = false
		sp.rowSpecs = append(sp.rowSpecs, spillSpecFor(in[kc]))
	}
	at := len(keyCols)
	for _, s := range specs {
		sp.fieldAt = append(sp.fieldAt, at)
		fs := aggFieldSpecs(sp.in, s)
		sp.rowSpecs = append(sp.rowSpecs, fs...)
		at += len(fs)
	}
	return sp
}

// evict moves every group of core to partition files and resets core to
// empty, returning its memory to the accountant (the direct table, which
// stays allocated, keeps its charge).
func (sp *aggSpill) evict(core *aggCore) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	core.finish()
	if core.n == 0 {
		return nil
	}
	sp.spilled = true
	sp.stats.AddSpill()
	if !sp.diskFull {
		err := sp.writeGroups(core, spillFanout)
		if err == nil {
			core.resetAfterEvict(sp.qc)
			return nil
		}
		if !diskErr(err) {
			return err
		}
		// The disk side gave out mid-eviction: degrade to the serial
		// ladder rung — one spool file at a time, folded as one partition.
		sp.diskFull = true
	}
	if err := sp.writeGroups(core, 1); err != nil {
		return err
	}
	core.resetAfterEvict(sp.qc)
	return nil
}

// writeGroups writes core's groups as partial rows across fan partition
// files (fan 1 = the serial spool). On failure every file of this
// attempt is removed, so a torn write never becomes visible to the fold.
func (sp *aggSpill) writeGroups(core *aggCore, fan int) error {
	p := newSpillPartitioner(sp.mgr, sp.stats, sp.rowSpecs, fan)
	defer p.abandon()
	for i := 0; i < core.n; i++ {
		g := core.group(i)
		bucket := 0
		if fan > 1 {
			h := newSpillHasher(0)
			for j, kc := range sp.keyCols {
				h.fold(spillValHash(core.key(g, j), sp.rowSpecs[j].Str, sp.rowSpecs[j].Collation, core.keyHeap(kc)))
			}
			bucket = h.part()
		}
		w, err := p.writer(bucket)
		if err != nil {
			return err
		}
		if err := sp.appendGroup(w, core, g, p.row, p.heaps); err != nil {
			return err
		}
	}
	paths, err := p.finish()
	if err != nil {
		return err
	}
	for b, path := range paths {
		switch {
		case path == "":
		case fan > 1:
			sp.parts[b] = append(sp.parts[b], path)
		default:
			sp.serial = append(sp.serial, path)
		}
	}
	return nil
}

// appendGroup explodes group g of core into partial rows and appends them.
func (sp *aggSpill) appendGroup(w *spill.Writer, core *aggCore, g int, row []uint64, heaps []*heap.Heap) error {
	rows := 1
	var dvals [][]uint64
	for j, s := range sp.aspecs {
		wide := core.cols[j].wide
		switch {
		case s.Func == CountD && s.Col >= 0:
			d := make([]uint64, 0, len(wide[g].distinct))
			for v := range wide[g].distinct {
				d = append(d, v)
			}
			if dvals == nil {
				dvals = make([][]uint64, len(sp.aspecs))
			}
			dvals[j] = d
			rows = max(rows, len(d))
		case s.Func == Median && s.Col >= 0:
			rows = max(rows, len(wide[g].all))
		}
	}
	for j, kcol := range sp.keyCols {
		if sp.rowSpecs[j].Str {
			heaps[j] = core.keyHeap(kcol)
		}
	}
	for j, s := range sp.aspecs {
		if s.Col >= 0 && (s.Func == Min || s.Func == Max || s.Func == CountD) &&
			sp.rowSpecs[sp.fieldAt[j]+1].Str {
			heaps[sp.fieldAt[j]+1] = core.valHeap(s.Col)
		}
	}
	for r := 0; r < rows; r++ {
		for j := range sp.keyCols {
			row[j] = core.key(g, j)
		}
		for j, s := range sp.aspecs {
			a := &core.cols[j]
			at := sp.fieldAt[j]
			if s.Col < 0 || s.Func == Count {
				row[at] = 0
				if r == 0 {
					row[at] = uint64(a.cnt[g])
				}
				continue
			}
			switch s.Func {
			case Sum, Avg:
				row[at], row[at+1], row[at+2] = 0, 0, 0
				switch {
				case r > 0:
				case a.sumF != nil:
					row[at], row[at+2] = uint64(a.cnt[g]), types.FromReal(a.sumF[g])
				default:
					row[at], row[at+1] = uint64(a.cnt[g]), uint64(a.sumI[g])
				}
			case Min, Max:
				row[at], row[at+1] = 0, sp.rowSpecs[at+1].Sentinel
				if r == 0 && a.seen.has(g) {
					row[at], row[at+1] = 1, a.ext[g]
				}
			case CountD:
				row[at], row[at+1] = 0, sp.rowSpecs[at+1].Sentinel
				if d := dvals[j]; r < len(d) {
					row[at], row[at+1] = 1, d[r]
				}
			case Median:
				row[at], row[at+1] = 0, 0
				if all := a.wide[g].all; r < len(all) {
					row[at], row[at+1] = 1, all[r]
				}
			}
		}
		if err := w.Append(row, heaps); err != nil {
			return err
		}
	}
	return nil
}

// foldRow folds one spilled partial row into core. val and strHeap
// resolve the row's columns (chunk-local tokens for strings). The core's
// mode finds the group: hash for a partition's fold, the last group for
// the merge's sorted rows.
func (sp *aggSpill) foldRow(core *aggCore, val func(c int) uint64, strHeap func(c int) *heap.Heap) {
	for j, kcol := range sp.keyCols {
		v := val(j)
		if sp.rowSpecs[j].Str && v != types.NullToken {
			v = core.strTr[kcol].One(strHeap(j), v)
		}
		core.tuple[j] = v
	}
	g := core.findTuple()
	for j, s := range sp.aspecs {
		a := &core.cols[j]
		at := sp.fieldAt[j]
		if s.Col < 0 || s.Func == Count {
			a.cnt[g] += int64(val(at))
			continue
		}
		switch s.Func {
		case Sum, Avg:
			a.cnt[g] += int64(val(at))
			if a.sumF != nil {
				a.sumF[g] += types.ToReal(val(at + 2))
			} else {
				a.sumI[g] += int64(val(at + 1))
			}
		case Min, Max:
			if val(at) == 0 {
				break
			}
			v := val(at + 1)
			if sp.rowSpecs[at+1].Str {
				v = core.strTr[s.Col].One(strHeap(at+1), v)
			}
			core.foldExt(j, g, v)
		case CountD:
			if val(at) == 0 {
				break
			}
			v := val(at + 1)
			if sp.rowSpecs[at+1].Str && v != types.NullToken {
				v = core.strTr[s.Col].One(strHeap(at+1), v)
			}
			a.wide[g].add(v)
		case Median:
			if val(at) != 0 {
				a.wide[g].all = append(a.wide[g].all, val(at+1))
			}
		}
	}
}

// foldChunk folds one spilled chunk into core and charges the growth,
// the cost model of a folded input block.
func (sp *aggSpill) foldChunk(core *aggCore, ch *spill.Chunk) error {
	for r := 0; r < ch.Rows; r++ {
		sp.foldRow(core,
			func(c int) uint64 { return ch.Cols[c].Values[r] },
			func(c int) *heap.Heap { return ch.Cols[c].Heap })
	}
	return core.chargeGrowth(sp.qc, ch.Rows)
}

// split re-partitions p's rows with a deeper hash salt, consuming p's
// files.
func (sp *aggSpill) split(p aggPartition) ([]aggPartition, error) {
	sp.stats.NoteDepth(p.depth + 1)
	keyCols := make([]int, len(sp.keyCols)) // a partial row leads with its keys
	for j := range keyCols {
		keyCols[j] = j
	}
	paths, err := repartition(sp.mgr, sp.stats, sp.rowSpecs, p.paths, keyCols, p.depth+1)
	if err != nil {
		return nil, err
	}
	var subs []aggPartition
	for _, path := range paths {
		if path != "" {
			subs = append(subs, aggPartition{depth: p.depth + 1, paths: []string{path}})
		}
	}
	return subs, nil
}

// finishConsume evicts the remaining groups and freezes the fold work
// list. Under the diskFull ladder every spilled row folds as a single
// partition that is never split further.
func (sp *aggSpill) finishConsume(core *aggCore) ([]aggPartition, error) {
	if err := sp.evict(core); err != nil {
		return nil, err
	}
	if sp.diskFull {
		var all []string
		for _, b := range sp.parts {
			all = append(all, b...)
		}
		all = append(all, sp.serial...)
		return []aggPartition{{depth: spillMaxDepth, paths: all}}, nil
	}
	var work []aggPartition
	for _, b := range sp.parts {
		if len(b) > 0 {
			work = append(work, aggPartition{depth: 0, paths: b})
		}
	}
	return work, nil
}

// cleanup removes every spill file still registered with this operator's
// partitions (the query-level manager sweep would also catch them).
func (sp *aggSpill) cleanup() {
	for i, b := range sp.parts {
		for _, path := range b {
			_ = sp.mgr.Remove(path)
		}
		sp.parts[i] = nil
	}
	for _, path := range sp.serial {
		_ = sp.mgr.Remove(path)
	}
	sp.serial = nil
}

// resetAfterEvict drops the group state after its groups were spilled,
// keeping only the direct mode's first-seen list (allocated and charged
// up front), and mints fresh string heaps.
func (c *aggCore) resetAfterEvict(qc *QueryCtx) {
	c.reserve(0)
	c.n, c.stateCharged, c.order = 0, 0, c.order[:0]
	c.slots, c.page, c.virt = nil, nil, nil
	for col, h := range c.strHeaps {
		if h != nil {
			c.freshHeap(qc, col, h.Collation())
		}
	}
	c.heapBytes = 0
	qc.Release(c.charged - c.directCharge)
	c.charged = c.directCharge
}

// aggEmitter is the aggregation's emit path: it emits the groups of the
// core it is handed (the merged in-memory result — empty once everything
// was evicted — or an ordered core that in feeds), then folds one spilled
// partition at a time into a fresh core and emits that, recursing into
// splits and the merge fallback as the budget dictates. With no spill
// there is no work and no sp.
type aggEmitter struct {
	qc     *QueryCtx
	sp     *aggSpill
	out    []ColInfo
	work   []aggPartition
	core   *aggCore
	emitAt int
	in     orderedInput // feeds core until its input ends; nil once core holds every group
}

func (e *aggEmitter) next(b *vec.Block) (bool, error) {
	for {
		if e.core != nil {
			ok, err := e.nextGroups(b)
			if ok || err != nil {
				return ok, err
			}
			e.core.release(e.qc)
			e.core = nil
		}
		if len(e.work) == 0 {
			return false, nil
		}
		p := e.work[0]
		e.work = e.work[1:]
		if err := e.foldPartition(p); err != nil {
			return false, err
		}
	}
}

// foldPartition folds p into a fresh hash core, or — when even one
// partition's groups exceed the budget — splits it (depth permitting)
// or degrades to the merge fallback. A fold that failed holding a single
// group goes straight to the merge: re-hashing cannot part one key, so a
// split would only rewrite and re-read the partition.
func (e *aggEmitter) foldPartition(p aggPartition) error {
	sp := e.sp
	core, err := newAggCore(sp.in, sp.keyCols, sp.aspecs, AggHash, nil, sp.st, sp.qc)
	if err != nil {
		return err
	}
	err = readChunks(sp.mgr, p.paths, &sp.stats.IO, func(ch *spill.Chunk) error {
		return sp.foldChunk(core, ch)
	})
	if err != nil {
		single := core.n <= 1
		core.release(sp.qc)
		if !spillableErr(sp.qc, err) {
			return err
		}
		if p.depth < spillMaxDepth && !sp.diskFull && !single {
			subs, serr := sp.split(p)
			if serr == nil {
				e.work = append(subs, e.work...)
				return nil
			}
			if !diskErr(serr) {
				return serr
			}
			sp.diskFull = true
		}
		return e.startMerge(p)
	}
	for _, path := range p.paths {
		_ = sp.mgr.Remove(path)
	}
	core.finish()
	e.core = core
	e.emitAt = 0
	return nil
}

// nextGroups emits the next block of the core's finished groups. Fed by
// an ordered input, it is ordered aggregation's streaming fold: it folds
// input until it holds a block of finished groups, emits them, and then
// compacts the core to the running group. A denied charge is not an error
// while finished groups are held — they leave, and the compaction after
// them re-charges only what stays. With nothing but the running group
// held, a denial compacts it in place; only a denial of what that group
// retains fails the query: no grouping strategy splits one group.
func (e *aggEmitter) nextGroups(b *vec.Block) (bool, error) {
	c := e.core
	for e.in != nil {
		done := c.finished()
		if done-e.emitAt >= vec.BlockSize || e.emitAt > 0 && done > e.emitAt {
			break // a block of finished groups, or the rest of them, leaves first
		}
		if e.emitAt > 0 {
			if err := c.compact(e.qc); err != nil {
				return false, err
			}
			e.emitAt = 0
		}
		rows, err := e.in.fold(c)
		if err != nil {
			return false, err
		}
		if rows == 0 {
			e.in.close()
			e.in = nil
			c.finish()
			break
		}
		if err := c.chargeGrowth(e.qc, rows); err != nil {
			if !errors.Is(err, ErrBudgetExceeded) {
				return false, err
			}
			if c.finished() > 0 {
				break
			}
			// Only the running group is held. Its per-row charge counts
			// rows that added no state (a COUNTD value seen before), and
			// compacting charges what it retains.
			if err := c.compact(e.qc); err != nil {
				return false, err
			}
		}
	}
	n := c.emit(b, e.emitAt, e.out)
	e.emitAt += n
	return n > 0, nil
}

func (e *aggEmitter) close() {
	if e.core != nil {
		e.core.release(e.qc)
		e.core = nil
	}
	if e.in != nil {
		e.in.close()
		e.in = nil
	}
	for _, p := range e.work {
		for _, path := range p.paths {
			_ = e.sp.mgr.Remove(path)
		}
	}
	e.work = nil
}

// aggMergeEmit is the depth-cap fallback: the partition's partial rows
// are externally sorted by key (the engine's one row sort) and merged
// into an ordered core through the streaming fold, which holds the
// running group and at most a block or two of finished ones — so a
// dominant key that re-hashing cannot split still aggregates in bounded
// memory (unless that single group's own COUNTD/MEDIAN state exceeds the
// budget, which no grouping strategy can fix).
type aggMergeEmit struct {
	sp *aggSpill
	rs *rowSort
}

// startMerge sorts p's rows into runs and opens their merge as the input
// of a fresh ordered core. Every row goes to a run, the last buffer too,
// so the fold keeps the share of the budget the merge leaves it.
func (e *aggEmitter) startMerge(p aggPartition) error {
	sp := e.sp
	nc := len(sp.rowSpecs)
	rs := newRowSort(sp.qc, sp.st.kind, sp.stats, sp.keyOrder(), sp.rowSpecs, 0)
	cols, heaps := make([][]uint64, nc), make([]*heap.Heap, nc)
	err := readChunks(sp.mgr, p.paths, &sp.stats.IO, func(ch *spill.Chunk) error {
		for c := range cols {
			cols[c], heaps[c] = ch.Cols[c].Values, ch.Cols[c].Heap
		}
		return rs.add(cols, heaps, ch.Rows)
	})
	if err == nil {
		err = rs.spillRun()
	}
	if err == nil {
		err = rs.finish()
	}
	if err != nil {
		rs.close()
		return err
	}
	for _, path := range p.paths {
		_ = sp.mgr.Remove(path)
	}
	m := &aggMergeEmit{sp: sp, rs: rs}
	core, err := newAggCore(sp.in, sp.keyCols, sp.aspecs, AggOrdered, nil, sp.st, sp.qc)
	if err != nil {
		m.close()
		return err
	}
	e.core, e.emitAt, e.in = core, 0, m
	return nil
}

// keyOrder orders partial rows by their leading key columns, ties broken
// on raw bits: the rows the aggregation folds into one group sort
// together.
func (sp *aggSpill) keyOrder() rowOrder {
	schema := make([]ColInfo, len(sp.keyCols))
	keys := make([]SortKey, len(sp.keyCols))
	for j, kc := range sp.keyCols {
		schema[j], keys[j] = sp.in[kc], SortKey{Col: j}
	}
	o := newRowOrder(schema, keys)
	o.bits = true
	return o
}

// fold folds up to a block of the merge's partial rows, in key order.
func (m *aggMergeEmit) fold(c *aggCore) (int, error) {
	rows := 0
	for ; rows < vec.BlockSize; rows++ {
		ok, err := m.rs.pop(func(cur *mergeCursor) { m.sp.foldRow(c, cur.val, cur.strHeap) })
		if err != nil || !ok {
			return rows, err
		}
	}
	return rows, nil
}

func (m *aggMergeEmit) close() { m.rs.close() }
