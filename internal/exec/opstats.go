package exec

import (
	"sync/atomic"
	"time"

	"tde/internal/vec"
)

// This file is the engine's observability layer: every planned operator
// gets a stable integer ID at plan time (AssignOpIDs, called by the
// strategic planner once the tree is built) and an OpStats record in the
// query's registry, updated from thin wrappers around Open and Next. The
// counters are atomics — morsel workers and the fused operators they run
// touch them concurrently — and the fast path per Next is two monotonic
// clock reads plus a handful of atomic adds, cheap against a 1024-row
// block.
//
// Wall times are inclusive: an operator's Next time contains its
// children's Next time, exactly like a sampled profile collapsed onto
// the plan tree. Sub-operators an operator creates privately at runtime
// (FlowTable's internal scan of its Built) carry ID 0 and record into
// detached, unregistered stats; their work is visible as part of the
// owning planned operator.

// profEpoch anchors the engine's monotonic clock; all StartNanos /
// EndNanos values are nanoseconds since this process-wide instant.
var profEpoch = time.Now()

// nowNanos reads the monotonic clock (ns since profEpoch).
func nowNanos() int64 { return int64(time.Since(profEpoch)) }

// Instrumented is implemented by every planned operator: identity for
// the stats registry plus the structural hooks AssignOpIDs walks.
type Instrumented interface {
	// OpID returns the plan-assigned operator ID (0 before assignment,
	// and forever for operators created privately at runtime).
	OpID() int
	// SetOpID assigns the plan ID; called once by AssignOpIDs.
	SetOpID(int)
	// OpKind names the operator type ("Scan", "HashJoin", ...).
	OpKind() string
	// OpLabel is a short static annotation (table name, predicate, ...).
	OpLabel() string
	// OpChildren lists the operator's plan-tree inputs in order.
	OpChildren() []Operator
}

// OpInstr is the embeddable instrumentation half of an operator: the
// plan ID and the stats record, plus the begin/end helpers the Open and
// Next wrappers call. Operators override OpLabel / OpChildren as needed.
type OpInstr struct {
	id int
	st *OpStats
}

// OpID implements Instrumented.
func (o *OpInstr) OpID() int { return o.id }

// SetOpID implements Instrumented.
func (o *OpInstr) SetOpID(id int) { o.id = id }

// OpLabel implements Instrumented (no annotation by default).
func (o *OpInstr) OpLabel() string { return "" }

// OpChildren implements Instrumented (leaf by default; operators with
// inputs override it).
func (o *OpInstr) OpChildren() []Operator { return nil }

// beginOpen registers the operator with the query's stats registry,
// traces it for panic attribution, and starts the Open timer.
func (o *OpInstr) beginOpen(qc *QueryCtx, kind string) int64 {
	qc.Trace(kind)
	o.st = qc.OpStat(o.id, kind)
	now := nowNanos()
	o.st.noteFirst(now)
	return now
}

// endOpen stops the Open timer started by beginOpen.
func (o *OpInstr) endOpen(start int64) {
	now := nowNanos()
	atomic.AddInt64(&o.st.nsOpen, now-start)
	o.st.noteLast(now)
}

// endNext accounts one Next call: wall time always, a produced block and
// its rows when ok.
func (o *OpInstr) endNext(start int64, b *vec.Block, ok bool) {
	st := o.st
	if st == nil {
		return // Next without Open — nothing registered to account to
	}
	now := nowNanos()
	atomic.AddInt64(&st.nsNext, now-start)
	st.noteLast(now)
	if ok {
		atomic.AddInt64(&st.nBlocksOut, 1)
		atomic.AddInt64(&st.nRowsOut, int64(b.N))
	}
}

// endNextTimeOnly accounts Next wall time without row/block counting,
// for delegating operators whose output is counted elsewhere
// (FlowTable counts its rows once, in BuildTable).
func (o *OpInstr) endNextTimeOnly(start int64) {
	st := o.st
	if st == nil {
		return
	}
	now := nowNanos()
	atomic.AddInt64(&st.nsNext, now-start)
	st.noteLast(now)
}

// opStats returns the operator's stats record (a detached record before
// Open, so recording helpers are always safe to call).
func (o *OpInstr) opStats() *OpStats {
	if o.st == nil {
		o.st = &OpStats{id: o.id}
	}
	return o.st
}

// OpStats is one operator's runtime counters. All fields are updated
// atomically; Spill is shared with the spill plumbing, which already
// updates its fields atomically.
type OpStats struct {
	id   int
	kind string

	nBlocksOut int64
	nRowsOut   int64
	nsOpen     int64
	nsNext     int64
	// bytesScanned counts encoded bytes decoded from storage (Scan over
	// any source, of blocks or of ranges); 0 elsewhere.
	bytesScanned int64
	// cacheHits / cacheMisses count shared decode-cache lookups by a Scan
	// served from (or inserted into) the process-wide DecodeCache; both 0
	// when no cache is attached.
	cacheHits   int64
	cacheMisses int64
	// deltaRows / deletedRows count the overlay work of a Scan over a view:
	// uncompressed delta rows spliced into the stream, and deleted base
	// rows filtered out of it; 0 elsewhere.
	deltaRows   int64
	deletedRows int64
	// blocksSkipped counts storage blocks a scan proved empty against its
	// zone map and never decoded (DESIGN.md §15); 0 elsewhere.
	blocksSkipped int64
	// stringsTranslated counts string tokens re-homed into the operator's
	// own heap, stringsInterned those whose heap bytes were read for it
	// (heap.Translator misses); 0 elsewhere.
	stringsInterned, stringsTranslated int64
	// firstNanos / lastNanos bracket the operator's activity on the
	// profEpoch clock, for trace export.
	firstNanos int64
	lastNanos  int64
	// routine is the tactical decision taken at runtime (join algorithm,
	// aggregation mode, per-column encodings, memory vs external sort).
	routine atomic.Value // string

	// Spill aggregates the operator's spill activity; operators hand
	// &st.Spill to the spill plumbing, so two operators of the same kind
	// never collide (the old name-keyed registry merged them).
	Spill OpSpillStats
}

// SetRoutine records the tactical routine/encoding path chosen at run
// time.
func (s *OpStats) SetRoutine(r string) {
	if s == nil {
		return
	}
	s.routine.Store(r)
}

// Routine returns the recorded tactical routine ("" when none).
func (s *OpStats) Routine() string {
	if v, ok := s.routine.Load().(string); ok {
		return v
	}
	return ""
}

// AddBytesScanned counts n encoded bytes read from storage.
func (s *OpStats) AddBytesScanned(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.bytesScanned, n)
}

// AddCacheHits counts n blocks served from the shared decode cache.
func (s *OpStats) AddCacheHits(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.cacheHits, n)
}

// AddCacheMisses counts n blocks decoded and offered to the cache.
func (s *OpStats) AddCacheMisses(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.cacheMisses, n)
}

// AddDeltaRows counts n uncompressed delta-store rows emitted.
func (s *OpStats) AddDeltaRows(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.deltaRows, n)
}

// AddDeletedRows counts n base rows skipped for delta-store deletions.
func (s *OpStats) AddDeletedRows(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.deletedRows, n)
}

// AddBlocksSkipped counts n storage blocks pruned by zone maps.
func (s *OpStats) AddBlocksSkipped(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.blocksSkipped, n)
}

// AddStrings counts string tokens re-homed by heap.Translators.
func (s *OpStats) AddStrings(interned, translated int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.stringsInterned, interned)
	atomic.AddInt64(&s.stringsTranslated, translated)
}

// RowsOut returns the rows produced so far.
func (s *OpStats) RowsOut() int64 { return atomic.LoadInt64(&s.nRowsOut) }

// BlocksOut returns the blocks produced so far.
func (s *OpStats) BlocksOut() int64 { return atomic.LoadInt64(&s.nBlocksOut) }

// addRowsOut counts rows produced outside the Next wrapper (FlowTable's
// BuildTable hands its parent a whole table at once).
func (s *OpStats) addRowsOut(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.nRowsOut, n)
}

func (s *OpStats) noteFirst(now int64) {
	atomic.CompareAndSwapInt64(&s.firstNanos, 0, now)
}

func (s *OpStats) noteLast(now int64) {
	for {
		cur := atomic.LoadInt64(&s.lastNanos)
		if now <= cur || atomic.CompareAndSwapInt64(&s.lastNanos, cur, now) {
			return
		}
	}
}

// PlanNode is the operator tree AssignOpIDs extracts at plan time: the
// stable IDs, kinds and labels ExplainAnalyze and Result.Stats join
// runtime counters against.
type PlanNode struct {
	ID       int         `json:"id"`
	Kind     string      `json:"kind"`
	Label    string      `json:"label,omitempty"`
	Children []*PlanNode `json:"children,omitempty"`
}

// AssignOpIDs walks the plan tree pre-order, assigning each Instrumented
// operator a stable 1-based ID, and returns the matching PlanNode tree.
// Operators that do not implement Instrumented (and their subtrees) are
// skipped. The planner calls this exactly once per built plan.
func AssignOpIDs(root Operator) *PlanNode {
	next := 1
	var walk func(op Operator) *PlanNode
	walk = func(op Operator) *PlanNode {
		inst, ok := op.(Instrumented)
		if !ok {
			return nil
		}
		n := &PlanNode{ID: next, Kind: inst.OpKind(), Label: inst.OpLabel()}
		next++
		inst.SetOpID(n.ID)
		for _, c := range inst.OpChildren() {
			if c == nil {
				continue
			}
			if cn := walk(c); cn != nil {
				n.Children = append(n.Children, cn)
			}
		}
		return n
	}
	if root == nil {
		return nil
	}
	return walk(root)
}

// OpStatsSnapshot is the JSON-serializable snapshot of one operator's
// runtime counters, one entry per plan-assigned operator ID.
type OpStatsSnapshot struct {
	ID      int    `json:"id"`
	Kind    string `json:"kind"`
	Label   string `json:"label,omitempty"`
	Routine string `json:"routine,omitempty"`
	// RowsIn / BlocksIn are derived at snapshot time as the sum of the
	// plan children's output (an operator does not see its inputs pass
	// through a counter of its own).
	RowsIn    int64 `json:"rows_in"`
	BlocksIn  int64 `json:"blocks_in"`
	RowsOut   int64 `json:"rows_out"`
	BlocksOut int64 `json:"blocks_out"`
	// OpenNanos / NextNanos are inclusive of children (see file comment).
	OpenNanos    int64 `json:"open_ns"`
	NextNanos    int64 `json:"next_ns"`
	BytesScanned int64 `json:"bytes_scanned,omitempty"`
	// CacheHits / CacheMisses are a Scan's shared decode-cache counters:
	// blocks reused from the process-wide cache vs decoded fresh. Both 0
	// when the query ran without a cache.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// DeltaRows / DeletedRows are the overlay counters of a scan over a view:
	// delta-store rows merged in, deleted base rows filtered out.
	DeltaRows   int64 `json:"delta_rows,omitempty"`
	DeletedRows int64 `json:"deleted_rows,omitempty"`
	// BlocksSkipped counts storage blocks a scan pruned with zone maps
	// instead of decoding (DESIGN.md §15).
	BlocksSkipped int64 `json:"blocks_skipped,omitempty"`
	// Of StringsTranslated string tokens an Aggregate (any worker count) or
	// FlowTable mapped into its own heap, StringsInterned had their heap
	// bytes read; the rest were answered per distinct source token.
	StringsInterned   int64 `json:"strings_interned,omitempty"`
	StringsTranslated int64 `json:"strings_translated,omitempty"`
	// StartNanos / EndNanos bracket the operator's activity on the
	// process-monotonic clock shared by all operators of the query.
	StartNanos int64 `json:"start_ns"`
	EndNanos   int64 `json:"end_ns"`

	Spill *OpSpillSnapshot `json:"spill,omitempty"`
}

// OpSpillSnapshot is the spill section of an operator snapshot; nil when
// the operator never spilled.
type OpSpillSnapshot struct {
	Spills       int64 `json:"spills"`
	Partitions   int64 `json:"partitions"`
	MaxDepth     int64 `json:"max_depth"`
	Files        int64 `json:"files"`
	Chunks       int64 `json:"chunks"`
	BytesWritten int64 `json:"bytes_written"`
	BytesRead    int64 `json:"bytes_read"`
}

// snapshot reads one operator's counters (atomically, field by field).
func (s *OpStats) snapshot(node *PlanNode) OpStatsSnapshot {
	out := OpStatsSnapshot{
		ID:            node.ID,
		Kind:          node.Kind,
		Label:         node.Label,
		Routine:       s.Routine(),
		RowsOut:       atomic.LoadInt64(&s.nRowsOut),
		BlocksOut:     atomic.LoadInt64(&s.nBlocksOut),
		OpenNanos:     atomic.LoadInt64(&s.nsOpen),
		NextNanos:     atomic.LoadInt64(&s.nsNext),
		BytesScanned:  atomic.LoadInt64(&s.bytesScanned),
		CacheHits:     atomic.LoadInt64(&s.cacheHits),
		CacheMisses:   atomic.LoadInt64(&s.cacheMisses),
		DeltaRows:     atomic.LoadInt64(&s.deltaRows),
		DeletedRows:   atomic.LoadInt64(&s.deletedRows),
		BlocksSkipped: atomic.LoadInt64(&s.blocksSkipped),
		StartNanos:    atomic.LoadInt64(&s.firstNanos),
		EndNanos:      atomic.LoadInt64(&s.lastNanos),

		StringsInterned:   atomic.LoadInt64(&s.stringsInterned),
		StringsTranslated: atomic.LoadInt64(&s.stringsTranslated),
	}
	if sp := s.Spill.snapshot(); sp.Spills > 0 {
		out.Spill = &sp
	}
	return out
}

// OpSnapshots joins the runtime registry against the plan tree: one
// snapshot per planned operator in pre-order (stable, deterministic),
// with RowsIn/BlocksIn derived from each node's children. Operators the
// query never opened (e.g. short-circuited subtrees) appear with zero
// counters, so the result always has one entry per plan node.
func (q *QueryCtx) OpSnapshots(tree *PlanNode) []OpStatsSnapshot {
	if tree == nil {
		return nil
	}
	var out []OpStatsSnapshot
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		snap := q.opStatFor(n.ID).snapshot(n)
		for _, c := range n.Children {
			cs := q.opStatFor(c.ID)
			snap.RowsIn += atomic.LoadInt64(&cs.nRowsOut)
			snap.BlocksIn += atomic.LoadInt64(&cs.nBlocksOut)
		}
		out = append(out, snap)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	return out
}

// opStatFor returns the registered stats for id, or a zero record.
func (q *QueryCtx) opStatFor(id int) *OpStats {
	if q != nil {
		q.opMu.Lock()
		s := q.ops[id]
		q.opMu.Unlock()
		if s != nil {
			return s
		}
	}
	return &OpStats{id: id}
}

// OpStat returns (creating on demand) the stats record for a planned
// operator ID. ID 0 — operators created privately at runtime — and a nil
// QueryCtx get a detached record that never enters the registry.
func (q *QueryCtx) OpStat(id int, kind string) *OpStats {
	if q == nil || id == 0 {
		return &OpStats{id: id, kind: kind}
	}
	q.opMu.Lock()
	defer q.opMu.Unlock()
	if q.ops == nil {
		q.ops = map[int]*OpStats{}
	}
	s := q.ops[id]
	if s == nil {
		s = &OpStats{id: id, kind: kind}
		q.ops[id] = s
	}
	return s
}
