package exec

import (
	"errors"
	"io"

	"tde/internal/heap"
	"tde/internal/spill"
	"tde/internal/types"
)

// spillFanout is the number of partitions one eviction or split fans out
// to; with spillMaxDepth levels of recursive re-partitioning a skewed
// partition is cut by up to fanout^depth before the merge fallback.
const spillFanout = 8

// spillMaxDepth bounds recursive re-partitioning: same-key rows can never
// be separated by re-hashing, so unbounded recursion on a dominant key
// would loop forever.
const spillMaxDepth = 2

// spillMergeFanIn caps how many runs a merge reads at once; more runs are
// first pre-merged in passes of this width.
const spillMergeFanIn = 8

// spillableErr reports whether err is a memory-budget denial the operator
// may degrade from by spilling: disk-budget denials and I/O failures must
// surface, not recurse into more spilling.
func spillableErr(qc *QueryCtx, err error) bool {
	if !qc.SpillEnabled() {
		return false
	}
	var be *BudgetError
	return errors.As(err, &be) && !be.Disk
}

// diskErr reports whether err means "the disk side gave out": an ENOSPC /
// write failure or a spill-budget denial. The aggregation ladder reacts
// to these by degrading to a serial single-spool pass.
func diskErr(err error) bool {
	if errors.Is(err, spill.ErrSpill) {
		return true
	}
	var be *BudgetError
	return errors.As(err, &be) && be.Disk
}

// collationOf returns the collation governing a column's strings.
func collationOf(info ColInfo) types.Collation {
	if info.Heap != nil {
		return info.Heap.Collation()
	}
	return info.Collation
}

// spillSpecFor maps one operator column to its spill representation:
// strings re-intern into chunk heaps, dictionary columns spill their
// indexes (the dict array stays in the schema), scalars spill raw bits.
func spillSpecFor(info ColInfo) spill.ColSpec {
	if info.Type == types.String {
		return spill.ColSpec{Str: true, Sentinel: types.NullToken, Collation: collationOf(info)}
	}
	if info.Dict != nil {
		return spill.ColSpec{Sentinel: types.NullToken}
	}
	return spill.ColSpec{Signed: signedType(info.Type), Sentinel: types.NullBits(info.Type)}
}

func spillSpecs(schema []ColInfo) []spill.ColSpec {
	specs := make([]spill.ColSpec, len(schema))
	for c, info := range schema {
		specs[c] = spillSpecFor(info)
	}
	return specs
}

// spillNullHash stands in for NULL in content hashing, so NULL keys land
// in one partition on both sides of a join.
const spillNullHash = 0x9ae16a3b2f90404f

// spillValHash hashes one key value by content: strings hash their
// collated content (tokens from different heaps are not comparable),
// scalars and dictionary indexes hash their raw bits — exactly the
// equality domain the in-memory operators group and join on.
func spillValHash(v uint64, str bool, coll types.Collation, h *heap.Heap) uint64 {
	if str {
		if v == types.NullToken {
			return spillNullHash
		}
		return coll.Hash(h.Get(v))
	}
	return v
}

// spillHasher folds per-column value hashes into a depth-salted partition
// hash. The salt makes each recursion level shuffle keys into different
// buckets, so a partition that collides at depth d spreads at d+1.
type spillHasher struct{ h uint64 }

func newSpillHasher(depth int) spillHasher {
	return spillHasher{h: 1469598103934665603 ^ uint64(depth+1)*0x9E3779B97F4A7C15}
}

func (s *spillHasher) fold(v uint64) {
	s.h ^= v
	s.h *= 1099511628211
}

// part finishes the hash and returns the partition in [0, spillFanout).
func (s *spillHasher) part() int {
	h := s.h
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h >> 61)
}

// readChunks calls fn on every chunk of the given spill files, in order.
func readChunks(mgr *spill.Manager, paths []string, stats *spill.Stats, fn func(*spill.Chunk) error) error {
	for _, path := range paths {
		r, err := mgr.OpenReader(path, stats)
		if err != nil {
			return err
		}
		for {
			ch, err := r.Next()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = fn(ch)
			}
			if err != nil {
				r.Close()
				return err
			}
		}
		r.Close()
	}
	return nil
}

// spillPartitioner is the one hash-fan-out spill writer, shared by the
// aggregation's evictions and the grace join's two sides: rows go to a
// lazily created writer per bucket, and every file not handed over by
// finish is removed by abandon, so a torn write never becomes visible.
type spillPartitioner struct {
	mgr     *spill.Manager
	stats   *OpSpillStats
	specs   []spill.ColSpec
	writers []*spill.Writer
	// row and heaps (the heaps resolving row's string tokens) are the
	// scratch a caller fills before append.
	row   []uint64
	heaps []*heap.Heap
}

func newSpillPartitioner(mgr *spill.Manager, stats *OpSpillStats, specs []spill.ColSpec, fan int) *spillPartitioner {
	return &spillPartitioner{mgr: mgr, stats: stats, specs: specs, writers: make([]*spill.Writer, fan),
		row: make([]uint64, len(specs)), heaps: make([]*heap.Heap, len(specs))}
}

// writer returns bucket's writer, creating its file on first use.
func (p *spillPartitioner) writer(bucket int) (*spill.Writer, error) {
	if p.writers[bucket] == nil {
		w, err := p.mgr.NewWriter(p.specs, &p.stats.IO)
		if err != nil {
			return nil, err
		}
		p.writers[bucket] = w
	}
	return p.writers[bucket], nil
}

// append writes p.row to bucket.
func (p *spillPartitioner) append(bucket int) error {
	w, err := p.writer(bucket)
	if err != nil {
		return err
	}
	return w.Append(p.row, p.heaps)
}

// finish closes the writers and hands over one path per bucket ("" for
// buckets no row reached).
func (p *spillPartitioner) finish() ([]string, error) {
	paths := make([]string, len(p.writers))
	for b, w := range p.writers {
		if w == nil {
			continue
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		paths[b] = w.Path()
		p.stats.AddPartitions(1)
	}
	p.writers = nil
	return paths, nil
}

// abandon removes every file of an attempt finish did not complete; the
// partitioning functions defer it.
func (p *spillPartitioner) abandon() {
	for _, w := range p.writers {
		if w != nil {
			w.Close()
			_ = p.mgr.Remove(w.Path())
		}
	}
	p.writers = nil
}

// repartition fans the rows of files out again by the depth-salted content
// hash of keyCols, removing the inputs on success.
func repartition(mgr *spill.Manager, stats *OpSpillStats, specs []spill.ColSpec, files []string, keyCols []int, depth int) ([]string, error) {
	p := newSpillPartitioner(mgr, stats, specs, spillFanout)
	defer p.abandon()
	err := readChunks(mgr, files, &stats.IO, func(ch *spill.Chunk) error {
		for c := range specs {
			p.heaps[c] = ch.Cols[c].Heap
		}
		for i := 0; i < ch.Rows; i++ {
			h := newSpillHasher(depth)
			for _, kc := range keyCols {
				h.fold(spillValHash(ch.Cols[kc].Values[i], specs[kc].Str, specs[kc].Collation, ch.Cols[kc].Heap))
			}
			for c := range specs {
				p.row[c] = ch.Cols[c].Values[i]
			}
			if err := p.append(h.part()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths, err := p.finish()
	if err != nil {
		return nil, err
	}
	for _, path := range files {
		_ = mgr.Remove(path)
	}
	return paths, nil
}

// mergeCursor walks the rows of one spill run during a merge, holding one
// decoded chunk at a time and charging its footprint against the memory
// budget (released when the next chunk replaces it). row is the current
// row, over the chunk's columns and heaps.
type mergeCursor struct {
	qc      *QueryCtx
	op      string
	m       *spill.Manager
	r       *spill.Reader
	path    string
	row     rowRef
	rows    int
	charged int
	done    bool
}

// openMergeCursor opens path and positions on the first row.
func openMergeCursor(qc *QueryCtx, op string, m *spill.Manager, path string, stats *spill.Stats) (*mergeCursor, error) {
	r, err := m.OpenReader(path, stats)
	if err != nil {
		return nil, err
	}
	c := &mergeCursor{qc: qc, op: op, m: m, r: r, path: path}
	if err := c.load(); err != nil {
		c.close(false)
		return nil, err
	}
	return c, nil
}

func (c *mergeCursor) unload() {
	c.qc.Release(c.charged)
	c.charged = 0
	c.rows = 0
	clear(c.row.cols) // lets the chunk go
	clear(c.row.heaps)
}

func (c *mergeCursor) load() error {
	ch, err := c.r.Next()
	if err == io.EOF {
		c.unload()
		c.done = true
		return nil
	}
	if err != nil {
		return err
	}
	c.unload()
	n := ch.Bytes()
	if err := c.qc.Charge(c.op, n); err != nil {
		return err
	}
	c.charged = n
	if c.row.cols == nil {
		c.row.cols = make([][]uint64, len(ch.Cols))
		c.row.heaps = make([]*heap.Heap, len(ch.Cols))
	}
	for i := range ch.Cols {
		c.row.cols[i], c.row.heaps[i] = ch.Cols[i].Values, ch.Cols[i].Heap
	}
	c.row.i, c.rows = 0, ch.Rows
	return nil
}

// advance moves to the next row, loading the next chunk at a boundary.
func (c *mergeCursor) advance() error {
	c.row.i++
	if c.row.i < c.rows {
		return nil
	}
	return c.load()
}

func (c *mergeCursor) val(col int) uint64         { return c.row.cols[col][c.row.i] }
func (c *mergeCursor) strHeap(col int) *heap.Heap { return c.row.heaps[col] }

// close releases the chunk charge and the file handle; remove also
// deletes the run file, returning its disk budget.
func (c *mergeCursor) close(remove bool) {
	c.unload()
	if c.r != nil {
		c.r.Close()
		c.r = nil
	}
	if remove && c.m != nil {
		_ = c.m.Remove(c.path)
	}
}
