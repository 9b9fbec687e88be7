// Package delta is the uncompressed, row-oriented write overlay of the
// engine (DESIGN.md §11, in the spirit of MorphStore's immutable base +
// mutable delta split): the compressed columnar base tables stay
// read-only, and every INSERT, UPDATE and DELETE lands here as inserted
// rows plus a deleted-row log over the base.
//
// Visibility is MVCC, epoch-based. The store carries two monotonically
// increasing commit epochs: the *applied* epoch (the highest epoch any
// transaction has been staged under) and the *published* epoch (the
// highest epoch readers may see). A committing transaction stages its
// rows at applied+1 while its WAL records are still being made durable,
// and publishes that epoch only after the group fsync succeeds — so a
// reader can never observe a transaction that might yet fail its
// durability point. Every inserted row records the epoch it was born
// (and, when later deleted, the epoch it died), and every base deletion
// records its epoch, so a snapshot can be cut at any still-live epoch.
//
// Readers pin epochs: Pin returns the current published epoch with a
// reference count, and a View built at a pinned epoch stays constructible
// and exact until the pin is released. GC reclaims the values of dead
// delta rows (rows whose death epoch is at or below every pinned epoch)
// while keeping their row-ID slots, so long snapshots never see rows
// vanish and short ones don't pin memory forever.
//
// Writers are optimistic: they buffer operations privately against their
// pinned snapshot and validate write-write conflicts at commit via
// CommitStage — first committer wins, the loser gets ErrConflict and
// retries against a fresh snapshot.
//
// The store is the in-memory half of the write path; durability is the
// WAL's job (internal/wal), which replays committed transactions back
// through Apply on open.
package delta

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"tde/internal/storage"
	"tde/internal/types"
)

// ErrConflict is returned by CommitStage when a transaction's operations
// conflict with a transaction that committed after its snapshot was
// taken (first-committer-wins). The transaction should be retried from a
// fresh snapshot; match with errors.Is.
var ErrConflict = errors.New("write-write conflict: a concurrent transaction committed first")

// Value is one column value of a delta row, held fully resolved: scalars
// carry full-width value bits exactly as the execution engine's widened
// vectors do (NULL is the type's sentinel, types.NullBits), and strings
// carry the Go string itself (NULL is Bits == types.NullToken). Keeping
// delta rows resolved — not dictionary- or heap-encoded — is what lets a
// scan splice them into block iteration without touching the base
// column's compression state.
type Value struct {
	Bits uint64
	Str  string
}

// Scalar returns a scalar value from full-width bits.
func Scalar(bits uint64) Value { return Value{Bits: bits} }

// String returns a non-NULL string value.
func String(s string) Value { return Value{Str: s} }

// NullOf returns the NULL value for a column of type t.
func NullOf(t types.Type) Value {
	if t == types.String {
		return Value{Bits: types.NullToken}
	}
	return Value{Bits: types.NullBits(t)}
}

// IsNullString reports whether a string-column value is NULL.
func (v Value) IsNullString() bool { return v.Bits == types.NullToken }

// OpKind distinguishes the two physical row operations. UPDATE is logged
// and applied physically as delete-old + insert-new.
type OpKind uint8

const (
	OpInsert OpKind = iota + 1
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one physical row operation of a transaction, in the exact shape
// the WAL logs and replays.
type Op struct {
	Table string
	Kind  OpKind
	// Row holds the inserted values, one per base-table column, for
	// OpInsert.
	Row []Value
	// RowID is the target of an OpDelete. Row IDs are stable within one
	// base generation: base rows occupy [0, baseRows), inserted delta rows
	// take baseRows + their insertion index (dead insertions keep
	// consuming IDs, so IDs never shift — GC frees their values but never
	// their slots).
	RowID uint64
}

// insRow is one committed inserted row: born/dead are commit epochs
// (dead == 0 means alive). GC sets vals to nil once no pinned epoch can
// still see the row; the slot itself stays, keeping row IDs stable.
type insRow struct {
	born, dead uint64
	vals       []Value
}

// tableDelta is one table's overlay.
type tableDelta struct {
	baseRows int
	// ins is append-only in commit-epoch order, so the rows visible at
	// epoch E are exactly the prefix with born <= E.
	ins []insRow
	// dels logs deletions of base rows ([0, baseRows)) with their commit
	// epoch, also in nondecreasing epoch order; deletions of delta rows
	// are recorded in insRow.dead instead.
	dels   []delRec
	delSet map[uint64]bool

	dead      int   // delta rows with a death epoch
	reclaimed int   // dead delta rows whose values GC has freed
	bytes     int64 // approximate heap bytes held by live + unreclaimed rows
}

type delRec struct {
	id    uint64
	epoch uint64
}

// Store is a database's write overlay: one tableDelta per mutated table,
// guarded by a single RWMutex (commit staging takes the write lock; view
// construction takes the read lock). A Store is bound to one generation
// of base tables; Reset rebinds it after a merge rewrites the base.
type Store struct {
	mu        sync.RWMutex
	applied   uint64 // highest staged commit epoch
	published uint64 // highest reader-visible epoch (<= applied)
	gen       uint64 // base generation, bumped by Reset
	// baseEpoch is the published epoch at the last Reset: snapshots below
	// it describe a previous base generation and can no longer be built.
	baseEpoch uint64
	pins      map[uint64]int
	tables    map[string]*tableDelta
	base      map[string]*storage.Table
}

// NewStore returns a store bound to the given base tables.
func NewStore(tables []*storage.Table) *Store {
	s := &Store{pins: map[uint64]int{}}
	s.Reset(tables)
	return s
}

// Reset drops every overlay and rebinds the store to a new base-table
// generation (after db.Compact merged the deltas into the base). The
// commit epochs keep increasing across generations; outstanding pins stay
// valid for the Views already built from them, but new views can no
// longer be cut below the reset point.
func (s *Store) Reset(tables []*storage.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables = map[string]*tableDelta{}
	s.base = map[string]*storage.Table{}
	for _, t := range tables {
		s.base[t.Name] = t
	}
	s.gen++
	s.published = s.applied // nothing unpublished survives a reset
	s.baseEpoch = s.published
}

// Register binds one additional base table (a table imported after the
// store was created). No-op if already bound.
func (s *Store) Register(t *storage.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.base[t.Name]; !ok {
		s.base[t.Name] = t
	}
}

// Epoch returns the current published commit epoch.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.published
}

// Gen returns the current base generation; CommitStage rejects snapshots
// from an earlier generation with ErrConflict.
func (s *Store) Gen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Pin takes a reference on the current published epoch and returns it
// together with the generation it belongs to. Until the matching Unpin,
// views can be built at that epoch and GC will not reclaim any row still
// visible there.
func (s *Store) Pin() (epoch, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[s.published]++
	return s.published, s.gen
}

// Unpin releases one reference on a pinned epoch.
func (s *Store) Unpin(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.pins[epoch]
	if !ok {
		return // double-unpin is a bug, but not one worth crashing over
	}
	if n <= 1 {
		delete(s.pins, epoch)
	} else {
		s.pins[epoch] = n - 1
	}
}

// Pins returns the number of distinct live pinned epochs.
func (s *Store) Pins() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pins)
}

// minPinLocked is the GC horizon: the smallest epoch any reader may still
// cut a view at — the minimum over pinned epochs, or the published epoch
// when nothing is pinned.
func (s *Store) minPinLocked() uint64 {
	m := s.published
	for e := range s.pins {
		if e < m {
			m = e
		}
	}
	return m
}

// Dirty reports whether any table carries overlay rows or deletions.
func (s *Store) Dirty() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, td := range s.tables {
		if len(td.ins) > 0 || len(td.dels) > 0 {
			return true
		}
	}
	return false
}

// DirtyTables lists the tables with a non-empty overlay.
func (s *Store) DirtyTables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for name, td := range s.tables {
		if len(td.ins) > 0 || len(td.dels) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// SizeHint returns the overlay's total row-slot count (live + dead
// insertions + base deletions) and approximate heap bytes — the inputs
// to the auto-compaction thresholds and admission backpressure.
func (s *Store) SizeHint() (rows int, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, td := range s.tables {
		rows += len(td.ins) + len(td.dels)
		bytes += td.bytes
	}
	return rows, bytes
}

// DeadRows returns the number of dead delta rows whose values GC has not
// yet reclaimed.
func (s *Store) DeadRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, td := range s.tables {
		n += td.dead - td.reclaimed
	}
	return n
}

// delta returns (creating on demand) the overlay for a bound table.
// Caller holds the write lock.
func (s *Store) delta(name string) (*tableDelta, error) {
	td := s.tables[name]
	if td != nil {
		return td, nil
	}
	base := s.base[name]
	if base == nil {
		return nil, fmt.Errorf("delta: unknown table %q", name)
	}
	td = &tableDelta{baseRows: base.Rows(), delSet: map[uint64]bool{}}
	s.tables[name] = td
	return td, nil
}

// insCountAt returns how many inserted rows are visible-or-dead at epoch
// E — the length of the prefix with born <= E (born is nondecreasing).
func insCountAt(td *tableDelta, e uint64) int {
	return sort.Search(len(td.ins), func(i int) bool { return td.ins[i].born > e })
}

func rowBytes(vals []Value) int64 {
	n := int64(48 + 24*len(vals))
	for i := range vals {
		n += int64(len(vals[i].Str))
	}
	return n
}

// validateLocked checks one batch of final-ID operations against current
// staged state plus the batch's own earlier effects, without mutating
// anything. Caller holds the write lock.
func (s *Store) validateLocked(ops []Op) error {
	pendIns := map[string]int{}
	pendDel := map[string]map[uint64]bool{}
	for _, op := range ops {
		td, err := s.delta(op.Table)
		if err != nil {
			return err
		}
		switch op.Kind {
		case OpInsert:
			if want := len(s.base[op.Table].Columns); len(op.Row) != want {
				return fmt.Errorf("delta: table %q insert has %d values, want %d",
					op.Table, len(op.Row), want)
			}
			pendIns[op.Table]++
		case OpDelete:
			dels := pendDel[op.Table]
			if dels == nil {
				dels = map[uint64]bool{}
				pendDel[op.Table] = dels
			}
			if dels[op.RowID] {
				return fmt.Errorf("delta: table %q row %d deleted twice in one transaction", op.Table, op.RowID)
			}
			if op.RowID < uint64(td.baseRows) {
				if td.delSet[op.RowID] {
					return fmt.Errorf("delta: table %q base row %d already deleted", op.Table, op.RowID)
				}
			} else {
				idx := op.RowID - uint64(td.baseRows)
				if idx >= uint64(len(td.ins)+pendIns[op.Table]) {
					return fmt.Errorf("delta: table %q delete targets unknown row %d", op.Table, op.RowID)
				}
				if idx < uint64(len(td.ins)) && td.ins[idx].dead != 0 {
					return fmt.Errorf("delta: table %q delta row %d already deleted", op.Table, op.RowID)
				}
			}
			dels[op.RowID] = true
		default:
			return fmt.Errorf("delta: unknown op kind %d", op.Kind)
		}
	}
	return nil
}

// mutateLocked applies a validated batch under epoch e. Caller holds the
// write lock and has validated the batch.
func (s *Store) mutateLocked(ops []Op, e uint64) {
	for _, op := range ops {
		td := s.tables[op.Table]
		switch op.Kind {
		case OpInsert:
			td.ins = append(td.ins, insRow{born: e, vals: op.Row})
			td.bytes += rowBytes(op.Row)
		case OpDelete:
			if op.RowID < uint64(td.baseRows) {
				td.dels = append(td.dels, delRec{id: op.RowID, epoch: e})
				td.delSet[op.RowID] = true
			} else {
				td.ins[op.RowID-uint64(td.baseRows)].dead = e
				td.dead++
			}
		}
	}
}

// Apply commits one transaction's operations atomically under the next
// epoch, publishes it, and returns that epoch. The operations carry final
// row IDs (this is the WAL-replay entry point — replaying committed
// transactions in commit order reproduces the exact staging the original
// run performed); Apply re-checks the structural invariants and fails —
// without applying anything — if they do not hold, which on replay means
// a corrupt or mismatched log.
func (s *Store) Apply(ops []Op) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.validateLocked(ops); err != nil {
		return 0, err
	}
	e := s.applied + 1
	s.mutateLocked(ops, e)
	s.applied = e
	s.published = e
	return e, nil
}

// CommitStage is the optimistic-concurrency commit step. It validates the
// transaction's buffered operations (built against the pinned snapshot
// snapEpoch of generation snapGen) against everything committed or staged
// since, remaps the transaction's provisional insert row IDs to their
// final slots, and stages the remapped batch under the next applied epoch
// — without publishing it. The caller serializes CommitStage calls
// (commit order = staging order), writes the remapped batch to the WAL,
// and calls Publish once the log is durable.
//
// Validation is first-committer-wins: a delete (including the delete half
// of an UPDATE) targeting a row another transaction has deleted since
// snapEpoch fails with ErrConflict, as does a snapshot from a previous
// base generation. Inserts never conflict.
func (s *Store) CommitStage(ops []Op, snapEpoch, snapGen uint64) ([]Op, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if snapGen != s.gen {
		return nil, 0, fmt.Errorf("%w: base was compacted under the transaction", ErrConflict)
	}
	type tctx struct {
		td        *tableDelta
		provStart uint64 // first provisional (own-insert) row ID at snapEpoch
		pendIns   int
		pendDel   map[uint64]bool
	}
	ctxs := map[string]*tctx{}
	lookup := func(name string) (*tctx, error) {
		if tc := ctxs[name]; tc != nil {
			return tc, nil
		}
		td, err := s.delta(name)
		if err != nil {
			return nil, err
		}
		tc := &tctx{
			td:        td,
			provStart: uint64(td.baseRows + insCountAt(td, snapEpoch)),
			pendDel:   map[uint64]bool{},
		}
		ctxs[name] = tc
		return tc, nil
	}
	out := make([]Op, len(ops))
	for i, op := range ops {
		tc, err := lookup(op.Table)
		if err != nil {
			return nil, 0, err
		}
		td := tc.td
		switch op.Kind {
		case OpInsert:
			if want := len(s.base[op.Table].Columns); len(op.Row) != want {
				return nil, 0, fmt.Errorf("delta: table %q insert has %d values, want %d",
					op.Table, len(op.Row), want)
			}
			tc.pendIns++
			out[i] = op
		case OpDelete:
			id := op.RowID
			switch {
			case id < uint64(td.baseRows):
				if td.delSet[id] {
					return nil, 0, fmt.Errorf("%w: table %q row %d", ErrConflict, op.Table, id)
				}
			case id < tc.provStart:
				// A committed delta row of the snapshot: dead at any epoch
				// means a concurrent transaction won the row.
				idx := id - uint64(td.baseRows)
				if idx >= uint64(len(td.ins)) || td.ins[idx].dead != 0 {
					return nil, 0, fmt.Errorf("%w: table %q row %d", ErrConflict, op.Table, id)
				}
			default:
				// The transaction deletes one of its own pending inserts:
				// remap the provisional ID onto the slot the insert will
				// actually take, shifted by the rows committed since the
				// snapshot.
				k := id - tc.provStart
				if k >= uint64(tc.pendIns) {
					return nil, 0, fmt.Errorf("delta: table %q delete targets unknown pending row %d", op.Table, id)
				}
				id = uint64(td.baseRows+len(td.ins)) + k
			}
			if tc.pendDel[id] {
				return nil, 0, fmt.Errorf("delta: table %q row %d deleted twice in one transaction", op.Table, id)
			}
			tc.pendDel[id] = true
			out[i] = Op{Table: op.Table, Kind: OpDelete, RowID: id}
		default:
			return nil, 0, fmt.Errorf("delta: unknown op kind %d", op.Kind)
		}
	}
	// Defense in depth: the remapped batch must also pass the structural
	// validation WAL replay will apply to it on the next open.
	if err := s.validateLocked(out); err != nil {
		return nil, 0, fmt.Errorf("delta: remapped batch failed validation: %w", err)
	}
	e := s.applied + 1
	s.mutateLocked(out, e)
	s.applied = e
	return out, e, nil
}

// Publish makes every epoch up to e reader-visible. Callers publish in
// durability order: by the time epoch e's log bytes are on disk, so are
// those of every earlier epoch, so advancing to the maximum is sound even
// when group-commit waiters finish out of order.
func (s *Store) Publish(e uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e > s.published {
		if e > s.applied {
			e = s.applied
		}
		s.published = e
	}
}

// GC frees the values of dead delta rows no pinned snapshot can still
// see: rows whose death epoch is at or below every pinned epoch (and the
// published epoch). Row-ID slots stay occupied so later deletes and
// views keep addressing the same rows. Returns how many rows it
// reclaimed.
func (s *Store) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	horizon := s.minPinLocked()
	n := 0
	for _, td := range s.tables {
		if td.dead == td.reclaimed {
			continue
		}
		for i := range td.ins {
			r := &td.ins[i]
			if r.dead != 0 && r.dead <= horizon && r.vals != nil {
				td.bytes -= rowBytes(r.vals)
				r.vals = nil
				td.reclaimed++
				n++
			}
		}
	}
	return n
}

// InsRow is one visible inserted row of a View.
type InsRow struct {
	ID   uint64
	Vals []Value
}

// View is a frozen snapshot of one table's overlay at a commit epoch:
// which base rows are deleted and which inserted rows are visible. All
// fields are immutable after construction (visible rows are copied out of
// the store), so a View is safe to share across the query's operators and
// workers, and stays exact across later commits, GC and compaction.
type View struct {
	Table *storage.Table
	Epoch uint64
	// deleted is a bitmap over base rows.
	deleted     []uint64
	DeletedRows int
	Ins         []InsRow
	baseRows    int
}

// View snapshots table t's overlay at the published epoch, or returns nil
// when t carries no overlay at all — the planner's signal that the plain
// compressed-scan (and its index/dictionary rewrites) remain valid.
func (s *Store) View(t *storage.Table) *View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	td := s.tables[t.Name]
	if td == nil || (len(td.ins) == 0 && len(td.dels) == 0) {
		return nil
	}
	return s.viewLocked(t, td, s.published, nil)
}

// Views snapshots every given table's overlay at the published epoch
// under one read lock; see ViewsAt.
func (s *Store) Views(tables []*storage.Table) map[string]*View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewsLocked(tables, s.published)
}

// ViewsAt snapshots every given table's overlay at a pinned epoch under
// one read lock, so the result is a consistent cross-table snapshot: a
// commit that touches two tables is either visible in both views or in
// neither. Clean tables are omitted from the map (same nil contract as
// View). The epoch must not predate the current base generation (pins
// taken before a Reset cannot cut new views).
func (s *Store) ViewsAt(tables []*storage.Table, epoch uint64) (map[string]*View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if epoch < s.baseEpoch {
		return nil, fmt.Errorf("delta: snapshot epoch %d predates the current base generation (reset at %d)", epoch, s.baseEpoch)
	}
	return s.viewsLocked(tables, epoch), nil
}

func (s *Store) viewsLocked(tables []*storage.Table, epoch uint64) map[string]*View {
	var out map[string]*View
	for _, t := range tables {
		td := s.tables[t.Name]
		if td == nil || (insCountAt(td, epoch) == 0 && len(td.dels) == 0) {
			continue
		}
		v := s.viewLocked(t, td, epoch, nil)
		if !v.Dirty() {
			continue
		}
		if out == nil {
			out = map[string]*View{}
		}
		out[t.Name] = v
	}
	return out
}

// ViewWith snapshots table t's overlay at the published epoch and
// overlays the given uncommitted operations on top; see ViewWithAt.
func (s *Store) ViewWith(t *storage.Table, pending []Op) (*View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.base[t.Name]; !ok {
		return nil, fmt.Errorf("delta: unknown table %q", t.Name)
	}
	return s.viewLocked(t, s.tables[t.Name], s.published, pending), nil
}

// ViewWithAt snapshots table t's overlay at a pinned epoch and overlays
// the given uncommitted operations on top — the transaction's private
// read view, under which its own statements see its earlier writes. It
// never returns nil (UPDATE/DELETE need a row-addressed view even over a
// clean table). Returns an error if t is not bound to the store or the
// epoch predates the current base generation.
func (s *Store) ViewWithAt(t *storage.Table, epoch uint64, pending []Op) (*View, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.base[t.Name]; !ok {
		return nil, fmt.Errorf("delta: unknown table %q", t.Name)
	}
	if epoch < s.baseEpoch {
		return nil, fmt.Errorf("delta: snapshot epoch %d predates the current base generation (reset at %d)", epoch, s.baseEpoch)
	}
	return s.viewLocked(t, s.tables[t.Name], epoch, pending), nil
}

// viewLocked builds the snapshot at the given epoch. td may be nil (clean
// table). Caller holds at least the read lock.
func (s *Store) viewLocked(t *storage.Table, td *tableDelta, epoch uint64, pending []Op) *View {
	baseRows := t.Rows()
	if td != nil {
		baseRows = td.baseRows
	}
	v := &View{Table: t, Epoch: epoch, baseRows: baseRows}
	v.deleted = make([]uint64, (baseRows+63)/64)
	visIns := 0
	if td != nil {
		for _, d := range td.dels {
			if d.epoch > epoch {
				break // epochs are nondecreasing along the log
			}
			v.deleted[d.id/64] |= 1 << (d.id % 64)
			v.DeletedRows++
		}
		visIns = insCountAt(td, epoch)
		for i := 0; i < visIns; i++ {
			r := &td.ins[i]
			if r.dead != 0 && r.dead <= epoch {
				continue
			}
			v.Ins = append(v.Ins, InsRow{ID: uint64(baseRows + i), Vals: r.vals})
		}
	}
	// Overlay the transaction's own uncommitted operations. Provisional
	// IDs continue where the snapshot's visible insertions end, matching
	// what CommitStage will remap them from.
	nextID := uint64(baseRows + visIns)
	for _, op := range pending {
		if op.Table != t.Name {
			continue
		}
		switch op.Kind {
		case OpInsert:
			v.Ins = append(v.Ins, InsRow{ID: nextID, Vals: op.Row})
			nextID++
		case OpDelete:
			if op.RowID < uint64(baseRows) {
				v.deleted[op.RowID/64] |= 1 << (op.RowID % 64)
				v.DeletedRows++
			} else {
				for i := range v.Ins {
					if v.Ins[i].ID == op.RowID {
						v.Ins = append(v.Ins[:i], v.Ins[i+1:]...)
						break
					}
				}
			}
		}
	}
	return v
}

// TableStats is one table's overlay accounting, as reported by Stats.
type TableStats struct {
	Table string
	// BaseRows is the base generation's row count.
	BaseRows int
	// DeletedBase is the number of committed base-row deletions.
	DeletedBase int
	// LiveRows is the number of inserted rows visible at the published
	// epoch.
	LiveRows int
	// DeadRows is the number of dead inserted rows whose values are still
	// held for pinned snapshots (GC debt).
	DeadRows int
	// ReclaimedRows is the number of dead rows GC has already freed; their
	// row-ID slots remain until the next compaction.
	ReclaimedRows int
	// Bytes approximates the heap bytes held by the overlay.
	Bytes int64
}

// Stats is a point-in-time snapshot of the store's MVCC state.
type Stats struct {
	Published, Applied uint64
	// MinPinned is the GC horizon (the published epoch when no reader
	// holds a pin).
	MinPinned uint64
	// Pins is the number of distinct pinned epochs.
	Pins int
	Gen  uint64
	// Tables lists the tables with any overlay state, sorted by name.
	Tables []TableStats
}

// Stats reports the store's epochs, pins and per-table overlay sizes.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Published: s.published,
		Applied:   s.applied,
		MinPinned: s.minPinLocked(),
		Pins:      len(s.pins),
		Gen:       s.gen,
	}
	for name, td := range s.tables {
		if len(td.ins) == 0 && len(td.dels) == 0 {
			continue
		}
		live := 0
		for i := 0; i < insCountAt(td, s.published); i++ {
			r := &td.ins[i]
			if r.dead == 0 || r.dead > s.published {
				live++
			}
		}
		st.Tables = append(st.Tables, TableStats{
			Table:         name,
			BaseRows:      td.baseRows,
			DeletedBase:   len(td.dels),
			LiveRows:      live,
			DeadRows:      td.dead - td.reclaimed,
			ReclaimedRows: td.reclaimed,
			Bytes:         td.bytes,
		})
	}
	sort.Slice(st.Tables, func(i, j int) bool { return st.Tables[i].Table < st.Tables[j].Table })
	return st
}

// BaseRows returns the number of base rows the view covers.
func (v *View) BaseRows() int { return v.baseRows }

// BaseDeleted reports whether base row i is deleted in this snapshot.
func (v *View) BaseDeleted(i int) bool {
	return v.deleted[uint64(i)/64]&(1<<(uint64(i)%64)) != 0
}

// Deleted returns the deletion bitmap words over base rows [at, at+n),
// at a multiple of 64: bit j of word k marks row at+64k+j deleted.
func (v *View) Deleted(at, n int) []uint64 {
	return v.deleted[at/64 : (at+n+63)/64]
}

// VisibleRows returns the snapshot's logical row count.
func (v *View) VisibleRows() int {
	return v.baseRows - v.DeletedRows + len(v.Ins)
}

// Dirty reports whether the view differs from the plain base table.
func (v *View) Dirty() bool {
	return v.DeletedRows > 0 || len(v.Ins) > 0
}
