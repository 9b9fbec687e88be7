// Package tde is a Go reproduction of the Tableau Data Engine as
// described in "Leveraging Compression in the Tableau Data Engine"
// (Wesley & Terlecki, SIGMOD 2014): a read-only analytic column store
// that operates directly on compressed data.
//
// The public API covers the product surface the paper describes: import
// flat files through the TextScan/FlowTable pipeline (with dynamic
// encoding, heap acceleration, type narrowing and metadata extraction),
// persist single-file databases, inspect per-column encodings and derived
// metadata, dictionary-compress dimension columns, and run analytic SQL
// whose plans filter dictionary-compressed and string columns once per
// dictionary entry (a token truth table, Sect. 4.1), read only the row
// ranges a filtered run-length index keeps (Sect. 4.2's rank join) and
// take the tactical fetch-join/ordered-aggregation upgrades.
//
// Start with New or Open, then ImportCSV and Query:
//
//	db := tde.New()
//	if err := db.ImportCSVFile("orders", "orders.csv", tde.DefaultImportOptions()); err != nil { ... }
//	res, err := db.Query("SELECT status, COUNT(*) FROM orders GROUP BY status")
package tde

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"tde/internal/delta"
	"tde/internal/exec"
	"tde/internal/iofault"
	"tde/internal/plan"
	"tde/internal/spill"
	"tde/internal/sqlparse"
	"tde/internal/storage"
	"tde/internal/textscan"
	"tde/internal/types"
	"tde/internal/wal"
)

// ErrBudgetExceeded is returned (wrapped) when a query or import exceeds
// its memory budget; match it with errors.Is.
var ErrBudgetExceeded = exec.ErrBudgetExceeded

// ErrSpillBudgetExceeded is returned (wrapped) when a spilling query
// exceeds its disk budget as well as its memory budget. It also matches
// ErrBudgetExceeded.
var ErrSpillBudgetExceeded = exec.ErrSpillBudgetExceeded

// ErrCorrupt is matched (errors.Is) by every corruption error an Open
// reports, at any layer — file trailer, column checksum, or structural
// damage inside a column's encoded stream. The concrete error usually
// also carries a *CorruptionReport (errors.As) localizing the damage.
var ErrCorrupt = storage.ErrCorrupt

// ErrReadOnly is returned by mutating operations on a database that was
// opened with OpenOptions.Salvage and lost data to quarantine: persisting
// or extending a partial extract must be an explicit decision (use
// tdecheck -repair, or storage-level APIs) rather than a silent Save.
var ErrReadOnly = errors.New("tde: database was salvaged read-only; damaged columns are quarantined")

// ErrConflict is returned (wrapped) by Tx.Commit when the transaction
// lost a first-committer-wins race: a concurrent transaction that
// committed after this one's snapshot deleted or updated a row this one
// also deletes or updates. The transaction has been rolled back; retry it
// against a fresh snapshot (db.ExecRetry does this with jittered
// backoff). Match with errors.Is.
var ErrConflict = delta.ErrConflict

// ErrWriterPoisoned is matched (errors.Is) by every write-path error
// after a failure whose durable outcome is unknown — typically a commit
// fsync that failed with the commit record possibly on disk. Reads keep
// serving the last published snapshot; Begin, Exec, Commit, Compact and
// Save all fail with this error until the database is reopened, which
// re-derives the truth from the log.
var ErrWriterPoisoned = errors.New("tde: write path poisoned, reopen to recover")

// ErrClosed is returned by operations on a database whose Close has run.
var ErrClosed = errors.New("tde: database closed")

// CorruptionReport localizes damage found while opening a database:
// one entry per damaged table/column with byte offsets. It is both the
// error strict opens return and the report salvage opens produce.
type CorruptionReport = storage.CorruptionReport

// CorruptionEntry is one damaged region in a CorruptionReport.
type CorruptionEntry = storage.CorruptionEntry

// UnsupportedVersionError reports a database written by a newer format
// version than this build understands; the file is likely intact.
type UnsupportedVersionError = storage.UnsupportedVersionError

// InternalError reports a panic recovered at an engine entry point
// (Query, ImportCSV, Open): an engine bug or corrupt data that slipped
// past validation, contained so the process survives.
type InternalError struct {
	// Op names the operator (or phase) that was running when the engine
	// panicked.
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	op := e.Op
	if op == "" {
		op = "engine"
	}
	return fmt.Sprintf("tde: internal error in %s: %v", op, e.Value)
}

// containPanic recovers an internal panic into *InternalError. Deferred at
// every public entry point that runs engine code.
func containPanic(qc *exec.QueryCtx, err *error) {
	if r := recover(); r != nil {
		*err = &InternalError{Op: qc.Op(), Value: r, Stack: debug.Stack()}
	}
}

// Database is a set of named tables: an "extract" in Tableau terms. It
// persists as a single file (Sect. 2.3.3). The compressed base tables are
// immutable; INSERT, UPDATE and DELETE land in an uncompressed write
// overlay (internal/delta), made durable by a write-ahead log sidecar
// (internal/wal) and folded back into compressed extents by Compact.
type Database struct {
	// mu guards tables against the swap Compact performs and the append
	// imports perform; queries snapshot the slice under it.
	mu     sync.RWMutex
	tables []*storage.Table

	// path and fs bind a file-backed database to its on-disk image; path
	// is "" for in-memory databases, which skip the WAL entirely.
	path string
	fs   iofault.FS

	// dstore is the write overlay; binding identifies the exact base image
	// the WAL sidecar belongs to (a sidecar bound to a different image is
	// stale and ignored).
	dstore  *delta.Store
	binding wal.Binding

	// wmu guards the writer bookkeeping below and the commit critical
	// section (conflict validation + WAL append — both memory-speed; the
	// commit fsync happens outside it, shared via group commit). Writers
	// are otherwise concurrent: transactions buffer operations privately
	// against pinned epoch snapshots. Readers never take wmu.
	wmu      sync.Mutex
	wlog     *wal.Log
	walState walState
	walClean int64
	nextTx   uint64
	// writeErr poisons the write path after a failure whose durable
	// outcome is unknown (e.g. a commit-record fsync error): reads keep
	// working on the pre-failure snapshot, writes fail with
	// ErrWriterPoisoned until a reopen re-derives the truth from disk.
	writeErr error
	// txs registers in-flight transactions so Close can abort them;
	// activeTx counts them for quiesce (Compact/Save drain writers).
	txs      map[*Tx]bool
	activeTx int
	// admitWake is closed and cleared whenever admission state changes
	// (a transaction finished, quiesce ended, backpressure lifted); nil
	// when nobody waits. quiescing closes admission while a merge drains
	// and swaps; closed ends the write path permanently.
	admitWake chan struct{}
	quiescing bool
	closed    bool
	// queries registers in-flight reads' cancel funcs so Close can abort
	// them with a typed ErrClosed cause instead of leaving them running
	// against a closed database (guarded by wmu like txs).
	queries map[*queryReg]bool
	// compactor is the background auto-compaction runner, nil unless
	// EnableAutoCompact armed it.
	compactor *autoCompactor

	// persisted marks the tables present in the on-disk base image. DML on
	// a file-backed database is limited to these: WAL replay must be able
	// to find the table on reopen.
	persisted map[string]bool

	// salvaged is the corruption report of a Salvage open that lost data;
	// non-nil makes the database read-only (see ErrReadOnly).
	salvaged *CorruptionReport
}

// New returns an empty in-memory database.
func New() *Database {
	return &Database{fs: iofault.OS, dstore: delta.NewStore(nil), nextTx: 1}
}

// OpenOptions control how Open treats a damaged database file.
type OpenOptions struct {
	// Verify walks every value of every column at open (beyond the
	// checksum and structural validation strict opens always perform), so
	// even damage on an adversarially re-checksummed file surfaces at
	// open rather than at query time. It costs a full scan.
	Verify bool
	// Salvage opens a damaged file anyway: columns and tables that fail
	// their checksums are quarantined (detailed in the returned
	// CorruptionReport) and the intact remainder is opened read-only.
	Salvage bool
	// FS routes the database's file I/O — the base image read, the WAL
	// sidecar, and every write Compact and committed transactions perform.
	// nil means the real filesystem; tests inject disk faults here.
	FS iofault.FS
}

// Open loads a single-file database written by Save. Corrupt or truncated
// files return an error — never a panic: the image is checksummed (per
// column in format v2) and structurally validated, and any residual
// failure is contained as an *InternalError. The error matches ErrCorrupt
// and carries a *CorruptionReport localizing the damage; to open the
// intact remainder of a damaged file, use OpenWithOptions with Salvage.
func Open(path string) (*Database, error) {
	db, _, err := OpenWithOptions(path, OpenOptions{})
	return db, err
}

// OpenWithOptions loads a single-file database under opt. The report is
// non-nil exactly when damage was found: without Salvage the open also
// fails with that report as the error; with Salvage the database contains
// every intact table and column, is marked read-only, and err is nil.
func OpenWithOptions(path string, opt OpenOptions) (db *Database, rep *CorruptionReport, err error) {
	defer containPanic(nil, &err)
	fs := opt.FS
	if fs == nil {
		fs = iofault.OS
	}
	// Best-effort orphan sweeps: spill temp dirs abandoned by a crashed
	// process (recognizable by the tde-spill- prefix) are removed once
	// they are old enough to be surely dead, and so are the WAL/save temp
	// files a crashed commit or merge left next to the database.
	_, _ = spill.Sweep(os.TempDir(), time.Hour)
	_, _ = wal.SweepTemps(filepath.Dir(path), time.Hour)
	raw, err := fs.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	tables, rep, err := storage.ReadWithOptions(raw, storage.ReadOptions{
		Salvage:    opt.Salvage,
		DeepVerify: opt.Verify,
	})
	if err != nil {
		return nil, rep, err
	}
	db = &Database{
		tables:    tables,
		path:      path,
		fs:        fs,
		dstore:    delta.NewStore(tables),
		binding:   wal.Bind(raw),
		nextTx:    1,
		persisted: map[string]bool{},
	}
	for _, t := range tables {
		db.persisted[t.Name] = true
	}
	if rep != nil && len(rep.Entries) > 0 {
		db.salvaged = rep
	}
	// Crash recovery: replay the WAL sidecar's committed transactions into
	// the write overlay, so the reopened database carries exactly the
	// transactions whose commit records reached disk.
	if err := db.attachWAL(); err != nil {
		return nil, rep, err
	}
	return db, rep, nil
}

// Corruption returns the report of the salvage open that produced this
// database, or nil if it was opened clean.
func (db *Database) Corruption() *CorruptionReport { return db.salvaged }

// ReadOnly reports whether the database refuses mutation because a
// salvage open quarantined data.
func (db *Database) ReadOnly() bool { return db.salvaged != nil }

// Save writes the database as one file, the only on-disk format
// (Sect. 2.3.3: the user must be able to pick the database in a file
// dialog). Column-level compression is what keeps this copy cheap. Any
// uncompacted write-overlay rows are merged into the written image, so a
// saved file always round-trips the visible data.
//
// The write is crash-safe: data goes to a temporary file in the target
// directory which is fsynced and atomically renamed over the destination,
// so a crash mid-save never corrupts an existing extract. Saving a
// file-backed database over its own path is a Compact.
func (db *Database) Save(path string) (err error) {
	if db.salvaged != nil {
		return fmt.Errorf("%w: %d damaged regions", ErrReadOnly, len(db.salvaged.Entries))
	}
	defer containPanic(nil, &err)
	// Drain in-flight writers: the merged image must be a committed-only
	// snapshot, and saving over our own path swaps the base under the
	// overlay.
	release, err := db.quiesce(context.Background())
	if err != nil {
		return err
	}
	defer release()
	if db.writeErr != nil {
		return db.poisonedLocked()
	}
	merged, _, err := db.materializeLocked(context.Background(), QueryOptions{})
	if err != nil {
		return err
	}
	if path == db.path && db.path != "" {
		return db.swapBaseLocked(merged)
	}
	return storage.WriteFile(path, merged)
}

// Close shuts the database down: background auto-compaction stops,
// in-flight transactions are aborted (their epochs released, their later
// Exec/Commit calls failing), waiting BeginContext calls return ErrClosed,
// in-flight queries are cancelled with an error matching ErrClosed (their
// epoch pins released on the way out — never leaked), new QueryContext
// calls fail with ErrClosed, and the WAL append handle is closed.
// Everything committed before Close is durable and replayed on the next
// Open. Close is idempotent.
func (db *Database) Close() error {
	db.DisableAutoCompact()
	db.wmu.Lock()
	if db.closed {
		db.wmu.Unlock()
		return nil
	}
	db.closed = true
	txs := make([]*Tx, 0, len(db.txs))
	for tx := range db.txs {
		txs = append(txs, tx)
	}
	reads := make([]*queryReg, 0, len(db.queries))
	for q := range db.queries {
		reads = append(reads, q)
	}
	db.wakeAdmissionLocked()
	db.wmu.Unlock()
	for _, tx := range txs {
		tx.forceAbort()
	}
	for _, q := range reads {
		q.cancel(errQueryAborted)
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.wlog != nil {
		err := db.wlog.Close()
		db.wlog = nil
		return err
	}
	return nil
}

// TableNames lists the tables.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	return out
}

// Rows returns a table's visible row count (base rows minus deletions
// plus uncompacted insertions), or -1 if absent.
func (db *Database) Rows(table string) int {
	t := db.lookup(table)
	if t == nil {
		return -1
	}
	if v := db.dstore.View(t); v != nil {
		return v.VisibleRows()
	}
	return t.Rows()
}

func (db *Database) lookup(name string) *storage.Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// queryReg is one in-flight query's registration: the cancel func Close
// uses to abort it with a typed cause.
type queryReg struct {
	cancel context.CancelCauseFunc
}

// beginQuery admits one query against the close lifecycle: it fails with
// ErrClosed once Close has run, and otherwise returns a derived context
// Close can cancel (with a cause matching ErrClosed) plus the matching
// deregistration func. The registration uses wmu — the same lock that
// guards closed — so a query can never slip past a concurrent Close
// unobserved.
func (db *Database) beginQuery(ctx context.Context) (context.Context, func(), error) {
	if ctx == nil {
		ctx = context.Background()
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return nil, nil, ErrClosed
	}
	qctx, cancel := context.WithCancelCause(ctx)
	reg := &queryReg{cancel: cancel}
	if db.queries == nil {
		db.queries = map[*queryReg]bool{}
	}
	db.queries[reg] = true
	done := func() {
		db.wmu.Lock()
		delete(db.queries, reg)
		db.wmu.Unlock()
		cancel(nil) // release the derived context's resources
	}
	return qctx, done, nil
}

// snapshot cuts one consistent read snapshot: the table set and, for each
// table with an overlay, a frozen delta view at the current published
// epoch. A commit landing mid-query never changes what the query sees.
// db.mu is held across both reads so a base swap (Compact) can never
// interleave between the table set and the overlay views — the swap takes
// db.mu exclusively around both.
func (db *Database) snapshot() ([]*storage.Table, map[string]*delta.View) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables, db.dstore.Views(db.tables)
}

// pinnedSnapshot is snapshot plus an epoch reference: the returned views
// are cut exactly at the pinned epoch, and until release is called the
// epoch stays live — garbage collection will not reclaim rows it can see,
// and WriteStats reports it pinned. Queries hold the pin for their whole
// execution, so "multiple live read epochs" is literal: each in-flight
// query (and transaction) holds its own.
func (db *Database) pinnedSnapshot() (tables []*storage.Table, views map[string]*delta.View, release func()) {
	for {
		epoch, _ := db.dstore.Pin()
		db.mu.RLock()
		tables = db.tables
		v, err := db.dstore.ViewsAt(tables, epoch)
		db.mu.RUnlock()
		if err == nil {
			return tables, v, func() { db.dstore.Unpin(epoch) }
		}
		// A compaction swapped the base between Pin and ViewsAt, making the
		// pinned epoch unservable; re-pin against the new generation.
		db.dstore.Unpin(epoch)
	}
}

// ImportOptions control the import pipeline; the fields mirror the
// paper's experimental arms.
type ImportOptions struct {
	// Encode enables dynamic encoding (Sect. 3.2).
	Encode bool
	// Accelerate enables the heap accelerator (Sect. 5.1.4).
	Accelerate bool
	// Parallel parses and encodes columns concurrently (Sect. 5.1.2, 3.3).
	Parallel bool
	// FieldSep overrides separator detection (0 detects).
	FieldSep byte
	// Schema, when non-nil, overrides name/type inference: entries are
	// "name:type" with type one of bool,int,real,date,timestamp,str.
	Schema []string
	// HasHeader overrides header detection when HeaderSet.
	HasHeader bool
	HeaderSet bool
	// Collation applies to string columns: "binary", "ci" or "en".
	Collation string
}

// DefaultImportOptions enables everything, like the shipping product.
func DefaultImportOptions() ImportOptions {
	return ImportOptions{Encode: true, Accelerate: true, Parallel: true}
}

// ImportCSVFile imports a delimited text file as a new table.
func (db *Database) ImportCSVFile(table, path string, opt ImportOptions) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return db.ImportCSV(table, data, opt)
}

// ImportCSV imports delimited text as a new table, running the full
// TextScan => FlowTable pipeline: separator/type/header inference, tight
// buffer-oriented parsing, dynamic encoding, heap sorting, type narrowing
// and metadata extraction.
func (db *Database) ImportCSV(table string, data []byte, opt ImportOptions) error {
	return db.ImportCSVContext(context.Background(), table, data, opt, QueryOptions{})
}

// ImportCSVContext is ImportCSV under a cancellable context and resource
// limits: qopt.Timeout bounds wall time, qopt.MemoryBudget bounds the
// FlowTable's materialized size, and internal panics are contained as
// *InternalError.
func (db *Database) ImportCSVContext(ctx context.Context, table string, data []byte,
	opt ImportOptions, qopt QueryOptions) (err error) {
	if db.salvaged != nil {
		return ErrReadOnly
	}
	if db.lookup(table) != nil {
		return fmt.Errorf("tde: table %q already exists", table)
	}
	coll, ok := types.ParseCollation(opt.Collation)
	if !ok {
		return fmt.Errorf("tde: unknown collation %q", opt.Collation)
	}
	tsOpt := textscan.Options{
		FieldSep:  opt.FieldSep,
		Parallel:  opt.Parallel,
		HasHeader: opt.HasHeader,
		HeaderSet: opt.HeaderSet,
		Collation: coll,
	}
	if opt.Schema != nil {
		specs, err := parseSchema(opt.Schema)
		if err != nil {
			return err
		}
		tsOpt.Schema = specs
	}
	ts, err := textscan.New(data, tsOpt)
	if err != nil {
		return err
	}
	ft := exec.NewFlowTable(ts, exec.FlowTableConfig{
		Encode:     opt.Encode,
		Accelerate: opt.Accelerate,
		Parallel:   opt.Parallel,
		SortHeaps:  true,
		Narrow:     true,
	})
	qc, cancel := qopt.newQueryCtx(ctx)
	defer cancel()
	defer qc.DetachPool()
	defer qc.CleanupSpill()
	defer containPanic(qc, &err)
	bt, err := ft.BuildTable(qc)
	if err != nil {
		return err
	}
	t := bt.ToTable(table)
	db.mu.Lock()
	db.tables = append(db.tables, t)
	db.mu.Unlock()
	db.dstore.Register(t)
	return nil
}

func parseSchema(entries []string) ([]textscan.ColumnSpec, error) {
	specs := make([]textscan.ColumnSpec, 0, len(entries))
	for _, e := range entries {
		var name, tname string
		for i := len(e) - 1; i >= 0; i-- {
			if e[i] == ':' {
				name, tname = e[:i], e[i+1:]
				break
			}
		}
		if name == "" {
			return nil, fmt.Errorf("tde: schema entry %q is not name:type", e)
		}
		t, err := types.ParseType(tname)
		if err != nil {
			return nil, err
		}
		specs = append(specs, textscan.ColumnSpec{Name: name, Type: t})
	}
	return specs, nil
}

// AddTable registers a prebuilt internal table; used by generators and
// tests inside this module.
func (db *Database) AddTable(t *storage.Table) {
	db.mu.Lock()
	db.tables = append(db.tables, t)
	db.mu.Unlock()
	if t != nil {
		db.dstore.Register(t)
	}
}

// CompressColumn converts an encoded scalar column into a dictionary-
// compressed one (Sect. 3.4.3), so that a filter on the column, date-part
// calculations included, is evaluated once per entry of its (small)
// domain into a token truth table rather than once per row. Most
// valuable for dimension columns like dates.
func (db *Database) CompressColumn(table, column string) error {
	if db.salvaged != nil {
		return ErrReadOnly
	}
	t := db.lookup(table)
	if t == nil {
		return fmt.Errorf("tde: unknown table %q", table)
	}
	c := t.Column(column)
	if c == nil {
		return fmt.Errorf("tde: table %q has no column %q", table, column)
	}
	return storage.ConvertToDictCompression(c)
}

// Result is a query result with formatted values.
type Result struct {
	Columns []string
	// Rows holds the formatted cells, row-major. The rows of one
	// execution block slice one shared []string backing, and the cells of
	// one block share one backing string: a caller that keeps a single
	// cell keeps its block's string alive (strings.Clone detaches it).
	Rows [][]string
	// Plan describes the strategic plan that produced the result; when the
	// query degraded to disk it is suffixed with a per-operator spill
	// summary ("... => Spill[#4 HashJoin spills=1 parts=8 ...]").
	Plan string

	stats QueryStats
	tree  *exec.PlanNode
}

// Stats returns the query's resource-use counters, snapshotted after the
// last operator (exchange workers included) finished.
func (r *Result) Stats() QueryStats { return r.stats }

// QueryStats are the resource-use counters of one finished query. The
// whole struct is JSON-serializable.
type QueryStats struct {
	// MemoryPeak is the high-water mark of accounted bytes in memory.
	MemoryPeak int64 `json:"memory_peak"`
	// SpillPeak is the high-water mark of spill bytes on disk (0 when the
	// query never spilled).
	SpillPeak int64 `json:"spill_peak"`
	// Operators holds one runtime-counter entry per planned operator, in
	// plan pre-order, keyed by the stable operator ID — two operators of
	// the same kind report separately.
	Operators []OperatorStats `json:"operators"`
}

// OperatorStats is one operator's runtime counters (see
// exec.OpStatsSnapshot for field semantics).
type OperatorStats = exec.OpStatsSnapshot

// Spilled reports whether any operator of the query spilled to disk.
func (s QueryStats) Spilled() bool {
	for i := range s.Operators {
		if s.Operators[i].Spill != nil && s.Operators[i].Spill.Spills > 0 {
			return true
		}
	}
	return false
}

// QueryOptions bound a query's (or import's) resource use. The zero value
// means no timeout and no memory budget.
type QueryOptions struct {
	// Timeout cancels the query after the given wall-clock duration
	// (0 = none); the query returns context.DeadlineExceeded.
	Timeout time.Duration
	// MemoryBudget caps the bytes the query's stop-and-go operators may
	// materialize (0 = unlimited); exceeding it returns an error matching
	// ErrBudgetExceeded instead of exhausting the process.
	MemoryBudget int64
	// Plan carries explicit strategic-optimizer options — the knob the
	// benchmarks use to force the Fig. 10 plan shapes.
	Plan plan.Options
	// SpillBudget caps the bytes a memory-pressured query may stage in
	// compressed spill files on disk (0 disables spilling: exceeding
	// MemoryBudget fails fast). With a budget set, grouped aggregation,
	// hash joins and sorts degrade gracefully — partitioning state to disk
	// and completing with bounded memory — instead of failing.
	SpillBudget int64
	// SpillDir is the base directory for the per-query spill temp dir
	// ("" = os.TempDir()).
	SpillDir string
	// SpillFS routes spill file I/O; nil means the real filesystem. Tests
	// inject disk faults here.
	SpillFS iofault.FS
	// Governor, when non-nil, joins the query to a process-wide resource
	// governor: memory and spill charges land in its shared pool as well
	// as the per-query accountant, and scans read through its shared
	// decode cache. Multi-session servers set it on every query; nil
	// keeps per-query accounting only.
	Governor *Governor
}

// newQueryCtx builds the lifecycle handle for one query under o.
func (o QueryOptions) newQueryCtx(ctx context.Context) (*exec.QueryCtx, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if o.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
	}
	qc := exec.NewQueryCtxSpill(ctx, o.MemoryBudget, exec.SpillConfig{
		Budget: o.SpillBudget,
		Dir:    o.SpillDir,
		FS:     o.SpillFS,
	})
	o.Governor.attach(qc)
	return qc, cancel
}

// Query parses and runs a SQL statement. The supported subset is
// single-table SELECT with WHERE, GROUP BY and ORDER BY, the Tableau
// aggregates (SUM, COUNT, COUNTD, MIN, MAX, AVG, MEDIAN), date parts
// (YEAR, MONTH, DAY, TRUNC_MONTH, TRUNC_YEAR) and string functions
// (UPPER, LOWER, LENGTH, FILE_EXT).
func (db *Database) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql, QueryOptions{})
}

// QueryWithOptions runs sql with explicit strategic-optimizer options —
// the knob the benchmarks use to force the Fig. 10 plan shapes.
func (db *Database) QueryWithOptions(sql string, opt plan.Options) (*Result, error) {
	return db.QueryContext(context.Background(), sql, QueryOptions{Plan: opt})
}

// QueryContext runs sql under a cancellable context and explicit resource
// limits: cancelling ctx (or exceeding opt.Timeout) interrupts the query
// within one execution block and returns the context's error; exceeding
// opt.MemoryBudget returns an error matching ErrBudgetExceeded; an
// internal panic is contained as *InternalError naming the failing
// operator.
func (db *Database) QueryContext(ctx context.Context, sql string, opt QueryOptions) (res *Result, err error) {
	// Register against the close lifecycle first: a closed database fails
	// with ErrClosed, and a Close racing this query can cancel it.
	qctx, done, err := db.beginQuery(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	// The panic boundary wraps planning as well as execution: a malformed
	// catalog (e.g. a nil table) must surface as *InternalError, not crash.
	qc, cancel := opt.newQueryCtx(qctx)
	defer cancel()
	// Any residual pooled charges (possible only after a contained panic)
	// must return to the shared governor when the query dies.
	defer qc.DetachPool()
	// Spill files must not outlive the query on any exit path — success,
	// error, cancellation or contained panic.
	defer qc.CleanupSpill()
	defer containPanic(qc, &err)
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	tables, views, release := db.pinnedSnapshot()
	defer release()
	op, ex, err := st.BuildViews(tables, views, opt.Plan)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, c := range op.Schema() {
		names = append(names, c.Name)
	}
	rows, err := exec.CollectStringsCtx(qc, op)
	if err != nil {
		// Prefer the root cancellation cause over operator wrapping so
		// callers can match context.Canceled / DeadlineExceeded — or, for
		// a query aborted by Close, ErrClosed — directly.
		if ctxErr := qc.Err(); ctxErr != nil {
			if cause := context.Cause(qc.Context()); cause != nil {
				ctxErr = cause
			}
			if !errors.Is(err, ctxErr) {
				return nil, fmt.Errorf("%w (%v)", ctxErr, err)
			}
		}
		return nil, err
	}
	// CollectStringsCtx has closed the whole tree (exchange workers
	// joined), so the operator counters snapshotted here are final.
	planStr := ex.String()
	if s := qc.SpillSummary(); s != "" {
		planStr += " => " + s
	}
	return &Result{Columns: names, Rows: rows, Plan: planStr, tree: ex.Tree,
		stats: QueryStats{
			MemoryPeak: qc.Peak(),
			SpillPeak:  qc.SpillPeak(),
			Operators:  qc.OpSnapshots(ex.Tree),
		}}, nil
}

// Explain returns the strategic plan for sql without running it.
func (db *Database) Explain(sql string) (string, error) {
	return db.ExplainWithOptions(sql, plan.Options{})
}

// ExplainWithOptions returns the strategic plan for sql under explicit
// optimizer options, so plan shapes that depend on them (worker counts,
// routing) can be inspected without running the query. For an UPDATE or
// DELETE it is the plan that selects the statement's rows, which always
// runs serially.
func (db *Database) ExplainWithOptions(sql string, opt plan.Options) (string, error) {
	st, err := sqlparse.ParseAny(sql)
	if err != nil {
		return "", err
	}
	tables, views := db.snapshot()
	var ex *plan.Explain
	switch st := st.(type) {
	case *sqlparse.Statement:
		_, ex, err = st.BuildViews(tables, views, opt)
	case *sqlparse.DML:
		// The table and its view come from the same cut.
		t := tableIn(tables, st.Table)
		if t == nil {
			return "", fmt.Errorf("tde: unknown table %q", st.Table)
		}
		if st.Kind == sqlparse.DMLInsert {
			return "", fmt.Errorf("tde: INSERT has no query plan")
		}
		_, ex, _, err = planMutation(st, t, views[t.Name], opt)
	}
	if err != nil {
		return "", err
	}
	return ex.String(), nil
}
