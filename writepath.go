package tde

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"time"

	"tde/internal/delta"
	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/plan"
	"tde/internal/sqlparse"
	"tde/internal/storage"
	"tde/internal/types"
	"tde/internal/vec"
	"tde/internal/wal"
)

// This file is the transaction layer: Begin/Exec/Commit/Rollback on top
// of the delta store (in-memory visibility) and the WAL (durability), and
// Compact, which folds the overlay back into compressed base extents.
//
// Writers are optimistically concurrent. BeginContext pins an epoch
// snapshot and admits the transaction (admission blocks only while a
// merge quiesces writers or auto-compaction backpressure engages);
// statements buffer physical operations privately, reading through a view
// of the pinned snapshot plus the transaction's own earlier writes.
// Commit serializes only its memory-speed steps under db.wmu — conflict
// validation (first-committer-wins: ErrConflict on losing a row race) and
// the WAL append of the whole record run — then leaves the mutex and
// makes the run durable via the log's group commit, sharing one fsync
// with every concurrently committing transaction. Only after the fsync
// does the transaction's epoch publish, so readers never observe a
// transaction that could still fail its durability point. Readers are
// never blocked — queries pin an epoch snapshot and proceed against
// immutable state.

// walState tracks what Begin must do to the WAL sidecar before its first
// append.
type walState int

const (
	// walNone: no sidecar exists; create one bound to the current base.
	walNone walState = iota
	// walStale: the sidecar is bound to a previous base image (a crash hit
	// between Compact's base swap and its WAL rotation); its transactions
	// are already merged into the base. Recreate.
	walStale
	// walClean: the sidecar matches the base and ends cleanly; append.
	walClean
	// walDirty: the sidecar matches but carries a damaged or uncommitted
	// tail (crash artifact, already excluded from replay); physically
	// truncate to the committed prefix before appending.
	walDirty
	// walUnknown: a failed append left the on-disk tail state unknown;
	// re-derive it from the file before appending again.
	walUnknown
	// walQuarantined: the database was salvaged; the sidecar is untouched
	// and the write path is closed (ErrReadOnly).
	walQuarantined
)

// attachWAL reads the WAL sidecar at open, replays its committed
// transactions into the delta store, and records what the first write
// must do about the tail. Open itself never rewrites the sidecar: opening
// a database read-only leaves every byte on disk untouched.
func (db *Database) attachWAL() error {
	wpath := wal.Path(db.path)
	raw, err := db.fs.ReadFile(wpath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			db.walState = walNone
			return nil
		}
		return err
	}
	if db.salvaged != nil {
		// Replaying row operations onto a base with quarantined tables is
		// not sound; the salvage contract is read-only access to the
		// intact remainder. The sidecar stays on disk for tdecheck.
		db.walState = walQuarantined
		return nil
	}
	rp, err := wal.Parse(wpath, raw)
	if err != nil {
		// Header-level damage: the sidecar cannot be trusted at all, and
		// silently ignoring it could drop committed transactions.
		return err
	}
	if rp.Binding != db.binding {
		db.walState = walStale
		return nil
	}
	for _, txn := range rp.Txns {
		if _, err := db.dstore.Apply(txn.Ops); err != nil {
			// The log parsed but its operations contradict the base (e.g.
			// a delete past the row count): a mismatched or damaged pair.
			return fmt.Errorf("tde: replaying tx %d: %w", txn.ID,
				&wal.CorruptError{Path: wpath, Offset: rp.CleanLen, Reason: err.Error()})
		}
	}
	db.nextTx = rp.NextTx
	db.walClean = rp.CleanLen
	if rp.Tail == wal.TailClean {
		db.walState = walClean
	} else {
		db.walState = walDirty
	}
	return nil
}

// ensureWALLocked makes the sidecar appendable and opens the writer.
// Caller holds wmu.
func (db *Database) ensureWALLocked() error {
	if db.path == "" {
		return nil // in-memory database: no durability, no WAL
	}
	if db.wlog != nil {
		if db.wlog.Err() == nil {
			return nil
		}
		// A failed append poisoned the writer and may have left a torn
		// frame; drop the handle and re-derive the tail state from disk.
		_ = db.wlog.Close()
		db.wlog = nil
		db.walState = walUnknown
	}
	wpath := wal.Path(db.path)
	switch db.walState {
	case walNone, walStale:
		if err := wal.Create(db.fs, wpath, db.binding); err != nil {
			return err
		}
	case walClean:
	case walDirty:
		raw, err := db.fs.ReadFile(wpath)
		if err != nil {
			return err
		}
		if err := wal.RepairTail(db.fs, wpath, raw, db.walClean); err != nil {
			return err
		}
	case walUnknown:
		raw, err := db.fs.ReadFile(wpath)
		if err != nil {
			return err
		}
		rp, err := wal.Parse(wpath, raw)
		if err != nil {
			return err
		}
		if rp.Binding != db.binding {
			return fmt.Errorf("tde: wal %s no longer matches the open database", wpath)
		}
		if rp.Tail != wal.TailClean {
			if err := wal.RepairTail(db.fs, wpath, raw, rp.CleanLen); err != nil {
				return err
			}
		}
	case walQuarantined:
		return ErrReadOnly
	}
	lg, err := wal.OpenWriter(db.fs, wpath)
	if err != nil {
		return err
	}
	db.wlog = lg
	db.walState = walClean
	return nil
}

// Tx is one write transaction. Its statements see the database as of
// Begin (a pinned epoch snapshot) plus the transaction's own earlier
// writes; nothing is visible to readers (or durable) until Commit, and
// Commit fails with ErrConflict if a concurrent transaction won a row
// race. A Tx must finish with exactly one Commit or Rollback; a Tx's own
// methods are not safe for concurrent use, but any number of transactions
// may run concurrently.
type Tx struct {
	db *Database
	// ctx, from BeginContext, bounds the whole transaction: statements and
	// Commit fail once it is cancelled or past its deadline.
	ctx context.Context
	id  uint64
	// snapEpoch/snapGen identify the pinned snapshot every statement reads
	// through and Commit validates against.
	snapEpoch uint64
	snapGen   uint64
	ops       []delta.Op

	// mu guards done/aborted against db.Close force-aborting the
	// transaction while its owner uses it.
	mu      sync.Mutex
	done    bool
	aborted bool
}

var errTxDone = errors.New("tde: transaction already finished")
var errTxAborted = fmt.Errorf("%w: transaction aborted by database close", ErrClosed)

// poisonedLocked wraps db.writeErr as an ErrWriterPoisoned error. Caller
// holds wmu and has checked writeErr != nil.
func (db *Database) poisonedLocked() error {
	return fmt.Errorf("%w: %v", ErrWriterPoisoned, db.writeErr)
}

// poisoned returns the ErrWriterPoisoned error, or nil.
func (db *Database) poisoned() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.writeErr != nil {
		return db.poisonedLocked()
	}
	return nil
}

// admitWakeLocked returns the channel the next admission change closes.
// Caller holds wmu.
func (db *Database) admitWakeLocked() chan struct{} {
	if db.admitWake == nil {
		db.admitWake = make(chan struct{})
	}
	return db.admitWake
}

// wakeAdmissionLocked wakes every waiter blocked on admission (Begin
// backpressure/quiesce waits, quiesce's own drain wait). Caller holds
// wmu.
func (db *Database) wakeAdmissionLocked() {
	if db.admitWake != nil {
		close(db.admitWake)
		db.admitWake = nil
	}
}

// Begin starts a write transaction against the current snapshot.
// Transactions are concurrent; Begin blocks only while a merge drains
// writers or auto-compaction backpressure holds admission.
func (db *Database) Begin() (*Tx, error) {
	return db.BeginContext(context.Background())
}

// BeginContext is Begin with the context bounding both the admission wait
// and the transaction's later statements and commit: cancellation or a
// deadline makes them fail, after which only Rollback remains.
func (db *Database) BeginContext(ctx context.Context) (*Tx, error) {
	if db.salvaged != nil {
		return nil, fmt.Errorf("%w: %d damaged regions", ErrReadOnly, len(db.salvaged.Entries))
	}
	db.wmu.Lock()
	for {
		if db.closed {
			db.wmu.Unlock()
			return nil, ErrClosed
		}
		if db.writeErr != nil {
			err := db.poisonedLocked()
			db.wmu.Unlock()
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			db.wmu.Unlock()
			return nil, err
		}
		if !db.quiescing && !db.overCapLocked() {
			break
		}
		ch := db.admitWakeLocked()
		db.wmu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		db.wmu.Lock()
	}
	if err := db.ensureWALLocked(); err != nil {
		db.wmu.Unlock()
		return nil, err
	}
	tx := &Tx{db: db, ctx: ctx, id: db.nextTx}
	db.nextTx++
	tx.snapEpoch, tx.snapGen = db.dstore.Pin()
	if db.txs == nil {
		db.txs = map[*Tx]bool{}
	}
	db.txs[tx] = true
	db.activeTx++
	db.wmu.Unlock()
	return tx, nil
}

// finishTx releases a finished transaction's snapshot pin and writer
// registration, and wakes admission (quiesce may be waiting for the drain,
// Begin for a slot). Called exactly once per transaction.
func (db *Database) finishTx(tx *Tx) {
	db.dstore.Unpin(tx.snapEpoch)
	db.wmu.Lock()
	delete(db.txs, tx)
	db.activeTx--
	db.wakeAdmissionLocked()
	db.wmu.Unlock()
}

// forceAbort abandons the transaction from db.Close: the owner's later
// calls fail with an error matching ErrClosed. No-op if already finished.
func (tx *Tx) forceAbort() {
	tx.mu.Lock()
	if tx.done {
		tx.mu.Unlock()
		return
	}
	tx.done = true
	tx.aborted = true
	tx.mu.Unlock()
	tx.db.finishTx(tx)
}

// start marks a Tx method in progress, failing if the transaction is
// finished. Callers pair it with tx.mu held through the method so Close's
// forceAbort serializes against statement execution.
func (tx *Tx) startLocked() error {
	if tx.aborted {
		return errTxAborted
	}
	if tx.done {
		return errTxDone
	}
	return nil
}

// Exec runs one INSERT, UPDATE or DELETE inside the transaction and
// returns the number of rows affected. A failed statement leaves the
// transaction usable: its effects are all-or-nothing per statement. The
// statement reads the transaction's pinned snapshot plus its own earlier
// writes, never concurrent committers' effects.
func (tx *Tx) Exec(sql string) (n int, err error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.startLocked(); err != nil {
		return 0, err
	}
	if err := tx.ctx.Err(); err != nil {
		return 0, err
	}
	db := tx.db
	if err := db.poisoned(); err != nil {
		return 0, err
	}
	st, err := sqlparse.ParseAny(sql)
	if err != nil {
		return 0, err
	}
	dml, ok := st.(*sqlparse.DML)
	if !ok {
		return 0, fmt.Errorf("tde: Exec wants INSERT, UPDATE or DELETE; use Query for SELECT")
	}
	t := db.findTable(dml.Table)
	if t == nil {
		return 0, fmt.Errorf("tde: unknown table %q", dml.Table)
	}
	if db.path != "" && !db.persisted[t.Name] {
		return 0, fmt.Errorf("tde: table %q is not in the saved base image; Save or Compact before writing to it", t.Name)
	}
	qc := exec.NewQueryCtx(tx.ctx, 0)
	defer containPanic(qc, &err)
	var ops []delta.Op
	if dml.Kind == sqlparse.DMLInsert {
		ops, n, err = buildInsert(dml, t)
	} else {
		ops, n, err = tx.buildMutate(qc, dml, t)
	}
	if err != nil {
		return 0, err
	}
	tx.ops = append(tx.ops, ops...)
	return n, nil
}

// Commit validates, logs and publishes the transaction:
//
//  1. Under db.wmu (memory-speed only): first-committer-wins validation
//     against everything committed since the snapshot — a lost row race
//     fails with ErrConflict and the transaction rolls back; provisional
//     row IDs remap to final slots; the rows stage under the next epoch,
//     still invisible; the whole record run (begin+ops+commit, final IDs)
//     appends to the WAL in one buffered write.
//  2. Outside wmu: the log syncs to the run's end offset — group commit,
//     one fsync shared by every transaction that appended before the
//     leader's sync. A sync failure poisons the writer (outcome unknown,
//     ErrWriterPoisoned); the staged epoch then never publishes, matching
//     "not durable".
//  3. The epoch publishes: readers see the transaction, wholly, from the
//     next snapshot on.
func (tx *Tx) Commit() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.startLocked(); err != nil {
		return err
	}
	tx.done = true
	db := tx.db
	defer db.finishTx(tx)
	if len(tx.ops) == 0 {
		return nil // nothing buffered: no WAL records at all
	}
	if err := tx.ctx.Err(); err != nil {
		return err
	}
	db.wmu.Lock()
	if db.closed {
		db.wmu.Unlock()
		return ErrClosed
	}
	if db.writeErr != nil {
		err := db.poisonedLocked()
		db.wmu.Unlock()
		return err
	}
	if err := db.ensureWALLocked(); err != nil {
		db.wmu.Unlock()
		return err
	}
	ops, epoch, err := db.dstore.CommitStage(tx.ops, tx.snapEpoch, tx.snapGen)
	if err != nil {
		db.wmu.Unlock()
		return err // ErrConflict, or a structural error; nothing staged
	}
	wlog := db.wlog
	var walEnd int64
	if wlog != nil {
		walEnd, err = wlog.AppendTxn(tx.id, ops, db.stringColsByName())
		if err != nil {
			// The run may be partially on disk but its commit record cannot
			// be durable (nothing synced it); still, the staged epoch must
			// never publish, and with the append handle poisoned no later
			// commit can sync it either. Poison the writer; reopen replays
			// the log's committed prefix.
			db.writeErr = fmt.Errorf("commit %d append failed: %w", tx.id, err)
			err = db.poisonedLocked()
			db.wmu.Unlock()
			return err
		}
	}
	db.wmu.Unlock()
	if wlog != nil {
		if err := wlog.SyncTo(walEnd); err != nil {
			// The commit record may or may not have reached disk; whether
			// the transaction is durable is unknowable without re-reading
			// the log. The staged epoch stays unpublished (consistent with
			// "not durable") and the write path shuts down so later writes
			// cannot diverge from a log that might say "durable". A reopen
			// re-derives the truth.
			db.wmu.Lock()
			if db.writeErr == nil {
				db.writeErr = fmt.Errorf("commit %d outcome unknown: %w", tx.id, err)
			}
			perr := db.poisonedLocked()
			db.wmu.Unlock()
			return perr
		}
	}
	db.dstore.Publish(epoch)
	db.nudgeCompactor()
	return nil
}

// Rollback abandons the transaction. Nothing was logged or staged for it,
// so there is nothing to undo beyond releasing its snapshot.
func (tx *Tx) Rollback() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.startLocked(); err != nil {
		return err
	}
	tx.done = true
	tx.db.finishTx(tx)
	return nil
}

// stringColsByName returns the WAL encoder's table-name → string-column
// mask lookup, caching per call site.
func (db *Database) stringColsByName() func(string) []bool {
	cache := map[string][]bool{}
	return func(name string) []bool {
		if m, ok := cache[name]; ok {
			return m
		}
		t := db.findTable(name)
		if t == nil {
			return nil
		}
		m := stringCols(t)
		cache[name] = m
		return m
	}
}

// Exec runs one INSERT, UPDATE or DELETE as its own transaction and
// returns the number of rows affected.
func (db *Database) Exec(sql string) (int, error) {
	return db.ExecContext(context.Background(), sql)
}

// ExecContext is Exec bounded by ctx.
func (db *Database) ExecContext(ctx context.Context, sql string) (int, error) {
	tx, err := db.BeginContext(ctx)
	if err != nil {
		return 0, err
	}
	n, err := tx.Exec(sql)
	if err != nil {
		_ = tx.Rollback()
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

// ExecRetry is ExecContext with the optimistic-concurrency retry idiom
// built in: on ErrConflict the statement re-runs against a fresh snapshot
// after an exponentially growing, jittered backoff, until it commits, a
// different error occurs, or ctx ends. Use it for single-statement writes
// contending on hot rows.
func (db *Database) ExecRetry(ctx context.Context, sql string) (int, error) {
	return db.ExecRetryAttempts(ctx, sql, 0)
}

// ExecRetryAttempts is ExecRetry with a bound: at most attempts
// executions (so attempts-1 retries) before the last ErrConflict is
// returned as-is. attempts <= 0 means unbounded, i.e. ExecRetry. The
// backoff between attempts always honors ctx cancellation: a cancelled
// or expired context interrupts the sleep and returns the context's
// error immediately.
func (db *Database) ExecRetryAttempts(ctx context.Context, sql string, attempts int) (int, error) {
	backoff := time.Millisecond
	for attempt := 1; ; attempt++ {
		n, err := db.ExecContext(ctx, sql)
		if err == nil || !errors.Is(err, ErrConflict) {
			return n, err
		}
		if attempts > 0 && attempt >= attempts {
			return 0, err
		}
		if err := retryBackoff(ctx, &backoff); err != nil {
			return 0, err
		}
	}
}

// retryBackoff sleeps one jittered backoff step, doubling the step up to
// a cap, and returns early with the context's error if ctx ends first.
func retryBackoff(ctx context.Context, backoff *time.Duration) error {
	const maxBackoff = 50 * time.Millisecond
	// Full jitter: sleep a uniformly random slice of the current backoff
	// so colliding retriers decorrelate.
	d := time.Duration(rand.Int64N(int64(*backoff))) + *backoff/2
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return ctx.Err()
	}
	if *backoff *= 2; *backoff > maxBackoff {
		*backoff = maxBackoff
	}
	return nil
}

// findTable resolves a statement's table name case-insensitively, like
// the SELECT planner does.
func (db *Database) findTable(name string) *storage.Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return tableIn(db.tables, name)
}

// tableIn finds a table by case-insensitive name among tables.
func tableIn(tables []*storage.Table, name string) *storage.Table {
	for _, t := range tables {
		if strings.EqualFold(t.Name, name) {
			return t
		}
	}
	return nil
}

func stringCols(t *storage.Table) []bool {
	out := make([]bool, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Type == types.String
	}
	return out
}

// columnFold finds a statement's column in t case-insensitively.
func columnFold(t *storage.Table, name string) (int, error) {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("tde: table %q has no column %q", t.Name, name)
}

// buildInsert turns an INSERT's constant value rows into insert ops.
// Unlisted columns insert as NULL.
func buildInsert(dml *sqlparse.DML, t *storage.Table) ([]delta.Op, int, error) {
	cols := t.Columns
	pos := make([]int, len(cols)) // column -> index into the VALUES tuple
	if dml.Columns == nil {
		for i := range pos {
			pos[i] = i
		}
	} else {
		for i := range pos {
			pos[i] = -1
		}
		for vi, name := range dml.Columns {
			ci, err := columnFold(t, name)
			if err != nil {
				return nil, 0, err
			}
			if pos[ci] != -1 {
				return nil, 0, fmt.Errorf("tde: column %q listed twice", name)
			}
			pos[ci] = vi
		}
	}
	ops := make([]delta.Op, 0, len(dml.Rows))
	for _, exprs := range dml.Rows {
		if dml.Columns == nil && len(exprs) != len(cols) {
			return nil, 0, fmt.Errorf("tde: INSERT row has %d values for %d columns", len(exprs), len(cols))
		}
		row := make([]delta.Value, len(cols))
		for ci, c := range cols {
			if pos[ci] < 0 {
				row[ci] = delta.NullOf(c.Type)
				continue
			}
			v, err := constValue(exprs[pos[ci]], c)
			if err != nil {
				return nil, 0, err
			}
			row[ci] = v
		}
		ops = append(ops, delta.Op{Table: t.Name, Kind: delta.OpInsert, Row: row})
	}
	return ops, len(ops), nil
}

// constValue folds e to a literal and coerces it to column c's type.
// Integer literals widen into Real columns; everything else must match.
func constValue(e expr.Expr, c *storage.Column) (delta.Value, error) {
	k, ok := expr.Simplify(e).(*expr.Const)
	if !ok {
		return delta.Value{}, fmt.Errorf("tde: value for column %q is not a constant: %s", c.Name, e)
	}
	if types.IsNull(k.Typ, k.Bits) && (k.Typ != types.String || k.Str == "") {
		return delta.NullOf(c.Type), nil
	}
	switch {
	case c.Type == types.String && k.Typ == types.String:
		return delta.String(k.Str), nil
	case c.Type == k.Typ && c.Type != types.String:
		return delta.Scalar(k.Bits), nil
	case c.Type == types.Real && k.Typ == types.Integer:
		return delta.Scalar(types.FromReal(float64(int64(k.Bits)))), nil
	}
	return delta.Value{}, fmt.Errorf("tde: value for column %q has type %s, want %s", c.Name, k.Typ, c.Type)
}

// newValue is where an UPDATE takes one column's new value from: a SET
// constant, or a column of its selection query's output (the old value,
// or the SET expression computed over the old row).
type newValue struct {
	out  int // output column; -1 for a constant
	cval delta.Value
}

// mutationQuery lowers an UPDATE or DELETE onto the query that selects
// the rows it touches in view: DELETE selects $rowid alone; UPDATE selects
// $rowid, every column, and one computed column per non-constant SET
// expression, and vals[ci] says where column ci's new value comes from.
func mutationQuery(dml *sqlparse.DML, t *storage.Table, view *delta.View) (q plan.Query, vals []newValue, err error) {
	q = plan.Query{Table: t, Delta: view, Where: dml.Where, Select: []string{exec.RowIDColumn}}
	if dml.Kind != sqlparse.DMLUpdate {
		return q, nil, nil
	}
	vals = make([]newValue, len(t.Columns))
	for ci, c := range t.Columns {
		vals[ci].out = len(q.Select)
		q.Select = append(q.Select, c.Name)
	}
	assigned := make([]bool, len(t.Columns))
	for _, sc := range dml.Set {
		ci, err := columnFold(t, sc.Column)
		if err != nil {
			return q, nil, err
		}
		if assigned[ci] {
			return q, nil, fmt.Errorf("tde: column %q assigned twice", sc.Column)
		}
		assigned[ci] = true
		e := expr.Simplify(sc.Value)
		if k, ok := e.(*expr.Const); ok {
			v, err := constValue(k, t.Columns[ci])
			if err != nil {
				return q, nil, err
			}
			vals[ci] = newValue{out: -1, cval: v}
			continue
		}
		name := fmt.Sprintf("$set%d", ci)
		q.Compute = append(q.Compute, plan.Computed{Name: name, E: e})
		vals[ci].out = len(q.Select)
		q.Select = append(q.Select, name)
	}
	return q, vals, nil
}

// planMutation plans an UPDATE or DELETE's row selection over view
// (mutationQuery) with plan.Build and checks each SET expression's type.
// The plan is serial whatever opt says, so that a statement's ops (and its
// inserted rows' IDs) come in one deterministic order: the plan's output
// order, value or join order under the index rewrite and star joins.
func planMutation(dml *sqlparse.DML, t *storage.Table, view *delta.View, opt plan.Options) (exec.Operator, *plan.Explain, []newValue, error) {
	q, vals, err := mutationQuery(dml, t, view)
	if err != nil {
		return nil, nil, nil, err
	}
	opt.ParallelWorkers = -1
	op, ex, err := plan.Build(q, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	schema := op.Schema()
	for ci, v := range vals {
		if v.out < 0 {
			continue
		}
		colType, et := t.Columns[ci].Type, schema[v.out].Type
		if et != colType && (colType != types.Real || et != types.Integer) {
			return nil, nil, nil, fmt.Errorf("tde: SET %s evaluates to %s, want %s", t.Columns[ci].Name, et, colType)
		}
	}
	return op, ex, vals, nil
}

// buildMutate runs an UPDATE or DELETE against the transaction's private
// snapshot (committed overlay plus its own pending ops) and returns the
// physical operations: DELETE per affected row, UPDATE as delete-old +
// insert-new.
func (tx *Tx) buildMutate(qc *exec.QueryCtx, dml *sqlparse.DML, t *storage.Table) ([]delta.Op, int, error) {
	view, err := tx.db.dstore.ViewWithAt(t, tx.snapEpoch, tx.ops)
	if err != nil {
		return nil, 0, err
	}
	op, _, vals, err := planMutation(dml, t, view, plan.Options{})
	if err != nil {
		return nil, 0, err
	}
	if err := op.Open(qc); err != nil {
		return nil, 0, err
	}
	defer op.Close()
	var ops []delta.Op
	affected := 0
	b := vec.NewBlock(len(op.Schema()))
	for {
		ok, err := op.Next(b)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		for i := 0; i < b.N; i++ {
			ops = append(ops, delta.Op{Table: t.Name, Kind: delta.OpDelete, RowID: b.Vecs[0].Data[i]})
			affected++
			if vals == nil {
				continue
			}
			row := make([]delta.Value, len(vals))
			for ci, v := range vals {
				if v.out < 0 {
					row[ci] = v.cval
				} else {
					row[ci] = vecValue(&b.Vecs[v.out], i, t.Columns[ci].Type)
				}
			}
			ops = append(ops, delta.Op{Table: t.Name, Kind: delta.OpInsert, Row: row})
		}
	}
	return ops, affected, nil
}

// vecValue extracts row i of a vector as a delta value for a column of
// type colType: dictionary tokens resolve to values, and Integer results
// widen into Real columns.
func vecValue(v *vec.Vector, i int, colType types.Type) delta.Value {
	switch {
	case v.IsNull(i):
		return delta.NullOf(colType)
	case colType == types.String:
		return delta.String(v.Heap.Get(v.Data[i]))
	case colType == types.Real && v.Type == types.Integer:
		return delta.Scalar(types.FromReal(float64(int64(v.Value(i)))))
	}
	return delta.Scalar(v.Value(i))
}

// quiesce closes admission and drains in-flight writers, returning with
// db.wmu held; release reopens admission and drops the mutex. It is the
// merge path's exclusion protocol: with activeTx zero and admission
// closed, no commit can stage rows or touch the WAL handle while the base
// is rebuilt and swapped. Readers are unaffected throughout — they never
// take wmu. ctx bounds the drain wait (an open transaction whose owner
// never finishes would otherwise hold the merge forever); on ctx
// expiry admission reopens and quiesce fails with the context error.
func (db *Database) quiesce(ctx context.Context) (release func(), err error) {
	db.wmu.Lock()
	// Wait for any quiesce already holding the floor.
	for db.quiescing {
		if db.closed {
			db.wmu.Unlock()
			return nil, ErrClosed
		}
		ch := db.admitWakeLocked()
		db.wmu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		db.wmu.Lock()
	}
	if db.closed {
		db.wmu.Unlock()
		return nil, ErrClosed
	}
	// Close admission so new Begins cannot starve the drain, then wait for
	// the active transactions to finish (wmu released while blocked, so
	// their commits and finishes can proceed).
	db.quiescing = true
	for db.activeTx > 0 {
		ch := db.admitWakeLocked()
		db.wmu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			db.wmu.Lock()
			db.quiescing = false
			db.wakeAdmissionLocked()
			db.wmu.Unlock()
			return nil, ctx.Err()
		}
		db.wmu.Lock()
	}
	return func() {
		db.quiescing = false
		db.wakeAdmissionLocked()
		db.wmu.Unlock()
	}, nil
}

// Compact folds the write overlay back into compressed base extents: each
// dirty table is re-encoded through the import pipeline (dynamic
// encoding, heap sorting, type narrowing, fresh metadata), and on a
// file-backed database the merged image atomically replaces the base file
// and the WAL sidecar is retired. In-flight writers are drained first
// (admission pauses for the drain and swap); readers keep their snapshots
// throughout; the overlay resets empty.
func (db *Database) Compact() error {
	return db.CompactContext(context.Background(), QueryOptions{})
}

// CompactContext is Compact under a cancellable context and resource
// limits for the re-encode. ctx also bounds the writer drain.
func (db *Database) CompactContext(ctx context.Context, qopt QueryOptions) (err error) {
	if db.salvaged != nil {
		return fmt.Errorf("%w: %d damaged regions", ErrReadOnly, len(db.salvaged.Entries))
	}
	defer containPanic(nil, &err)
	release, err := db.quiesce(ctx)
	if err != nil {
		return err
	}
	defer release()
	if db.writeErr != nil {
		return db.poisonedLocked()
	}
	merged, dirty, err := db.materializeLocked(ctx, qopt)
	if err != nil {
		return err
	}
	if !dirty {
		return nil
	}
	if db.path == "" {
		db.mu.Lock()
		db.tables = merged
		db.dstore.Reset(merged)
		db.mu.Unlock()
		return nil
	}
	return db.swapBaseLocked(merged)
}

// materializeLocked builds the merged table set: tables without overlay
// rows pass through untouched; dirty tables are re-encoded from a
// scan of their snapshot. Caller holds wmu with writers drained (so
// no commit can land mid-merge).
func (db *Database) materializeLocked(ctx context.Context, qopt QueryOptions) (merged []*storage.Table, dirty bool, err error) {
	db.mu.RLock()
	tables := db.tables
	views := db.dstore.Views(tables)
	db.mu.RUnlock()
	if len(views) == 0 {
		return tables, false, nil
	}
	qc, cancel := qopt.newQueryCtx(ctx)
	defer cancel()
	defer qc.DetachPool()
	defer qc.CleanupSpill()
	defer containPanic(qc, &err)
	merged = make([]*storage.Table, len(tables))
	for i, t := range tables {
		v := views[t.Name]
		if v == nil {
			merged[i] = t
			continue
		}
		ds, err := exec.NewViewScan(v)
		if err != nil {
			return nil, false, err
		}
		ft := exec.NewFlowTable(ds, exec.FlowTableConfig{
			Encode: true, Accelerate: true, SortHeaps: true, Narrow: true,
		})
		bt, err := ft.BuildTable(qc)
		if err != nil {
			return nil, false, err
		}
		merged[i] = bt.ToTable(t.Name)
	}
	return merged, true, nil
}

// swapBaseLocked atomically replaces the on-disk base image with the
// merged tables and retires the WAL sidecar, then swaps the in-memory
// state. Ordering is what makes a crash at any point recoverable:
//
//  1. base file replaced (atomic rename) — a crash before leaves the old
//     base + live WAL (old state + replay = current state); a crash after
//     leaves the new base + a sidecar whose binding no longer matches,
//     which open ignores as stale (same visible state).
//  2. stale sidecar removed — pure tidiness; open ignores it either way.
//
// Caller holds writeMu.
func (db *Database) swapBaseLocked(merged []*storage.Table) error {
	// Serialize the merged image once up front: the storage writer is
	// deterministic (the crash harness asserts it), so WriteFileFS below
	// produces these exact bytes and the new WAL binding can be computed
	// before the file exists.
	var buf bytes.Buffer
	if err := storage.Write(&buf, merged); err != nil {
		return err
	}
	if db.wlog != nil {
		_ = db.wlog.Close()
		db.wlog = nil
	}
	if err := storage.WriteFileFS(db.fs, db.path, merged); err != nil {
		// The atomic rename may or may not have happened; disk and memory
		// can no longer be reconciled without a reopen.
		db.writeErr = err
		return err
	}
	db.binding = wal.Bind(buf.Bytes())
	_ = db.fs.Remove(wal.Path(db.path))
	db.walState = walNone
	// Table set and overlay reset swap under one exclusive db.mu hold, so
	// a reader's snapshot (which reads both under db.mu.RLock) sees either
	// old tables + old overlay or new tables + empty overlay — never the
	// torn combination that would drop uncompacted rows.
	db.mu.Lock()
	db.tables = merged
	db.dstore.Reset(merged)
	db.mu.Unlock()
	if db.persisted == nil {
		db.persisted = map[string]bool{}
	}
	for _, t := range merged {
		db.persisted[t.Name] = true
	}
	return nil
}
