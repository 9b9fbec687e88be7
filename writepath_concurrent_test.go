package tde

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tde/internal/exec"
	"tde/internal/iofault"
	"tde/internal/vec"
)

// longStress scales the concurrent sweeps up for the nightly run: more
// writers, more transfers per writer, so merges and GC happen many times
// under live readers.
var longStress = flag.Bool("long", false, "run the long concurrent stress sweep")

// saveAccountsFile builds a file-backed database with an acct(id, val)
// table of n rows, each starting at val, and reopens it writable.
func saveAccountsFile(t *testing.T, n, val int) (*Database, string) {
	t.Helper()
	var csv strings.Builder
	csv.WriteString("id,val\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&csv, "%d,%d\n", i, val)
	}
	mem := New()
	if err := mem.ImportCSV("acct", []byte(csv.String()), DefaultImportOptions()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "acct.tde")
	if err := mem.Save(path); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return db, path
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return n
}

func acctVal(t *testing.T, db *Database, id int) int {
	t.Helper()
	rows := queryRows(t, db, fmt.Sprintf("SELECT val FROM acct WHERE id = %d", id))
	if len(rows) != 1 {
		t.Fatalf("acct %d: %v", id, rows)
	}
	return mustAtoi(t, rows[0][0])
}

// TestCommitConflictFirstCommitterWins pins the optimistic concurrency
// contract: of two transactions updating the same row, the first to
// commit wins and the second fails with ErrConflict, its effects fully
// discarded; a retry against the fresh snapshot then succeeds.
func TestCommitConflictFirstCommitterWins(t *testing.T) {
	db, _ := saveAccountsFile(t, 4, 100)
	defer db.Close()

	tx1, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec("UPDATE acct SET val = val + 1 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec("UPDATE acct SET val = val + 7 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	err = tx2.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer: got %v, want ErrConflict", err)
	}
	if got := acctVal(t, db, 2); got != 101 {
		t.Fatalf("lost-update check: val %d, want 101 (loser must leave no trace)", got)
	}
	// The loser's retry against a fresh snapshot commits cleanly.
	if _, err := db.Exec("UPDATE acct SET val = val + 7 WHERE id = 2"); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if got := acctVal(t, db, 2); got != 108 {
		t.Fatalf("after retry: val %d, want 108", got)
	}
}

// TestDisjointWritersDoNotConflict: transactions touching different rows
// (or only inserting) commit concurrently without ErrConflict.
func TestDisjointWritersDoNotConflict(t *testing.T) {
	db, _ := saveAccountsFile(t, 4, 100)
	defer db.Close()

	tx1, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec("UPDATE acct SET val = val + 1 WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec("UPDATE acct SET val = val + 2 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec("INSERT INTO acct VALUES (90, 5)"); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("disjoint rows must not conflict: %v", err)
	}
	if got := acctVal(t, db, 0); got != 101 {
		t.Fatalf("id 0: %d", got)
	}
	if got := acctVal(t, db, 1); got != 102 {
		t.Fatalf("id 1: %d", got)
	}
	if got := acctVal(t, db, 90); got != 5 {
		t.Fatalf("insert: %d", got)
	}
}

// TestExecRetryHotRow hammers one row from many goroutines through the
// built-in retry idiom; every increment must land exactly once.
func TestExecRetryHotRow(t *testing.T) {
	db, _ := saveAccountsFile(t, 1, 0)
	defer db.Close()
	const workers, perWorker = 8, 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := db.ExecRetry(context.Background(),
					"UPDATE acct SET val = val + 1 WHERE id = 0"); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := acctVal(t, db, 0); got != workers*perWorker {
		t.Fatalf("lost updates: val %d, want %d", got, workers*perWorker)
	}
}

// TestConcurrentInsertWriters: insert-only writers never conflict, and
// nothing is lost or duplicated across concurrent group commits.
func TestConcurrentInsertWriters(t *testing.T) {
	db, _ := saveAccountsFile(t, 1, 0)
	defer db.Close()
	const workers, perWorker = 6, 10
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx, err := db.Begin()
				if err != nil {
					errc <- err
					return
				}
				id := 100 + w*perWorker + i
				if _, err := tx.Exec(fmt.Sprintf("INSERT INTO acct VALUES (%d, %d)", id, w)); err != nil {
					errc <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errc <- fmt.Errorf("insert-only txn conflicted or failed: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	rows := queryRows(t, db, "SELECT COUNT(*), SUM(id) FROM acct WHERE id >= 100")
	n := workers * perWorker
	wantSum := n*100 + n*(n-1)/2 // ids 100..100+n-1, each exactly once
	if rows[0][0] != strconv.Itoa(n) || rows[0][1] != strconv.Itoa(wantSum) {
		t.Fatalf("inserted rows %v, want count %d sum %d", rows[0], n, wantSum)
	}
}

// TestConcurrentSnapshotInvariant is the snapshot-isolation sweep the
// issue asks for: writers move value between accounts in two-statement
// transactions while readers continuously sum the table and background
// auto-compaction merges and GCs underneath. A reader observing a partial
// transaction — or a merge dropping/duplicating rows — breaks the
// invariant sum. Run under -race this also sweeps the locking.
func TestConcurrentSnapshotInvariant(t *testing.T) {
	const accounts, balance = 8, 100
	db, _ := saveAccountsFile(t, accounts, balance)
	defer db.Close()
	if err := db.EnableAutoCompact(AutoCompactOptions{
		MaxDeltaRows: 32,
		MaxDeadRows:  16,
		Interval:     2 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	const total = accounts * balance
	writers, transfers := 4, 20
	if *longStress {
		writers, transfers = 8, 400
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers+2)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from := (w + i) % accounts
				to := (w + i + 1 + w%3) % accounts
				if to == from {
					to = (to + 1) % accounts
				}
				amt := 1 + (w+i)%7
				for {
					tx, err := db.Begin()
					if err != nil {
						errc <- err
						return
					}
					_, err = tx.Exec(fmt.Sprintf("UPDATE acct SET val = val - %d WHERE id = %d", amt, from))
					if err == nil {
						_, err = tx.Exec(fmt.Sprintf("UPDATE acct SET val = val + %d WHERE id = %d", amt, to))
					}
					if err != nil {
						_ = tx.Rollback()
						errc <- err
						return
					}
					err = tx.Commit()
					if err == nil {
						break
					}
					if !errors.Is(err, ErrConflict) {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, err := db.Query("SELECT SUM(val) FROM acct")
				if err != nil {
					errc <- err
					return
				}
				if rows.Rows[0][0] != strconv.Itoa(total) {
					errc <- fmt.Errorf("reader saw a partial transaction: sum %s, want %d", rows.Rows[0][0], total)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got := queryRows(t, db, "SELECT SUM(val) FROM acct"); got[0][0] != strconv.Itoa(total) {
		t.Fatalf("final sum %s, want %d", got[0][0], total)
	}
	db.DisableAutoCompact()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := queryRows(t, db, "SELECT SUM(val) FROM acct"); got[0][0] != strconv.Itoa(total) {
		t.Fatalf("post-compact sum %s, want %d", got[0][0], total)
	}
}

// viewAmountSum drains a held delta view's "amount" column the way a
// query would, returning the sum and row count it observes.
func viewAmountSum(t *testing.T, scanner *exec.Scan) (sum int64, rows int) {
	t.Helper()
	qc := exec.NewQueryCtx(context.Background(), 0)
	if err := scanner.Open(qc); err != nil {
		t.Fatal(err)
	}
	defer scanner.Close()
	var b vec.Block
	for {
		more, err := scanner.Next(&b)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return sum, rows
		}
		for i := 0; i < b.N; i++ {
			sum += int64(b.Vecs[0].Data[i])
			rows++
		}
	}
}

// TestSnapshotHeldAcrossMergeAndGC pins an epoch, then churns the
// database past it — deletes of rows the snapshot sees, epoch GC, a full
// merge (base swap + overlay reset), more commits, GC again — and asserts
// the held snapshot still reads its epoch exactly.
func TestSnapshotHeldAcrossMergeAndGC(t *testing.T) {
	db, _ := saveOrdersFile(t)
	defer db.Close()
	// Build overlay state the snapshot will hold: inserted rows + updates.
	if _, err := db.Exec("INSERT INTO orders VALUES ('held', 1000, DATE '2014-05-01')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE orders SET amount = amount + 1 WHERE status = 'closed'"); err != nil {
		t.Fatal(err)
	}
	wantSum := int64(10 + 26 + 5 + 41 + 15 + 1000)
	wantRows := 6
	pinEpoch := db.dstore.Epoch()

	_, views, release := db.pinnedSnapshot()
	v := views["orders"]
	if v == nil {
		t.Fatal("no view for orders")
	}
	if v.Epoch != pinEpoch {
		t.Fatalf("view cut at epoch %d, want pinned %d", v.Epoch, pinEpoch)
	}

	// Churn: kill the rows the snapshot can see, GC, merge, write more, GC.
	if _, err := db.Exec("DELETE FROM orders WHERE status = 'held'"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE orders SET amount = amount * 2 WHERE amount < 50"); err != nil {
		t.Fatal(err)
	}
	db.GC()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO orders VALUES ('post', 7, DATE '2014-06-01')"); err != nil {
		t.Fatal(err)
	}
	db.GC()

	ds, err := exec.NewViewScan(v, "amount")
	if err != nil {
		t.Fatal(err)
	}
	sum, rows := viewAmountSum(t, ds)
	if sum != wantSum || rows != wantRows {
		t.Fatalf("held snapshot drifted: sum %d rows %d, want sum %d rows %d", sum, rows, wantSum, wantRows)
	}
	release()
	if got := db.dstore.Pins(); got != 0 {
		t.Fatalf("released snapshot still pinned: %d live epochs", got)
	}
	// The live database meanwhile sees the churned state.
	rowsNow := queryRows(t, db, "SELECT COUNT(*) FROM orders")
	if rowsNow[0][0] != "6" {
		t.Fatalf("live row count %v", rowsNow)
	}
}

// TestCloseAbortsInFlightTransactions: Close aborts open transactions
// (their later calls fail with ErrClosed), releases every epoch pin, and
// is idempotent.
func TestCloseAbortsInFlightTransactions(t *testing.T) {
	db, _ := saveOrdersFile(t)
	tx1, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec("INSERT INTO orders VALUES ('x', 1, DATE '2014-01-01')"); err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec("INSERT INTO orders VALUES ('y', 2, DATE '2014-01-02')"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Exec after Close: %v, want ErrClosed", err)
	}
	if err := tx1.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after Close: %v, want ErrClosed", err)
	}
	if err := tx2.Rollback(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rollback after Close: %v, want ErrClosed", err)
	}
	if _, err := db.Begin(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin after Close: %v, want ErrClosed", err)
	}
	if got := db.dstore.Pins(); got != 0 {
		t.Fatalf("Close leaked %d pinned epochs", got)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestBeginContextCancellation covers the context plumbing: a dead
// context fails Begin immediately, a deadline unblocks an admission wait,
// and cancellation after Begin fails the transaction's later statements
// and commit.
func TestBeginContextCancellation(t *testing.T) {
	db, _ := saveOrdersFile(t)
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.BeginContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context: %v", err)
	}

	// Hold admission closed (as a merge drain would) and let the deadline
	// expire inside the wait.
	db.wmu.Lock()
	db.quiescing = true
	db.wmu.Unlock()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	_, err := db.BeginContext(ctx2)
	cancel2()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked admission: %v, want DeadlineExceeded", err)
	}
	db.wmu.Lock()
	db.quiescing = false
	db.wakeAdmissionLocked()
	db.wmu.Unlock()

	// Cancellation between statements kills the transaction's remaining
	// work but leaves Rollback.
	ctx3, cancel3 := context.WithCancel(context.Background())
	tx, err := db.BeginContext(ctx3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO orders VALUES ('c', 3, DATE '2014-01-03')"); err != nil {
		t.Fatal(err)
	}
	cancel3()
	if _, err := tx.Exec("INSERT INTO orders VALUES ('d', 4, DATE '2014-01-04')"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Exec after cancel: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Commit after cancel: %v", err)
	}
	// The cancelled transaction left nothing behind.
	rows := queryRows(t, db, "SELECT COUNT(*) FROM orders")
	if rows[0][0] != "5" {
		t.Fatalf("cancelled txn leaked rows: %v", rows)
	}
}

// TestWriterPoisonedEntryPoints forces an unknown-outcome fsync failure
// and asserts every write entry point reports ErrWriterPoisoned, the
// un-synced commit never becomes visible, and a reopen recovers.
func TestWriterPoisonedEntryPoints(t *testing.T) {
	mem := importOrders(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "orders.tde")
	if err := mem.Save(path); err != nil {
		t.Fatal(err)
	}
	fs := iofault.NewInjector(nil)
	db, _, err := OpenWithOptions(path, OpenOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	// A transaction begun while healthy, with buffered work.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO orders VALUES ('pre', 50, DATE '2014-01-01')"); err != nil {
		t.Fatal(err)
	}

	fs.Script(iofault.Fault{Op: iofault.OpSync})
	_, err = db.Exec("INSERT INTO orders VALUES ('boom', 60, DATE '2014-01-02')")
	if !errors.Is(err, ErrWriterPoisoned) {
		t.Fatalf("poisoning commit: %v, want ErrWriterPoisoned", err)
	}
	// The staged-but-unsynced commit must not be visible.
	if rows := queryRows(t, db, "SELECT COUNT(*) FROM orders"); rows[0][0] != "5" {
		t.Fatalf("un-durable commit visible: %v", rows)
	}

	if _, err := db.Begin(); !errors.Is(err, ErrWriterPoisoned) {
		t.Fatalf("Begin: %v", err)
	}
	if _, err := tx.Exec("UPDATE orders SET amount = 1 WHERE status = 'open'"); !errors.Is(err, ErrWriterPoisoned) {
		t.Fatalf("Tx.Exec: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrWriterPoisoned) {
		t.Fatalf("Tx.Commit: %v", err)
	}
	if _, err := db.ExecRetry(context.Background(), "DELETE FROM orders WHERE amount = 10"); !errors.Is(err, ErrWriterPoisoned) {
		t.Fatalf("ExecRetry: %v", err)
	}
	if err := db.Compact(); !errors.Is(err, ErrWriterPoisoned) {
		t.Fatalf("Compact: %v", err)
	}
	if err := db.Save(filepath.Join(dir, "copy.tde")); !errors.Is(err, ErrWriterPoisoned) {
		t.Fatalf("Save: %v", err)
	}
	if !db.WriteStats().Poisoned {
		t.Fatal("WriteStats does not report the poisoned writer")
	}
	// Reads still work on the poisoned handle.
	if rows := queryRows(t, db, "SELECT COUNT(*) FROM orders"); rows[0][0] != "5" {
		t.Fatalf("read on poisoned db: %v", rows)
	}
	_ = db.Close()

	// Reopen through the real filesystem: the write path is healthy again
	// and the log's committed prefix decided each in-flight txn's fate.
	rdb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if _, err := rdb.Exec("INSERT INTO orders VALUES ('after', 70, DATE '2014-02-01')"); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
}
