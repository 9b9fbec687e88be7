package tde

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"tde/internal/delta"
	"tde/internal/exec"
	"tde/internal/flights"
	"tde/internal/plan"
	"tde/internal/sqlparse"
	"tde/internal/vec"
	"tde/internal/wal"
)

// saveOrders writes the orders fixture to a file-backed database and
// reopens it, returning the open database and its path.
func saveOrdersFile(t *testing.T) (*Database, string) {
	t.Helper()
	mem := importOrders(t)
	path := filepath.Join(t.TempDir(), "orders.tde")
	if err := mem.Save(path); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return db, path
}

func queryRows(t *testing.T, db *Database, sql string) [][]string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Rows
}

// queryCount runs an ungrouped SELECT COUNT(...), which answers exactly
// one row even over no rows.
func queryCount(t *testing.T, db *Database, sql string) int {
	t.Helper()
	rows := queryRows(t, db, sql)
	if len(rows) != 1 {
		t.Fatalf("%s: %d rows, want exactly one", sql, len(rows))
	}
	n, err := strconv.Atoi(rows[0][0])
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return n
}

func TestExecInsert(t *testing.T) {
	db, _ := saveOrdersFile(t)
	n, err := db.Exec("INSERT INTO orders VALUES ('open', 99, DATE '2014-04-01')")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("affected %d", n)
	}
	if got := db.Rows("orders"); got != 6 {
		t.Fatalf("rows %d", got)
	}
	rows := queryRows(t, db, "SELECT status, SUM(amount) FROM orders GROUP BY status ORDER BY status")
	want := [][]string{{"closed", "65"}, {"open", "129"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %v want %v", rows, want)
	}
}

func TestExecInsertColumnListAndNull(t *testing.T) {
	db := importOrders(t)
	if _, err := db.Exec("INSERT INTO orders (amount, status) VALUES (7, 'open'), (NULL, 'ghost')"); err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, db, "SELECT COUNT(*) FROM orders WHERE when IS NULL")
	if rows[0][0] != "2" {
		t.Fatalf("null dates %v", rows)
	}
	rows = queryRows(t, db, "SELECT COUNT(*) FROM orders WHERE amount IS NULL")
	if rows[0][0] != "1" {
		t.Fatalf("null amounts %v", rows)
	}
}

func TestExecUpdateAndDelete(t *testing.T) {
	db, _ := saveOrdersFile(t)
	n, err := db.Exec("UPDATE orders SET amount = amount + 100 WHERE status = 'open'")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("updated %d", n)
	}
	rows := queryRows(t, db, "SELECT SUM(amount) FROM orders")
	if rows[0][0] != "395" {
		t.Fatalf("sum after update %v", rows)
	}
	n, err = db.Exec("DELETE FROM orders WHERE amount > 100")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("deleted %d", n)
	}
	if got := db.Rows("orders"); got != 2 {
		t.Fatalf("rows %d", got)
	}
	rows = queryRows(t, db, "SELECT status, amount FROM orders ORDER BY amount")
	want := [][]string{{"closed", "25"}, {"closed", "40"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %v want %v", rows, want)
	}
}

func TestUpdateStringAndStringFunc(t *testing.T) {
	db := importOrders(t)
	if _, err := db.Exec("UPDATE orders SET status = UPPER(status) WHERE amount >= 25"); err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, db, "SELECT status, COUNT(*) FROM orders GROUP BY status ORDER BY status")
	want := [][]string{{"CLOSED", "2"}, {"open", "3"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %v want %v", rows, want)
	}
	if _, err := db.Exec("UPDATE orders SET status = 'won' WHERE status = 'CLOSED'"); err != nil {
		t.Fatal(err)
	}
	rows = queryRows(t, db, "SELECT COUNT(*) FROM orders WHERE status = 'won'")
	if rows[0][0] != "2" {
		t.Fatalf("constant string update %v", rows)
	}
}

func TestTransactionIsolationAndRollback(t *testing.T) {
	db, _ := saveOrdersFile(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO orders VALUES ('open', 1, DATE '2014-05-01')"); err != nil {
		t.Fatal(err)
	}
	// Uncommitted writes are invisible to readers.
	if rows := queryRows(t, db, "SELECT COUNT(*) FROM orders"); rows[0][0] != "5" {
		t.Fatalf("reader sees uncommitted insert: %v", rows)
	}
	// ... but visible to the transaction's own later statements.
	if n, err := tx.Exec("DELETE FROM orders WHERE amount = 1"); err != nil || n != 1 {
		t.Fatalf("own-write visibility: n=%d err=%v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rows := queryRows(t, db, "SELECT COUNT(*) FROM orders"); rows[0][0] != "5" {
		t.Fatalf("after commit: %v", rows)
	}

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM orders"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := db.Rows("orders"); got != 5 {
		t.Fatalf("rollback lost rows: %d", got)
	}
	// The writer slot is free again and the abandoned records do not
	// poison the log.
	if _, err := db.Exec("INSERT INTO orders VALUES ('open', 2, DATE '2014-05-02')"); err != nil {
		t.Fatal(err)
	}
	if got := db.Rows("orders"); got != 6 {
		t.Fatalf("after rollback+insert: %d", got)
	}
}

func TestRecoveryAcrossReopen(t *testing.T) {
	db, path := saveOrdersFile(t)
	if _, err := db.Exec("INSERT INTO orders VALUES ('open', 99, DATE '2014-04-01')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE orders SET amount = 0 WHERE status = 'closed'"); err != nil {
		t.Fatal(err)
	}
	want := queryRows(t, db, "SELECT status, amount FROM orders ORDER BY amount, status")

	// Reopen from disk: the base image is untouched, the WAL replays.
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got := queryRows(t, db2, "SELECT status, amount FROM orders ORDER BY amount, status")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v want %v", got, want)
	}

	// Compact folds the overlay into the base and retires the WAL;
	// another reopen sees identical data with no sidecar.
	if err := db2.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(wal.Path(path)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("wal sidecar survived compact: %v", err)
	}
	db3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got = queryRows(t, db3, "SELECT status, amount FROM orders ORDER BY amount, status")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compact %v want %v", got, want)
	}
}

// TestCompactPreservesResults is the write-path difftest: a randomized
// DML workload queried through base+delta must return exactly the same
// results after Compact re-encodes the overlay into compressed extents,
// and again after a reopen from the compacted file.
func TestCompactPreservesResults(t *testing.T) {
	queries := []string{
		"SELECT status, SUM(amount), COUNT(*) FROM orders GROUP BY status ORDER BY status",
		"SELECT status, amount FROM orders ORDER BY amount, status",
		"SELECT COUNT(*) FROM orders WHERE amount > 20",
		"SELECT MIN(amount), MAX(amount) FROM orders",
		"SELECT COUNT(*) FROM orders WHERE when IS NULL",
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, path := saveOrdersFile(t)
		statuses := []string{"open", "closed", "hold", "lost"}
		for i := 0; i < 30; i++ {
			var err error
			switch rng.Intn(4) {
			case 0, 1:
				_, err = db.Exec(fmt.Sprintf("INSERT INTO orders VALUES ('%s', %d, DATE '2014-0%d-1%d')",
					statuses[rng.Intn(len(statuses))], rng.Intn(200), 1+rng.Intn(9), rng.Intn(9)))
			case 2:
				_, err = db.Exec(fmt.Sprintf("UPDATE orders SET amount = amount + %d WHERE amount < %d",
					rng.Intn(20), rng.Intn(120)))
			case 3:
				_, err = db.Exec(fmt.Sprintf("DELETE FROM orders WHERE amount > %d", 60+rng.Intn(140)))
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
		}
		before := make([][][]string, len(queries))
		for qi, q := range queries {
			before[qi] = queryRows(t, db, q)
		}
		if err := db.Compact(); err != nil {
			t.Fatalf("seed %d compact: %v", seed, err)
		}
		for qi, q := range queries {
			if got := queryRows(t, db, q); !reflect.DeepEqual(got, before[qi]) {
				t.Fatalf("seed %d query %q changed across compact:\n  before %v\n  after  %v",
					seed, q, before[qi], got)
			}
		}
		db2, err := Open(path)
		if err != nil {
			t.Fatalf("seed %d reopen: %v", seed, err)
		}
		for qi, q := range queries {
			if got := queryRows(t, db2, q); !reflect.DeepEqual(got, before[qi]) {
				t.Fatalf("seed %d query %q changed across compact+reopen:\n  before %v\n  after  %v",
					seed, q, before[qi], got)
			}
		}
	}
}

func TestSalvagedDatabaseRefusesWrites(t *testing.T) {
	db, path := saveOrdersFile(t)
	if _, err := db.Exec("INSERT INTO orders VALUES ('open', 1, DATE '2014-04-01')"); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the base image's column payload region so a
	// column checksum fails and salvage quarantines it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sdb, rep, err := OpenWithOptions(path, OpenOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(rep.Entries) == 0 {
		t.Skip("corruption landed somewhere not quarantinable")
	}
	if !sdb.ReadOnly() {
		t.Fatal("salvaged database is not read-only")
	}
	if _, err := sdb.Begin(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Begin: %v", err)
	}
	if _, err := sdb.Exec("DELETE FROM orders"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Exec: %v", err)
	}
	if err := sdb.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact: %v", err)
	}
	if err := sdb.Save(path); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Save: %v", err)
	}
}

func TestUnpersistedTableRefusesDML(t *testing.T) {
	db, path := saveOrdersFile(t)
	if err := db.ImportCSV("extra", []byte("k,v\na,1\nb,2\n"), DefaultImportOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM extra"); err == nil {
		t.Fatal("DML on unpersisted table succeeded; its WAL records could never replay")
	}
	// Saving over the database path persists the new table; DML works.
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM extra WHERE k = 'a'"); err != nil {
		t.Fatal(err)
	}
	if got := db.Rows("extra"); got != 1 {
		t.Fatalf("rows %d", got)
	}
}

func TestOpenSweepsOrphanTemps(t *testing.T) {
	db, path := saveOrdersFile(t)
	_ = db
	dir := filepath.Dir(path)
	old := time.Now().Add(-2 * time.Hour)
	for _, name := range []string{".tde-wal-123456", ".tde-save-654321"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh temp file (a concurrent writer's live rename source) must
	// survive the sweep.
	fresh := filepath.Join(dir, ".tde-wal-fresh")
	if err := os.WriteFile(fresh, []byte("live"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".tde-wal-123456", ".tde-save-654321"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphan %s survived open: %v", name, err)
		}
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file swept: %v", err)
	}
}

func TestSaveToOtherPathMergesOverlay(t *testing.T) {
	db, _ := saveOrdersFile(t)
	if _, err := db.Exec("INSERT INTO orders VALUES ('open', 7, DATE '2014-06-01')"); err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(t.TempDir(), "copy.tde")
	if err := db.Save(copyPath); err != nil {
		t.Fatal(err)
	}
	cp, err := Open(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.Rows("orders"); got != 6 {
		t.Fatalf("saved copy rows %d", got)
	}
	// The original keeps its overlay (Save elsewhere is a copy, not a
	// compact): the sidecar still exists and still replays.
	if got := db.Rows("orders"); got != 6 {
		t.Fatalf("original rows %d", got)
	}
}

func TestDeltaCountersInQueryStats(t *testing.T) {
	db := importOrders(t)
	if _, err := db.Exec("INSERT INTO orders VALUES ('open', 1, DATE '2014-04-01')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM orders WHERE amount = 40"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	var deltaRows, deletedRows int64
	for _, op := range res.Stats().Operators {
		deltaRows += op.DeltaRows
		deletedRows += op.DeletedRows
	}
	if deltaRows != 1 || deletedRows != 1 {
		t.Fatalf("delta counters: +%d -%d", deltaRows, deletedRows)
	}
}

// sortedDump reads every row of every table in a deterministic order —
// the oracle state the crash tests compare.
func sortedDump(t *testing.T, db *Database) []string {
	t.Helper()
	var out []string
	names := db.TableNames()
	sort.Strings(names)
	for _, name := range names {
		rows := queryRows(t, db, "SELECT * FROM "+name)
		lines := make([]string, 0, len(rows))
		for _, r := range rows {
			lines = append(lines, fmt.Sprint(r))
		}
		sort.Strings(lines)
		out = append(out, name)
		out = append(out, lines...)
	}
	return out
}

// TestUpdateThroughIndexRewrite: an UPDATE on an encodedTestDB table
// whose WHERE isolates the run-length r takes the index rewrite and moves
// exactly the matching rows, each keeping its dictionary-compressed g
// (offset, so that its tokens differ from its values) and plain v. Over a
// committed overlay the ranges skip the deleted rows and the inserted
// ones that match follow them.
func TestUpdateThroughIndexRewrite(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		db := encodedDB(t, 100, 3)
		if dirty {
			for _, sql := range []string{
				"DELETE FROM m WHERE r = 5 AND v < 20",
				"INSERT INTO m VALUES (5, 103, 0.5), (6, 100, 1.5), (5, 777, 2.5)",
			} {
				if _, err := db.Exec(sql); err != nil {
					t.Fatal(err)
				}
			}
		}
		const sql = "UPDATE m SET r = r + 1000 WHERE r = 5"
		if p, err := db.Explain(sql); err != nil || !strings.Contains(p, "IndexTable") || !strings.Contains(p, " ranges)") {
			t.Fatalf("dirty=%v: plan %q (%v), want the index rewrite", dirty, p, err)
		}
		before := queryRows(t, db, "SELECT g, v FROM m WHERE r = 5 ORDER BY g, v")
		totals := queryRows(t, db, "SELECT COUNT(*), SUM(g), MIN(v), MAX(v) FROM m")
		n, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(before) || n == 0 {
			t.Fatalf("dirty=%v: updated %d rows, want %d", dirty, n, len(before))
		}
		if after := queryRows(t, db, "SELECT g, v FROM m WHERE r = 1005 ORDER BY g, v"); !reflect.DeepEqual(after, before) {
			t.Fatalf("dirty=%v: moved rows changed:\n got %v\nwant %v", dirty, after, before)
		}
		if left := queryCount(t, db, "SELECT COUNT(*) FROM m WHERE r = 5"); left != 0 {
			t.Fatalf("dirty=%v: %d rows left at r = 5", dirty, left)
		}
		if got := queryRows(t, db, "SELECT COUNT(*), SUM(g), MIN(v), MAX(v) FROM m"); !reflect.DeepEqual(got, totals) {
			t.Fatalf("dirty=%v: totals %v, want %v", dirty, got, totals)
		}
	}
}

// TestDeleteWithoutWhere: a DELETE with no WHERE removes every visible
// row, from a clean table and from one with a committed overlay.
func TestDeleteWithoutWhere(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		db := importOrders(t)
		if dirty {
			for _, sql := range []string{
				"INSERT INTO orders VALUES ('open', 1, DATE '2014-05-01'), ('new', 2, DATE '2014-05-02')",
				"DELETE FROM orders WHERE amount = 10",
			} {
				if _, err := db.Exec(sql); err != nil {
					t.Fatal(err)
				}
			}
		}
		n, err := db.Exec("DELETE FROM orders")
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{false: 5, true: 6}[dirty]; n != want {
			t.Fatalf("dirty=%v: deleted %d rows, want %d", dirty, n, want)
		}
		if left := queryCount(t, db, "SELECT COUNT(*) FROM orders"); left != 0 {
			t.Fatalf("dirty=%v: %d rows left", dirty, left)
		}
	}
}

// TestDMLReadsOnlyWhatItTouches plans UPDATE/DELETE row selections the
// way Exec does: a DELETE's scan reads its WHERE column and $rowid only,
// and a marker predicate beyond every base value skips every base block
// of a dirty view.
func TestDMLReadsOnlyWhatItTouches(t *testing.T) {
	var buf bytes.Buffer
	if err := flights.New(5000, 1).Write(&buf); err != nil {
		t.Fatal(err)
	}
	db := New()
	if err := db.ImportCSV("flights", buf.Bytes(), DefaultImportOptions()); err != nil {
		t.Fatal(err)
	}
	tab := db.findTable("flights")
	build := func(sql string, view *delta.View) (exec.Operator, *plan.Explain) {
		t.Helper()
		dml, err := sqlparse.ParseDML(sql)
		if err != nil {
			t.Fatal(err)
		}
		op, ex, _, err := planMutation(dml, tab, view, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return op, ex
	}
	scanColumns := func(op exec.Operator) []string {
		for {
			if s, ok := op.(*exec.Scan); ok {
				var names []string
				for _, c := range s.Schema() {
					names = append(names, c.Name)
				}
				return names
			}
			children := op.(exec.Instrumented).OpChildren()
			if len(children) != 1 {
				t.Fatalf("no single scan under %T", op)
			}
			op = children[0]
		}
	}
	op, _ := build("DELETE FROM flights WHERE Distance > 1000", nil)
	if got := scanColumns(op); !reflect.DeepEqual(got, []string{"Distance", exec.RowIDColumn}) {
		t.Fatalf("DELETE scans %v", got)
	}

	if _, err := db.Exec("INSERT INTO flights (FlightNum, Carrier) VALUES (1000000, 'ZZ')"); err != nil {
		t.Fatal(err)
	}
	view := db.dstore.View(tab)
	op, ex := build("DELETE FROM flights WHERE FlightNum = 1000000", view)
	if !strings.Contains(ex.String(), "DeltaScan") || !strings.Contains(ex.String(), "ZoneSkip[") {
		t.Fatalf("plan %s, want a zone-skipping DeltaScan", ex)
	}
	qc := exec.NewQueryCtx(context.Background(), 0)
	rows, err := exec.CollectStringsCtx(qc, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != fmt.Sprint(tab.Rows()) {
		t.Fatalf("selected %v, want the inserted row's $rowid %d", rows, tab.Rows())
	}
	for _, s := range qc.OpSnapshots(ex.Tree) {
		if s.Kind == "DeltaScan" {
			if want := int64((tab.Rows() + vec.BlockSize - 1) / vec.BlockSize); s.BlocksSkipped != want {
				t.Fatalf("skipped %d base blocks, want all %d", s.BlocksSkipped, want)
			}
			return
		}
	}
	t.Fatal("no DeltaScan in the stats")
}

// TestDMLSelectsNullRowsOnCleanTable: on a clean table a WHERE that holds
// on NULL (IS NULL, a disjunction with it, NOT ... IS NOT NULL) over a
// heap string or a dictionary-compressed column selects the NULL rows,
// for a SELECT, an UPDATE and a DELETE alike, whichever plan the planner
// picks. A converted dictionary keeps NULL as an entry of its own, which
// COUNT(g) must not count either.
func TestDMLSelectsNullRowsOnCleanTable(t *testing.T) {
	const rows = 3000
	build := func() *Database {
		db := New()
		var sb strings.Builder
		for i := 0; i < rows; i++ {
			s, g := fmt.Sprintf("s%d", i%5), fmt.Sprint(i%7)
			if i%11 == 0 {
				s = ""
			}
			if i%13 == 0 {
				g = ""
			}
			fmt.Fprintf(&sb, "%s,%s,%d\n", s, g, i)
		}
		opt := DefaultImportOptions()
		opt.Schema = []string{"s:str", "g:int", "v:int"}
		opt.HeaderSet, opt.HasHeader = true, false
		if err := db.ImportCSV("t", []byte(sb.String()), opt); err != nil {
			t.Fatal(err)
		}
		if err := db.CompressColumn("t", "g"); err != nil {
			t.Fatal(err)
		}
		return db
	}
	matching := func(keep func(i int) bool) int {
		n := 0
		for i := 0; i < rows; i++ {
			if keep(i) {
				n++
			}
		}
		return n
	}
	nullS := matching(func(i int) bool { return i%11 == 0 })
	nullG := matching(func(i int) bool { return i%13 == 0 })
	if got := queryCount(t, build(), "SELECT COUNT(g) FROM t"); got != rows-nullG {
		t.Errorf("COUNT(g) = %d, want %d", got, rows-nullG)
	}
	for _, c := range []struct {
		where string
		want  int
	}{
		{"s IS NULL", nullS},
		{"s IS NULL OR s = 's1'", matching(func(i int) bool { return i%11 == 0 || i%5 == 1 })},
		{"g IS NULL", nullG},
		{"g IS NULL AND v >= 0", nullG},
		{"NOT (g IS NOT NULL)", nullG},
		{"g IS NOT NULL AND s = 's2'", matching(func(i int) bool { return i%13 != 0 && i%11 != 0 && i%5 == 2 })},
	} {
		db := build()
		if got := queryCount(t, db, "SELECT COUNT(*) FROM t WHERE "+c.where); got != c.want {
			t.Errorf("WHERE %s: SELECT counted %d rows, want %d", c.where, got, c.want)
		}
		for _, sql := range []string{"UPDATE t SET v = v + 1 WHERE " + c.where, "DELETE FROM t WHERE " + c.where} {
			n, err := db.Exec(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if n != c.want {
				t.Errorf("%s: affected %d rows, want %d", sql, n, c.want)
			}
		}
	}
}

// TestCountStarReadsOneColumn: SELECT COUNT(*) reads no value, so its
// scan reads the one column with the fewest stored bytes — the same bytes
// as COUNT of that column, far fewer than the whole table's — and counts
// right on a clean table and over a dirty view alike, inserted tail rows
// in, deleted rows out.
func TestCountStarReadsOneColumn(t *testing.T) {
	var buf bytes.Buffer
	if err := flights.New(5000, 1).Write(&buf); err != nil {
		t.Fatal(err)
	}
	db := New()
	if err := db.ImportCSV("flights", buf.Bytes(), DefaultImportOptions()); err != nil {
		t.Fatal(err)
	}
	tab := db.findTable("flights")
	least := tab.Columns[0]
	for _, c := range tab.Columns {
		if len(c.Data.Bytes()) < len(least.Data.Bytes()) {
			least = c
		}
	}
	scanned := func(sql string) (string, int64) {
		t.Helper()
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, s := range res.Stats().Operators {
			if s.Kind == "Scan" || s.Kind == "DeltaScan" {
				return res.Rows[0][0], s.BytesScanned
			}
		}
		t.Fatalf("%s: no scan in the stats", sql)
		return "", 0
	}
	check := func(label string, want int) {
		t.Helper()
		n, got := scanned("SELECT COUNT(*) FROM flights")
		if n != strconv.Itoa(want) {
			t.Fatalf("%s: COUNT(*) = %s, want %d", label, n, want)
		}
		_, one := scanned("SELECT COUNT(" + least.Name + ") FROM flights")
		_, all := scanned("SELECT * FROM flights")
		if got != one || got <= 0 || 4*got > all {
			t.Fatalf("%s: COUNT(*) scanned %d bytes; COUNT(%s) %d, every column %d", label, got, least.Name, one, all)
		}
	}
	check("clean", 5000)
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO flights (FlightNum, Carrier) VALUES (%d, 'ZZ')", 1_000_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	far := queryCount(t, db, "SELECT COUNT(Distance) FROM flights WHERE Distance > 2000")
	n, err := db.Exec("DELETE FROM flights WHERE Distance > 2000")
	if err != nil || int(n) != far || far == 0 {
		t.Fatalf("deleted %d rows (%v), want %d", n, err, far)
	}
	check("dirty", 5000+3-far)
}
