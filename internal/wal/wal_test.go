package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tde/internal/corrupt"
	"tde/internal/delta"
	"tde/internal/iofault"
	"tde/internal/types"
)

// newLog creates a fresh log bound to base and opens a writer on it.
func newLog(t *testing.T, base []byte) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.tde.wal")
	if err := Create(iofault.OS, path, Bind(base)); err != nil {
		t.Fatal(err)
	}
	l, err := OpenWriter(iofault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

func parseFile(t *testing.T, path string) *Replay {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Parse(path, raw)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

func TestRoundTrip(t *testing.T) {
	base := []byte("base image bytes")
	l, path := newLog(t, base)
	if err := l.Begin(7); err != nil {
		t.Fatal(err)
	}
	row := []delta.Value{delta.String("open"), delta.Scalar(42), delta.NullOf(types.Integer)}
	if err := l.Insert(7, "orders", row, []bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(7, "orders", 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(7); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rp := parseFile(t, path)
	if rp.Binding != Bind(base) {
		t.Fatalf("binding %+v != %+v", rp.Binding, Bind(base))
	}
	if rp.Tail != TailClean {
		t.Fatalf("tail = %v", rp.Tail)
	}
	if rp.NextTx != 8 {
		t.Fatalf("NextTx = %d", rp.NextTx)
	}
	if len(rp.Txns) != 1 || rp.Txns[0].ID != 7 || len(rp.Txns[0].Ops) != 2 {
		t.Fatalf("txns = %+v", rp.Txns)
	}
	ins, del := rp.Txns[0].Ops[0], rp.Txns[0].Ops[1]
	if ins.Kind != delta.OpInsert || ins.Table != "orders" || len(ins.Row) != 3 {
		t.Fatalf("insert op = %+v", ins)
	}
	if ins.Row[0].Str != "open" || ins.Row[1].Bits != 42 || ins.Row[2].Bits != types.NullBits(types.Integer) {
		t.Fatalf("insert row = %+v", ins.Row)
	}
	if del.Kind != delta.OpDelete || del.RowID != 3 {
		t.Fatalf("delete op = %+v", del)
	}
}

func TestNullStringRoundTrip(t *testing.T) {
	l, path := newLog(t, nil)
	if err := l.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert(1, "t", []delta.Value{delta.NullOf(types.String)}, []bool{true}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	rp := parseFile(t, path)
	got := rp.Txns[0].Ops[0].Row[0]
	if !got.IsNullString() {
		t.Fatalf("null string decoded as %+v", got)
	}
}

func TestAbortTerminatesCleanly(t *testing.T) {
	l, path := newLog(t, nil)
	for _, step := range []error{
		l.Begin(1),
		l.Insert(1, "t", []delta.Value{delta.Scalar(1)}, []bool{false}),
		l.Abort(1),
		l.Begin(2),
		l.Insert(2, "t", []delta.Value{delta.Scalar(2)}, []bool{false}),
		l.Commit(2),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	rp := parseFile(t, path)
	if rp.Tail != TailClean {
		t.Fatalf("tail = %v", rp.Tail)
	}
	if len(rp.Txns) != 1 || rp.Txns[0].ID != 2 {
		t.Fatalf("aborted txn leaked into replay: %+v", rp.Txns)
	}
	if rp.NextTx != 3 {
		t.Fatalf("NextTx = %d: aborted IDs must not be reused", rp.NextTx)
	}
}

func TestUncommittedTail(t *testing.T) {
	l, path := newLog(t, nil)
	if err := l.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert(1, "t", []delta.Value{delta.Scalar(9)}, []bool{false}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Begin(2); err != nil {
		t.Fatal(err)
	}
	rp := parseFile(t, path)
	if rp.Tail != TailUncommitted {
		t.Fatalf("tail = %v", rp.Tail)
	}
	if len(rp.Txns) != 1 {
		t.Fatalf("txns = %+v", rp.Txns)
	}

	// RepairTail truncates the dangling begin; a reparse is clean and
	// keeps the committed transaction.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := RepairTail(iofault.OS, path, raw, rp.CleanLen); err != nil {
		t.Fatal(err)
	}
	rp2 := parseFile(t, path)
	if rp2.Tail != TailClean || len(rp2.Txns) != 1 || rp2.CleanLen != rp.CleanLen {
		t.Fatalf("after repair: tail=%v txns=%d", rp2.Tail, len(rp2.Txns))
	}
}

func TestTornTail(t *testing.T) {
	l, path := newLog(t, nil)
	for tx := uint64(1); tx <= 2; tx++ {
		if err := l.Begin(tx); err != nil {
			t.Fatal(err)
		}
		if err := l.Insert(tx, "t", []delta.Value{delta.Scalar(tx)}, []bool{false}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clean := parseFile(t, path).CleanLen
	if clean != int64(len(raw)) {
		t.Fatalf("clean log has CleanLen %d != %d", clean, len(raw))
	}

	// Tear the file at every possible point: once a cut is long enough to
	// contain the first commit, every longer cut must also recover it, and
	// CleanLen must always stay a valid truncation point.
	firstSeen := -1
	for cut := headerLen + 1; cut <= len(raw); cut++ {
		rp, err := Parse(path, raw[:cut])
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		has := len(rp.Txns) >= 1 && rp.Txns[0].ID == 1
		if has && firstSeen == -1 {
			firstSeen = cut
		}
		if !has && firstSeen != -1 {
			t.Fatalf("cut=%d lost transaction 1 which cut=%d recovered", cut, firstSeen)
		}
		if rp.CleanLen > int64(cut) {
			t.Fatalf("cut=%d: CleanLen %d beyond file", cut, rp.CleanLen)
		}
	}
	if firstSeen == -1 {
		t.Fatal("no cut recovered transaction 1")
	}
}

func TestBitFlipConfinesDamage(t *testing.T) {
	l, path := newLog(t, nil)
	for tx := uint64(1); tx <= 3; tx++ {
		if err := l.Begin(tx); err != nil {
			t.Fatal(err)
		}
		if err := l.Insert(tx, "t", []delta.Value{delta.String("v")}, []bool{true}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := headerLen; pos < len(raw); pos++ {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		rp, err := Parse(path, mut)
		if err != nil {
			t.Fatalf("pos=%d: header-level error from record damage: %v", pos, err)
		}
		if rp.Tail != TailCorrupt {
			t.Fatalf("pos=%d: flip not detected (tail=%v)", pos, rp.Tail)
		}
		if rp.Err == nil || !errors.Is(rp.Err, corrupt.Err) {
			t.Fatalf("pos=%d: Err = %v", pos, rp.Err)
		}
		// The committed transactions before the damaged frame replay intact.
		for i, txn := range rp.Txns {
			if txn.ID != uint64(i+1) || len(txn.Ops) != 1 {
				t.Fatalf("pos=%d: surviving txns damaged: %+v", pos, rp.Txns)
			}
		}
	}
}

func TestHeaderDamageFailsParse(t *testing.T) {
	base := []byte("x")
	path := filepath.Join(t.TempDir(), "w.wal")
	if err := Create(iofault.OS, path, Bind(base)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       raw[:headerLen-1],
		"bad magic":   append([]byte("NOTAWAL\n"), raw[8:]...),
		"bad version": append(append([]byte{}, raw[:8]...), append([]byte{99, 0, 0, 0}, raw[12:]...)...),
	}
	for name, img := range cases {
		if _, err := Parse(path, img); !errors.Is(err, corrupt.Err) {
			t.Fatalf("%s: err = %v, want corrupt.Err", name, err)
		}
	}
}

// TestInterleavedTransactionsReplay: concurrent committers may interleave
// their record runs; replay keys records by transaction ID and recovers
// commits in commit order, not begin order.
func TestInterleavedTransactionsReplay(t *testing.T) {
	l, path := newLog(t, nil)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Begin(1))
	must(l.Begin(2))
	must(l.Insert(1, "t", []delta.Value{delta.Scalar(10)}, []bool{false}))
	must(l.Insert(2, "t", []delta.Value{delta.Scalar(20)}, []bool{false}))
	must(l.Commit(2)) // tx 2 commits first despite beginning second
	must(l.Delete(1, "t", 0))
	must(l.Commit(1))
	rp := parseFile(t, path)
	if rp.Tail != TailClean {
		t.Fatalf("tail = %v, want clean", rp.Tail)
	}
	if len(rp.Txns) != 2 || rp.Txns[0].ID != 2 || rp.Txns[1].ID != 1 {
		t.Fatalf("txns = %+v, want commit order [2 1]", rp.Txns)
	}
	if len(rp.Txns[0].Ops) != 1 || rp.Txns[0].Ops[0].Row[0].Bits != 20 {
		t.Fatalf("tx 2 ops = %+v", rp.Txns[0].Ops)
	}
	if len(rp.Txns[1].Ops) != 2 || rp.Txns[1].Ops[1].Kind != delta.OpDelete {
		t.Fatalf("tx 1 ops = %+v", rp.Txns[1].Ops)
	}
}

// A transaction ID must occur at most once: re-beginning an open or
// already-terminated transaction is structural corruption.
func TestReBeginRejected(t *testing.T) {
	for name, script := range map[string]func(l *Log){
		"open":      func(l *Log) { _ = l.Begin(1); _ = l.Begin(1) },
		"committed": func(l *Log) { _ = l.Begin(1); _ = l.Commit(1); _ = l.Begin(1) },
		"aborted":   func(l *Log) { _ = l.Begin(1); _ = l.Abort(1); _ = l.Begin(1) },
	} {
		t.Run(name, func(t *testing.T) {
			l, path := newLog(t, nil)
			script(l)
			rp := parseFile(t, path)
			if rp.Tail != TailCorrupt {
				t.Fatalf("tail = %v, want corrupt (re-begin of tx 1)", rp.Tail)
			}
		})
	}
}

// TestAppendTxnGroupCommit drives the concurrent commit path: many
// goroutines append whole transaction runs and wait for durability via
// SyncTo; replay must see every transaction intact, and the group-commit
// batching must have issued fewer fsyncs than transactions (on any
// machine where the goroutines actually overlap) — but at least one.
func TestAppendTxnGroupCommit(t *testing.T) {
	fs := iofault.NewInjector(nil)
	path := filepath.Join(t.TempDir(), "g.wal")
	if err := Create(fs, path, Binding{BaseLen: 1, BaseCRC: 2}); err != nil {
		t.Fatal(err)
	}
	l, err := OpenWriter(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	// Create's header fsync went through the same injector: count only
	// what the commits issue.
	opened := len(fs.Log())
	const txns = 32
	strCols := func(string) []bool { return []bool{false, true} }
	var wg sync.WaitGroup
	errs := make([]error, txns)
	for i := 0; i < txns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops := []delta.Op{{
				Table: "t", Kind: delta.OpInsert,
				Row: []delta.Value{delta.Scalar(uint64(i)), delta.String("v")},
			}}
			off, err := l.AppendTxn(uint64(i+1), ops, strCols)
			if err == nil {
				err = l.SyncTo(off)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("txn %d: %v", i+1, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rp := parseFile(t, path)
	if rp.Tail != TailClean || len(rp.Txns) != txns {
		t.Fatalf("tail=%v txns=%d, want clean/%d", rp.Tail, len(rp.Txns), txns)
	}
	seen := map[uint64]bool{}
	for _, txn := range rp.Txns {
		if seen[txn.ID] || len(txn.Ops) != 1 || txn.Ops[0].Row[0].Bits != txn.ID-1 {
			t.Fatalf("txn %d damaged or duplicated: %+v", txn.ID, txn.Ops)
		}
		seen[txn.ID] = true
	}
	syncs := 0
	for _, op := range fs.Log()[opened:] {
		if strings.Contains(op, " sync ") {
			syncs++
		}
	}
	if syncs < 1 || syncs > txns {
		t.Fatalf("fsync count %d outside [1,%d]", syncs, txns)
	}
}

// A sync failure must poison every waiter of the round, not only the
// leader that issued the fsync.
func TestSyncFailurePoisonsAllWaiters(t *testing.T) {
	fs := iofault.NewInjector(nil)
	fs.Script(iofault.Fault{Op: iofault.OpSync})
	p := filepath.Join(t.TempDir(), "p.wal")
	if err := Create(iofault.OS, p, Binding{}); err != nil {
		t.Fatal(err)
	}
	l, err := OpenWriter(fs, p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off, err := l.AppendTxn(uint64(i+1), nil, nil)
			if err == nil {
				err = l.SyncTo(off)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d: sync failure not surfaced", i)
		}
	}
	if l.Err() == nil {
		t.Fatal("log not poisoned after sync failure")
	}
}

func TestCommitWithoutBeginRejected(t *testing.T) {
	l, path := newLog(t, nil)
	if err := l.Commit(5); err != nil {
		t.Fatal(err)
	}
	rp := parseFile(t, path)
	if rp.Tail != TailCorrupt || len(rp.Txns) != 0 {
		t.Fatalf("tail=%v txns=%+v", rp.Tail, rp.Txns)
	}
}

func TestBindingDetectsStaleBase(t *testing.T) {
	a, b := Bind([]byte("one base")), Bind([]byte("another"))
	if a == b {
		t.Fatal("distinct images produced equal bindings")
	}
	if a != Bind([]byte("one base")) {
		t.Fatal("binding is not deterministic")
	}
}

func TestSweepTemps(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, TempPrefix+"111")
	oldSave := filepath.Join(dir, saveTempPrefix+"222")
	fresh := filepath.Join(dir, TempPrefix+"333")
	keep := filepath.Join(dir, "db.tde")
	for _, p := range []string{old, oldSave, fresh, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * time.Hour)
	for _, p := range []string{old, oldSave} {
		if err := os.Chtimes(p, stale, stale); err != nil {
			t.Fatal(err)
		}
	}
	n, err := SweepTemps(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("swept %d, want 2", n)
	}
	for p, want := range map[string]bool{old: false, oldSave: false, fresh: true, keep: true} {
		_, err := os.Stat(p)
		if got := err == nil; got != want {
			t.Fatalf("%s: exists=%v, want %v", p, got, want)
		}
	}
}

// FuzzWALRead throws arbitrary bytes at the log parser. Whatever the
// input, Parse must not panic, and any successful parse must uphold the
// recovery invariants the database relies on: CleanLen is a valid
// truncation point, and re-parsing the truncated prefix yields the same
// committed transactions with a clean tail (repair is idempotent).
func FuzzWALRead(f *testing.F) {
	seed := func(build func(l *Log)) []byte {
		path := filepath.Join(f.TempDir(), "s.wal")
		if err := Create(iofault.OS, path, Binding{BaseLen: 123, BaseCRC: 456}); err != nil {
			f.Fatal(err)
		}
		l, err := OpenWriter(iofault.OS, path)
		if err != nil {
			f.Fatal(err)
		}
		build(l)
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(seed(func(l *Log) {}))
	f.Add(seed(func(l *Log) {
		_ = l.Begin(1)
		_ = l.Insert(1, "orders", []delta.Value{delta.String("open"), delta.Scalar(7), delta.NullOf(types.String)}, []bool{true, false, true})
		_ = l.Delete(1, "orders", 99)
		_ = l.Commit(1)
	}))
	f.Add(seed(func(l *Log) {
		_ = l.Begin(1)
		_ = l.Abort(1)
		_ = l.Begin(2)
		_ = l.Insert(2, "t", []delta.Value{delta.Scalar(1)}, []bool{false})
	}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		rp, err := Parse("fuzz.wal", raw)
		if err != nil {
			if !errors.Is(err, corrupt.Err) {
				t.Fatalf("non-corrupt parse error: %v", err)
			}
			return
		}
		if rp.CleanLen < headerLen || rp.CleanLen > int64(len(raw)) {
			t.Fatalf("CleanLen %d out of range [%d,%d]", rp.CleanLen, headerLen, len(raw))
		}
		if rp.Tail == TailCorrupt && rp.Err == nil {
			t.Fatal("corrupt tail without detail error")
		}
		if rp.Tail != TailCorrupt && rp.Err != nil {
			t.Fatalf("tail %v carries error %v", rp.Tail, rp.Err)
		}
		for _, txn := range rp.Txns {
			if txn.ID >= rp.NextTx {
				t.Fatalf("NextTx %d not past committed tx %d", rp.NextTx, txn.ID)
			}
		}
		rp2, err := Parse("fuzz.wal", raw[:rp.CleanLen])
		if err != nil {
			t.Fatalf("truncated prefix does not parse: %v", err)
		}
		if rp2.Tail != TailClean {
			t.Fatalf("truncated prefix tail = %v, want clean", rp2.Tail)
		}
		if len(rp2.Txns) != len(rp.Txns) || rp2.CleanLen != rp.CleanLen {
			t.Fatalf("truncation changed replay: %d txns clean=%d, want %d txns clean=%d",
				len(rp2.Txns), rp2.CleanLen, len(rp.Txns), rp.CleanLen)
		}
	})
}

// FuzzWALReadConcurrent seeds the parser with interleaved multi-
// transaction record runs — the group-commit writer's output shape and
// hand-interleaved variants recovery must also survive — and checks the
// same recovery invariants as FuzzWALRead plus commit-order and
// txn-uniqueness guarantees.
func FuzzWALReadConcurrent(f *testing.F) {
	seed := func(build func(l *Log)) []byte {
		path := filepath.Join(f.TempDir(), "s.wal")
		if err := Create(iofault.OS, path, Binding{BaseLen: 9, BaseCRC: 9}); err != nil {
			f.Fatal(err)
		}
		l, err := OpenWriter(iofault.OS, path)
		if err != nil {
			f.Fatal(err)
		}
		build(l)
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	strCols := func(string) []bool { return []bool{false, true} }
	row := func(n uint64, s string) []delta.Value {
		return []delta.Value{delta.Scalar(n), delta.String(s)}
	}
	// Two whole AppendTxn runs back to back (the writer's real output).
	f.Add(seed(func(l *Log) {
		_, _ = l.AppendTxn(1, []delta.Op{
			{Table: "a", Kind: delta.OpInsert, Row: row(1, "x")},
			{Table: "a", Kind: delta.OpDelete, RowID: 3},
		}, strCols)
		_, _ = l.AppendTxn(2, []delta.Op{
			{Table: "b", Kind: delta.OpInsert, Row: row(2, "y")},
		}, strCols)
	}))
	// Fully interleaved runs committing in reverse begin order.
	f.Add(seed(func(l *Log) {
		_ = l.Begin(1)
		_ = l.Begin(2)
		_ = l.Insert(1, "a", row(1, "x"), strCols("a"))
		_ = l.Insert(2, "a", row(2, "y"), strCols("a"))
		_ = l.Commit(2)
		_ = l.Delete(1, "a", 0)
		_ = l.Commit(1)
	}))
	// A committed txn interleaved with one left open (crash shape), and
	// an aborted one.
	f.Add(seed(func(l *Log) {
		_ = l.Begin(3)
		_ = l.Begin(4)
		_ = l.Abort(4)
		_ = l.Insert(3, "a", row(3, "z"), strCols("a"))
		_ = l.Commit(3)
		_ = l.Begin(5)
		_ = l.Insert(5, "a", row(5, "w"), strCols("a"))
	}))
	// Structural damage: a re-begun transaction ID.
	f.Add(seed(func(l *Log) {
		_ = l.Begin(1)
		_ = l.Commit(1)
		_ = l.Begin(1)
	}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		rp, err := Parse("fuzz.wal", raw)
		if err != nil {
			if !errors.Is(err, corrupt.Err) {
				t.Fatalf("non-corrupt parse error: %v", err)
			}
			return
		}
		if rp.CleanLen < headerLen || rp.CleanLen > int64(len(raw)) {
			t.Fatalf("CleanLen %d out of range [%d,%d]", rp.CleanLen, headerLen, len(raw))
		}
		seen := map[uint64]bool{}
		for _, txn := range rp.Txns {
			if seen[txn.ID] {
				t.Fatalf("tx %d committed twice", txn.ID)
			}
			seen[txn.ID] = true
			if txn.ID >= rp.NextTx {
				t.Fatalf("NextTx %d not past committed tx %d", rp.NextTx, txn.ID)
			}
		}
		rp2, err := Parse("fuzz.wal", raw[:rp.CleanLen])
		if err != nil {
			t.Fatalf("truncated prefix does not parse: %v", err)
		}
		if rp2.Tail != TailClean {
			t.Fatalf("truncated prefix tail = %v, want clean", rp2.Tail)
		}
		if len(rp2.Txns) != len(rp.Txns) {
			t.Fatalf("truncation changed replay: %d txns, want %d", len(rp2.Txns), len(rp.Txns))
		}
		for i := range rp2.Txns {
			if rp2.Txns[i].ID != rp.Txns[i].ID || len(rp2.Txns[i].Ops) != len(rp.Txns[i].Ops) {
				t.Fatalf("truncation changed txn %d", i)
			}
		}
	})
}
