package sqlparse

import (
	"math/rand"
	"strings"
	"testing"

	"tde/internal/enc"
	"tde/internal/plan"
	"tde/internal/storage"
	"tde/internal/types"
)

func testTable() *storage.Table {
	mk := func(name string, t types.Type, vals []int64) *storage.Column {
		w := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true,
			Sentinel: types.NullBits(t), HasSentinel: true})
		for _, v := range vals {
			w.AppendOne(uint64(v))
		}
		return &storage.Column{Name: name, Type: t, Data: w.Finish(),
			Meta: enc.MetadataFromStats(w.Stats(), true)}
	}
	k := []int64{1, 1, 2, 2, 3}
	v := []int64{10, 20, 30, 40, 50}
	d := make([]int64, 5)
	for i := range d {
		d[i] = types.DaysFromCivil(2014, i+1, 15)
	}
	return &storage.Table{Name: "t", Columns: []*storage.Column{
		mk("k", types.Integer, k), mk("v", types.Integer, v), mk("d", types.Date, d),
	}}
}

func TestParseBasics(t *testing.T) {
	st, err := Parse("SELECT k, SUM(v) FROM t WHERE v > 15 GROUP BY k ORDER BY k DESC")
	if err != nil {
		t.Fatal(err)
	}
	if st.Table != "t" || len(st.items) != 2 || len(st.groupBy) != 1 || !st.orderBy[0].Desc {
		t.Fatalf("parsed statement wrong: %+v", st)
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t extra junk ;;",
		"SELECT a FROM t WHERE x = 'unterminated",
		"SELECT $rowid FROM t",
		"SELECT t.$rowid FROM t",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
}

func TestRunAggregation(t *testing.T) {
	tab := testTable()
	names, rows, err := Run("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k ORDER BY k", []*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "k" {
		t.Fatalf("names %v", names)
	}
	if len(rows) != 3 {
		t.Fatalf("%d groups", len(rows))
	}
	if rows[0][1] != "30" || rows[1][1] != "70" || rows[2][1] != "50" {
		t.Fatalf("sums wrong: %v", rows)
	}
	if rows[0][2] != "2" {
		t.Fatalf("count wrong: %v", rows[0])
	}
}

func TestRunWhere(t *testing.T) {
	tab := testTable()
	_, rows, err := Run("SELECT v FROM t WHERE k = 2 ORDER BY v", []*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "30" || rows[1][0] != "40" {
		t.Fatalf("rows %v", rows)
	}
}

func TestRunBetweenAndDateLiteral(t *testing.T) {
	tab := testTable()
	_, rows, err := Run(
		"SELECT COUNT(*) FROM t WHERE d BETWEEN DATE '2014-02-01' AND DATE '2014-04-30'",
		[]*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "3" {
		t.Fatalf("between count %v", rows)
	}
}

func TestRunComputedColumn(t *testing.T) {
	tab := testTable()
	_, rows, err := Run("SELECT MONTH(d) AS m, COUNT(*) FROM t GROUP BY m ORDER BY m",
		[]*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0][0] != "1" || rows[4][0] != "5" {
		t.Fatalf("months %v", rows)
	}
}

func TestRunExpressionAggregate(t *testing.T) {
	tab := testTable()
	_, rows, err := Run("SELECT SUM(v * 2) FROM t", []*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "300" {
		t.Fatalf("SUM(v*2) = %v", rows[0][0])
	}
}

func TestRunMedianAvg(t *testing.T) {
	tab := testTable()
	_, rows, err := Run("SELECT MEDIAN(v), AVG(v), MIN(v), MAX(v), COUNTD(k) FROM t",
		[]*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "30" || rows[0][1] != "30" || rows[0][2] != "10" || rows[0][3] != "50" || rows[0][4] != "3" {
		t.Fatalf("aggregates %v", rows[0])
	}
}

func TestRunIsNullAndLogic(t *testing.T) {
	tab := testTable()
	_, rows, err := Run("SELECT COUNT(*) FROM t WHERE v IS NOT NULL AND (k = 1 OR k = 3)",
		[]*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "3" {
		t.Fatalf("count %v", rows)
	}
}

func TestRunUnknownTableAndColumn(t *testing.T) {
	tab := testTable()
	if _, _, err := Run("SELECT x FROM nope", []*storage.Table{tab}, plan.Options{}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, _, err := Run("SELECT nosuch FROM t", []*storage.Table{tab}, plan.Options{}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	tab := testTable()
	_, rows, err := Run("select count(*) from t where k > 0", []*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "5" {
		t.Fatalf("count %v", rows)
	}
}

func TestStringEscapes(t *testing.T) {
	st, err := Parse("SELECT a FROM t WHERE s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.where.String(), "it's") {
		t.Fatalf("escape lost: %s", st.where)
	}
}

func TestRunLimitAndTopN(t *testing.T) {
	tab := testTable()
	_, rows, err := Run("SELECT v FROM t ORDER BY v DESC LIMIT 2", []*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "50" || rows[1][0] != "40" {
		t.Fatalf("top-2 %v", rows)
	}
	_, rows, err = Run("SELECT v FROM t LIMIT 3", []*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("limit kept %d", len(rows))
	}
	if _, err := Parse("SELECT v FROM t LIMIT banana"); err == nil {
		t.Error("bad LIMIT accepted")
	}
}

func TestRunHaving(t *testing.T) {
	tab := testTable()
	_, rows, err := Run(
		"SELECT k, COUNT(*) AS c FROM t GROUP BY k HAVING c > 1 ORDER BY k",
		[]*storage.Table{tab}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // groups 1 and 2 have two rows; group 3 has one
		t.Fatalf("having kept %d groups: %v", len(rows), rows)
	}
	if rows[0][0] != "1" || rows[1][0] != "2" {
		t.Fatalf("having groups %v", rows)
	}
}

func joinTables() []*storage.Table {
	mk := func(name string, t types.Type, vals []int64) *storage.Column {
		w := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true,
			Sentinel: types.NullBits(t), HasSentinel: true})
		for _, v := range vals {
			w.AppendOne(uint64(v))
		}
		return &storage.Column{Name: name, Type: t, Data: w.Finish(),
			Meta: enc.MetadataFromStats(w.Stats(), true)}
	}
	fact := &storage.Table{Name: "sales", Columns: []*storage.Column{
		mk("pid", types.Integer, []int64{0, 1, 0, 2, 1, 0}),
		mk("amount", types.Integer, []int64{10, 20, 30, 40, 50, 60}),
	}}
	dim := &storage.Table{Name: "products", Columns: []*storage.Column{
		mk("id", types.Integer, []int64{0, 1, 2}),
		mk("grp", types.Integer, []int64{7, 8, 7}),
	}}
	return []*storage.Table{fact, dim}
}

func TestSQLJoin(t *testing.T) {
	tables := joinTables()
	_, rows, err := Run(
		"SELECT grp, SUM(amount) FROM sales JOIN products ON sales.pid = products.id GROUP BY grp ORDER BY grp",
		tables, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups %v", rows)
	}
	// grp 7 (products 0 and 2): 10+30+60+40 = 140; grp 8 (product 1): 70.
	if rows[0][0] != "7" || rows[0][1] != "140" {
		t.Fatalf("grp 7 %v", rows[0])
	}
	if rows[1][0] != "8" || rows[1][1] != "70" {
		t.Fatalf("grp 8 %v", rows[1])
	}
}

func TestSQLJoinWithAliases(t *testing.T) {
	tables := joinTables()
	_, rows, err := Run(
		"SELECT d.grp, COUNT(*) FROM sales f JOIN products d ON f.pid = d.id GROUP BY d.grp ORDER BY d.grp",
		tables, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][1] != "4" || rows[1][1] != "2" {
		t.Fatalf("alias join rows %v", rows)
	}
}

func TestSQLJoinReversedOnClause(t *testing.T) {
	tables := joinTables()
	_, rows, err := Run(
		"SELECT COUNT(*) FROM sales JOIN products ON products.id = sales.pid",
		tables, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "6" {
		t.Fatalf("reversed ON clause rows %v", rows)
	}
}

func TestSQLLeftJoin(t *testing.T) {
	tables := joinTables()
	// Shrink the dimension: pid 2 unmatched.
	_, rows, err := Run(
		"SELECT COUNT(*), COUNT(grp) FROM sales LEFT JOIN products ON sales.pid = products.id",
		tables, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "6" {
		t.Fatalf("left join dropped rows %v", rows)
	}
}

func TestSQLJoinErrors(t *testing.T) {
	tables := joinTables()
	if _, _, err := Run("SELECT a FROM sales JOIN nosuch ON sales.pid = nosuch.id", tables, plan.Options{}); err == nil {
		t.Error("unknown join table accepted")
	}
	if _, err := Parse("SELECT a FROM t JOIN u"); err == nil {
		t.Error("JOIN without ON accepted")
	}
	if _, err := Parse("SELECT a FROM t JOIN u ON x"); err == nil {
		t.Error("ON without equality accepted")
	}
}

func TestParseNeverPanics(t *testing.T) {
	seeds := []string{
		"SELECT k, SUM(v) FROM t WHERE v > 15 GROUP BY k ORDER BY k DESC LIMIT 3",
		"SELECT a.x FROM t a JOIN u b ON a.x = b.y WHERE x IS NOT NULL",
		"SELECT MONTH(d) AS m, COUNT(*) FROM t GROUP BY m HAVING m > 2",
		"SELECT * FROM t WHERE s = 'it''s' AND (a + b) * 2 <> 4.5e2",
	}
	rng := rand.New(rand.NewSource(99))
	mutate := func(s string) string {
		b := []byte(s)
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0: // flip a byte
				if len(b) > 0 {
					b[rng.Intn(len(b))] = byte(32 + rng.Intn(95))
				}
			case 1: // delete a chunk
				if len(b) > 2 {
					at := rng.Intn(len(b) - 1)
					end := at + 1 + rng.Intn(len(b)-at-1)
					b = append(b[:at], b[end:]...)
				}
			default: // duplicate a chunk
				if len(b) > 2 {
					at := rng.Intn(len(b) - 1)
					end := at + 1 + rng.Intn(len(b)-at-1)
					b = append(b[:end:end], append(append([]byte{}, b[at:end]...), b[end:]...)...)
				}
			}
		}
		return string(b)
	}
	for trial := 0; trial < 3000; trial++ {
		s := mutate(seeds[rng.Intn(len(seeds))])
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", s, r)
				}
			}()
			_, _ = Parse(s) // errors are fine; panics are not
		}()
	}
}
