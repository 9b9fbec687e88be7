package difftest

import (
	"bytes"
	"fmt"
	"testing"

	"tde"
	"tde/internal/plan"
)

// groupingTable is a fixture for token-native grouping: three string
// columns whose product (~4.6 k groups) outgrows a 256 KiB budget, NULLs
// in every key column, and spellings of a that differ only in case.
func groupingTable(t *testing.T, collation string, dirty bool) *tde.Database {
	t.Helper()
	var csv bytes.Buffer
	csv.WriteString("a,b,c,v\n")
	for i := 0; i < 9000; i++ {
		a := fmt.Sprintf("k%02d", i%21)
		if i%2 == 1 {
			a = fmt.Sprintf("K%02d", i%21)
		}
		b, c := fmt.Sprintf("b%d", i*7%22), fmt.Sprintf("c%d", i*13%10)
		switch i % 53 { // an empty field imports as NULL
		case 0:
			a = ""
		case 1:
			b = ""
		case 2:
			c = ""
		}
		fmt.Fprintf(&csv, "%s,%s,%s,%d\n", a, b, c, i%97)
	}
	opt := tde.DefaultImportOptions()
	opt.Collation = collation
	db := tde.New()
	if err := db.ImportCSV("g", csv.Bytes(), opt); err != nil {
		t.Fatal(err)
	}
	if dirty {
		// An overlay: the scan now alternates the stored heaps with the
		// overlay's, and some base rows are gone.
		for _, sql := range []string{
			"INSERT INTO g VALUES ('k00', 'b0', 'c0', 5), ('fresh', 'b1', NULL, 6), (NULL, 'fresh', 'c1', 7)",
			"UPDATE g SET b = 'moved' WHERE v = 3",
			"DELETE FROM g WHERE v = 4",
		} {
			if _, err := db.Exec(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	return db
}

// TestGroupingOnTokens runs string-keyed aggregations through every
// regime of the one aggregation core — workers 1/2/8, unbudgeted and
// 256 KiB with spilling — over the inputs that stress token translation:
// a case-insensitive collation, NULL keys, a dirty overlay's second heap,
// a computed key's per-block heaps, and a three-column string key. Each
// must equal the serial decoded plan's answer.
func TestGroupingOnTokens(t *testing.T) {
	oracle := plan.Options{ParallelWorkers: -1, NoEncodedExec: true}
	cases := []struct {
		name, collation string
		dirty           bool
		sql             string
		groups          int // expected result rows; 0 = unchecked
	}{
		// Case-insensitive: 'k07' and 'K07' are one group, whichever
		// spelling a worker meets first, so the key itself stays out of
		// the compared rows.
		{"collation-ci", "ci", false, "SELECT COUNT(*), SUM(v), MIN(v) FROM g GROUP BY a", 22},
		{"collation-binary", "binary", false, "SELECT a, COUNT(*), SUM(v) FROM g GROUP BY a", 43},
		{"null-keys", "binary", false, "SELECT b, c, COUNT(*), MAX(a) FROM g GROUP BY b, c", 0},
		{"dirty-overlay", "binary", true, "SELECT a, b, COUNT(*), SUM(v), MIN(c) FROM g GROUP BY a, b", 0},
		{"computed-key", "binary", false, "SELECT UPPER(a) AS k, COUNT(*), SUM(v) FROM g GROUP BY k", 22},
		{"computed-key-dirty", "ci", true, "SELECT UPPER(b) AS k, c, COUNT(*) FROM g GROUP BY k, c", 0},
		{"three-string-keys", "binary", false, "SELECT a, b, c, COUNT(*), SUM(v), COUNTD(v) FROM g GROUP BY a, b, c", 0},
		{"three-string-keys-dirty", "binary", true, "SELECT a, b, c, COUNT(*), AVG(v) FROM g GROUP BY a, b, c", 0},
	}
	spilled := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := groupingTable(t, tc.collation, tc.dirty)
			if tc.groups > 0 {
				res, err := db.QueryWithOptions(tc.sql, oracle)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != tc.groups {
					t.Fatalf("oracle formed %d groups, want %d", len(res.Rows), tc.groups)
				}
			}
			for _, budget := range []int64{0, 256 << 10} {
				cfg := Config{Workers: []int{1, 2, 8}, MemoryBudget: budget}
				if budget > 0 {
					cfg.SpillBudget = 1 << 30
				}
				rep := &Report{}
				if err := Compare(db, tc.sql, oracle, cfg, rep); err != nil {
					t.Fatal(err)
				}
				for _, m := range rep.Mismatches {
					t.Errorf("budget %d: mismatch: %s", budget, m)
				}
				spilled += rep.Spilled
			}
		})
	}
	if spilled == 0 {
		t.Error("no variant spilled; the 256 KiB budget is too loose to exercise eviction")
	}
}
