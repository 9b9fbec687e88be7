package sqlparse

import (
	"strings"
	"testing"
)

func TestParseInsert(t *testing.T) {
	st, err := ParseDML("INSERT INTO orders VALUES ('open', 10, NULL), ('closed', -2 * 3, DATE '2014-01-15')")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != DMLInsert || st.Table != "orders" || st.Columns != nil {
		t.Fatalf("st = %+v", st)
	}
	if len(st.Rows) != 2 || len(st.Rows[0]) != 3 || len(st.Rows[1]) != 3 {
		t.Fatalf("rows = %+v", st.Rows)
	}
}

func TestParseInsertColumnList(t *testing.T) {
	st, err := ParseDML("INSERT INTO t (a, b) VALUES (1, 'x')")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Columns) != 2 || st.Columns[0] != "a" || st.Columns[1] != "b" {
		t.Fatalf("columns = %v", st.Columns)
	}
	if _, err := ParseDML("INSERT INTO t (a, b) VALUES (1)"); err == nil ||
		!strings.Contains(err.Error(), "1 values for 2 columns") {
		t.Fatalf("arity mismatch: %v", err)
	}
}

func TestParseUpdate(t *testing.T) {
	st, err := ParseDML("UPDATE t SET a = a + 1, s = UPPER(s) WHERE a < 10 AND s <> 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != DMLUpdate || st.Table != "t" || len(st.Set) != 2 || st.Where == nil {
		t.Fatalf("st = %+v", st)
	}
	if st.Set[0].Column != "a" || st.Set[1].Column != "s" {
		t.Fatalf("set = %+v", st.Set)
	}
}

func TestParseDelete(t *testing.T) {
	st, err := ParseDML("DELETE FROM t WHERE a IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != DMLDelete || st.Table != "t" || st.Where == nil {
		t.Fatalf("st = %+v", st)
	}
	st, err = ParseDML("DELETE FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Where != nil {
		t.Fatalf("bare delete grew a WHERE: %+v", st)
	}
}

func TestParseDMLErrors(t *testing.T) {
	bad := []string{
		"INSERT orders VALUES (1)",       // missing INTO
		"INSERT INTO t VALUES 1",         // missing parens
		"UPDATE t a = 1",                 // missing SET
		"DELETE t",                       // missing FROM
		"DELETE FROM t WHERE",            // dangling WHERE
		"INSERT INTO t VALUES (1) foo",   // trailing input
		"MERGE INTO t",                   // not a DML statement
		"DELETE FROM t WHERE $rowid = 1", // the row address is not SQL's
		"UPDATE t SET $rowid = 1",
	}
	for _, sql := range bad {
		if _, err := ParseDML(sql); err == nil {
			t.Fatalf("accepted %q", sql)
		}
	}
}

func TestParseAnyDispatch(t *testing.T) {
	v, err := ParseAny("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.(*Statement); !ok {
		t.Fatalf("SELECT parsed as %T", v)
	}
	v, err = ParseAny("insert into t values (1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.(*DML); !ok {
		t.Fatalf("INSERT parsed as %T", v)
	}
	if _, err := ParseAny("update t set"); err == nil {
		t.Fatal("broken UPDATE accepted")
	}
}
