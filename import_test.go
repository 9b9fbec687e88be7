package tde

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestImportLongBlankRun: a run of tens of millions of blank lines is
// skipped in a loop. Skipping it by recursion overflowed the goroutine
// stack — a fatal error no panic boundary can contain.
func TestImportLongBlankRun(t *testing.T) {
	if testing.Short() {
		t.Skip("40 MB input")
	}
	data := []byte("a,b\n1,2\n" + strings.Repeat("\n", 40_000_000) + "3,4\n")
	for _, parallel := range []bool{false, true} {
		db := New()
		opt := DefaultImportOptions()
		opt.Parallel = parallel
		if err := db.ImportCSV("t", data, opt); err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if got := db.Rows("t"); got != 2 {
			t.Fatalf("parallel=%v: %d rows, want 2", parallel, got)
		}
	}
}

// FuzzImportCSV: for any bytes, serial and parallel import agree — the
// same error, or tables with identical column data and heaps — and
// neither panics (a contained panic surfaces as *InternalError). The
// committed corpus (testdata/fuzz/FuzzImportCSV) covers quoted fields
// with "" escapes, CRLF, ragged rows, a header alone and blank runs.
func FuzzImportCSV(f *testing.F) {
	f.Add([]byte(ordersCSV))
	f.Fuzz(func(t *testing.T, data []byte) {
		serial, parallel := New(), New()
		opt := DefaultImportOptions()
		opt.Parallel = false
		serr := serial.ImportCSV("t", data, opt)
		perr := parallel.ImportCSV("t", data, DefaultImportOptions())
		var ie *InternalError
		if errors.As(serr, &ie) || errors.As(perr, &ie) {
			t.Fatalf("import panicked: serial %v, parallel %v", serr, perr)
		}
		if (serr == nil) != (perr == nil) || (serr != nil && serr.Error() != perr.Error()) {
			t.Fatalf("serial error %v, parallel error %v", serr, perr)
		}
		if serr != nil {
			return
		}
		st, pt := serial.lookup("t"), parallel.lookup("t")
		if len(st.Columns) != len(pt.Columns) {
			t.Fatalf("%d columns serially, %d in parallel", len(st.Columns), len(pt.Columns))
		}
		for i, sc := range st.Columns {
			pc := pt.Columns[i]
			if sc.Name != pc.Name || sc.Type != pc.Type {
				t.Fatalf("column %d: %s %v serially, %s %v in parallel", i, sc.Name, sc.Type, pc.Name, pc.Type)
			}
			if !bytes.Equal(sc.Data.Bytes(), pc.Data.Bytes()) || !slices.Equal(sc.Dict, pc.Dict) {
				t.Fatalf("column %s: data differs", sc.Name)
			}
			if (sc.Heap == nil) != (pc.Heap == nil) || sc.Heap != nil && !bytes.Equal(sc.Heap.Bytes(), pc.Heap.Bytes()) {
				t.Fatalf("column %s: heap differs", sc.Name)
			}
		}
	})
}
