package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"tde/internal/types"
)

// TestParallelJoinMatchesSerial checks the Exchange probe agrees with the
// serial join for every worker count and routing mode, including
// duplicate inner keys (where the first-match winner must not change) and
// sparse keys (misses).
func TestParallelJoinMatchesSerial(t *testing.T) {
	n := 60_000
	inner := 40_000
	rng := rand.New(rand.NewSource(23))
	fk := make([]int64, n)
	for i := range fk {
		fk[i] = int64(rng.Intn(inner + 500)) // some misses
	}
	pk := make([]int64, inner)
	val := make([]int64, inner)
	for i := range pk {
		// Duplicate keys every few rows: the probe must keep returning the
		// serial first-match row.
		pk[i] = int64(i)
		if i%17 == 0 && i > 0 {
			pk[i] = pk[i-1]
		}
		val[i] = int64(i * 3)
	}
	fact := makeTable("fact", makeIntColumn("fk", types.Integer, fk))
	dim := makeTable("dim",
		makeIntColumn("pk", types.Integer, pk),
		makeIntColumn("val", types.Integer, val))

	for _, leftOuter := range []bool{false, true} {
		outer, _ := NewScan(fact)
		dimScan, _ := NewScan(dim)
		ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
		base := NewHashJoin(outer, ft, 0, 0, JoinHash)
		base.LeftOuter = leftOuter
		want, err := CollectStrings(base)
		if err != nil {
			t.Fatal(err)
		}
		sortRows(want)
		for _, workers := range []int{2, 8} {
			for _, preserve := range []bool{false, true} {
				outer, _ := NewScan(fact)
				dimScan, _ := NewScan(dim)
				ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
				j := NewHashJoin(outer, ft, 0, 0, JoinHash)
				j.LeftOuter = leftOuter
				got, err := CollectStrings(NewExchange(j, workers, preserve))
				if err != nil {
					t.Fatal(err)
				}
				sortRows(got)
				rowsEqual(t, want, got, fmt.Sprintf(
					"leftOuter=%v workers=%d preserve=%v", leftOuter, workers, preserve))
			}
		}
	}
}

// TestParallelJoinPreserveOrderKeepsSequence checks order-preserving
// routing returns rows in exact outer order.
func TestParallelJoinPreserveOrderKeepsSequence(t *testing.T) {
	n := 50_000
	fk := make([]int64, n)
	for i := range fk {
		fk[i] = int64(i % 997)
	}
	fact := makeTable("fact", makeIntColumn("fk", types.Integer, fk))
	dim := makeTable("dim",
		makeIntColumn("pk", types.Integer, seqInts(997)),
		makeIntColumn("val", types.Integer, seqInts(997)))
	outer, _ := NewScan(fact)
	dimScan, _ := NewScan(dim)
	ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
	j := NewHashJoin(outer, ft, 0, 0, JoinHash)
	rows, err := Collect(NewExchange(j, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("joined %d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if int64(r[0]) != fk[i] {
			t.Fatalf("row %d out of order: fk=%d want %d", i, int64(r[0]), fk[i])
		}
	}
}

// TestParallelStringJoin runs the content-hash string join through the
// parallel probe.
func TestParallelStringJoin(t *testing.T) {
	n := 8000
	names := []string{"ash", "birch", "cedar", "fir", "oak", "pine", "spruce"}
	fk := make([]string, n)
	for i := range fk {
		fk[i] = names[i%len(names)]
	}
	fact := makeTable("fact", makeStringColumn("name", fk))
	dim := makeTable("dim",
		makeStringColumn("name", names),
		makeIntColumn("height", types.Integer, seqInts(len(names))))
	outer, _ := NewScan(fact)
	dimScan, _ := NewScan(dim)
	ft := NewFlowTable(dimScan, DefaultFlowTableConfig())
	base := NewHashJoin(outer, ft, 0, 0, JoinAuto)
	want, err := CollectStrings(base)
	if err != nil {
		t.Fatal(err)
	}
	sortRows(want)

	outer2, _ := NewScan(fact)
	dimScan2, _ := NewScan(dim)
	ft2 := NewFlowTable(dimScan2, DefaultFlowTableConfig())
	j := NewHashJoin(outer2, ft2, 0, 0, JoinAuto)
	got, err := CollectStrings(NewExchange(j, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	sortRows(got)
	rowsEqual(t, want, got, "string join workers=4")
}
