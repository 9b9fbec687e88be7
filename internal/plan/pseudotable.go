// Package plan implements the TDE query planning layer: the pseudo-table
// that exposes run-length compression to the strategic optimizer
// (IndexTable, Sect. 4.2), the rule-based strategic rewrites (predicate
// push-down into the IndexTable, whose filtered runs become the row
// ranges a Scan reads; expression simplification; order-preserving
// exchange placement), and plan construction for queries, leaving
// tactical algorithm choices to the operators' runtime metadata. Dictionary compression (Sect. 4.1) needs no rewrite: the
// scan plan's Select evaluates a filter on a dictionary-compressed or
// string column once per dictionary entry into a token truth table.
package plan

import (
	"fmt"

	"tde/internal/enc"
	"tde/internal/exec"
	"tde/internal/storage"
	"tde/internal/types"
)

// IndexTable builds the pseudo-table of Sect. 4.2.1 from a run-length
// encoded column: the value and count columns come directly from the runs,
// and start is the running total of counts. Joining it back to the main
// table is a rank join (start <= rank < start+count): a filter and an
// optional sort on the value run over the pseudo-table, and a range scan
// (exec.Scan.ReadRanges) reads the main table's rows of the surviving
// runs' (start, count) ranges in that order.
func IndexTable(col *storage.Column) (*exec.Built, error) {
	if col.Data.Kind() != enc.RunLength {
		return nil, fmt.Errorf("plan: column %q is not run-length encoded (%v)",
			col.Name, col.Data.Kind())
	}
	// The table lives for one query and is read once, so its streams stay
	// raw: encoding them would cost more than the reads it saves.
	nr := col.Data.NumRuns()
	vw := enc.NewWriter(enc.WriterConfig{Signed: col.Signed(), DisableEncoding: true})
	cw := enc.NewWriter(enc.WriterConfig{Signed: true, DisableEncoding: true})
	sw := enc.NewWriter(enc.WriterConfig{Signed: true, DisableEncoding: true})
	// The columns are appended a block at a time, so each block's
	// statistics fold in one pass.
	vals := make([]uint64, 0, enc.DefaultBlockSize)
	counts := make([]uint64, 0, enc.DefaultBlockSize)
	starts := make([]uint64, 0, enc.DefaultBlockSize)
	flush := func() {
		vw.Append(vals)
		cw.Append(counts)
		sw.Append(starts)
		vals, counts, starts = vals[:0], counts[:0], starts[:0]
	}
	var start uint64
	mask := enc.WidthMask(col.Data.Width())
	for r := 0; r < nr; r++ {
		count, value := col.Data.Run(r)
		vals = append(vals, col.ResolveRaw(value&mask))
		counts = append(counts, count)
		starts = append(starts, start)
		start += count
		if len(vals) == cap(vals) {
			flush()
		}
	}
	flush()
	vmd := enc.MetadataFromStats(vw.Stats(), col.Signed())
	vmd.Unique = false // runs can repeat values
	return &exec.Built{
		Rows: nr,
		Cols: []exec.BuiltColumn{
			{Info: exec.ColInfo{Name: col.Name, Type: col.Type, Heap: col.Heap,
				Dict: col.Dict, Meta: vmd}, Data: vw.Finish()},
			{Info: exec.ColInfo{Name: "$count", Type: types.Integer,
				Meta: enc.MetadataFromStats(cw.Stats(), true)}, Data: cw.Finish()},
			{Info: exec.ColInfo{Name: "$start", Type: types.Integer,
				Meta: enc.MetadataFromStats(sw.Stats(), true)}, Data: sw.Finish()},
		},
	}, nil
}
