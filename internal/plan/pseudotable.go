// Package plan implements the TDE query planning layer: the pseudo-table
// operators that expose compression to the strategic optimizer
// (DictionaryTable for dictionary-compressed columns, Sect. 4.1;
// IndexTable for run-length encoded columns, Sect. 4.2), the rule-based
// strategic rewrites (predicate push-down into the pseudo-tables,
// expression simplification, order-preserving exchange placement), and
// plan construction for queries, leaving tactical algorithm choices to
// the operators' runtime metadata.
package plan

import (
	"fmt"

	"tde/internal/enc"
	"tde/internal/exec"
	"tde/internal/storage"
	"tde/internal/types"
)

// DictionaryTable builds the pseudo-table of Sect. 4.1.1 for a compressed
// column. For a string column the table has one column carrying the set of
// unique tokens in heap order, sharing the original heap — predicates on
// the string values and the join key are the same column. For a
// dictionary-compressed fixed-width column the table has the token column
// and a value column copied from the scalar dictionary.
//
// Expanding the column is then a foreign-key join of the main table's
// token data against the token column — the invisible join — and the
// strategic optimizer can push filters and computations down to the inner
// side.
func DictionaryTable(col *storage.Column) (*exec.Built, error) {
	switch {
	case col.Type == types.String:
		if col.Heap == nil {
			return nil, fmt.Errorf("plan: string column %q has no heap", col.Name)
		}
		toks := col.Heap.Tokens()
		w := enc.NewWriter(enc.WriterConfig{ConvertOptimal: true})
		w.Append(toks)
		md := enc.MetadataFromStats(w.Stats(), false)
		md.Unique = true // heap tokens are distinct by construction here
		if col.Heap.Sorted() {
			md.EntriesSorted = true
			md.SortedKnown, md.SortedAsc = true, true
		}
		return &exec.Built{
			Rows: len(toks),
			Cols: []exec.BuiltColumn{{
				Info: exec.ColInfo{Name: col.Name, Type: types.String,
					Heap: col.Heap, Meta: md},
				Data: w.Finish(),
			}},
		}, nil
	case col.Dict != nil:
		n := len(col.Dict)
		tw := enc.NewWriter(enc.WriterConfig{ConvertOptimal: true})
		vw := enc.NewWriter(enc.WriterConfig{Signed: col.Type != types.String, ConvertOptimal: true})
		for i := 0; i < n; i++ {
			tw.AppendOne(uint64(i))
			vw.AppendOne(col.Dict[i])
		}
		tmd := enc.MetadataFromStats(tw.Stats(), false)
		vmd := enc.MetadataFromStats(vw.Stats(), true)
		return &exec.Built{
			Rows: n,
			Cols: []exec.BuiltColumn{
				{Info: exec.ColInfo{Name: col.Name + "$token", Type: types.Integer, Meta: tmd}, Data: tw.Finish()},
				{Info: exec.ColInfo{Name: col.Name, Type: col.Type, Meta: vmd}, Data: vw.Finish()},
			},
		}, nil
	default:
		return nil, fmt.Errorf("plan: column %q is not dictionary compressed", col.Name)
	}
}

// IndexTable builds the pseudo-table of Sect. 4.2.1 from a run-length
// encoded column: the value and count columns come directly from the runs,
// and start is the running total of counts. Joining it back to the main
// table is a rank join (start <= rank < start+count) implemented by
// exec.IndexedScan.
func IndexTable(col *storage.Column) (*exec.Built, error) {
	if col.Data.Kind() != enc.RunLength {
		return nil, fmt.Errorf("plan: column %q is not run-length encoded (%v)",
			col.Name, col.Data.Kind())
	}
	nr := col.Data.NumRuns()
	vw := enc.NewWriter(enc.WriterConfig{Signed: col.Signed(), ConvertOptimal: true})
	cw := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true})
	sw := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true})
	var start uint64
	width := col.Data.Width()
	for r := 0; r < nr; r++ {
		count, value := col.Data.Run(r)
		vw.AppendOne(col.ResolveRaw(value & enc.WidthMask(width)))
		cw.AppendOne(count)
		sw.AppendOne(start)
		start += count
	}
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
