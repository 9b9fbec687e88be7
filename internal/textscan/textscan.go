package textscan

import (
	"bytes"
	"fmt"
	"os"

	"tde/internal/exec"
	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// Options configure a TextScan.
type Options struct {
	// FieldSep overrides separator detection (0 = detect).
	FieldSep byte
	// Header forces header handling: -1 detect (default 0 means detect
	// too for convenience via HeaderSet), use HeaderSet+HasHeader.
	HasHeader bool
	HeaderSet bool
	// Schema overrides name/type inference entirely.
	Schema []ColumnSpec
	// SampleRows bounds the inference sample (default 100).
	SampleRows int
	// Parallel runs tokenizing and parsing as a background block pipeline
	// (Sect. 5.1.2): a producer batches raw lines, workers parse whole
	// blocks concurrently, and Next reassembles them in input order.
	Parallel bool
	// LocaleLocked routes scalar parsing through the simulated
	// locale-singleton lock — the Sect. 5.1.2 ablation. Combined with
	// Parallel this reproduces the order-of-magnitude degradation.
	LocaleLocked bool
	// ScalarsOnly parses only scalar columns; string columns are split
	// but passed through as raw text for later parsing (the deferred
	// parsing arm of Fig. 4). With our string model the text is the
	// value, so this only affects the Fig. 4 stage accounting.
	ScalarsOnly bool
	// Collation applies to string columns.
	Collation types.Collation
}

// TextScan is the flat-file parsing flow operator.
type TextScan struct {
	data   []byte
	opt    Options
	sep    byte
	schema []exec.ColInfo
	specs  []ColumnSpec
	header bool

	at    int // byte offset of the next record
	lines [][]byte
	slab  splitter
	qc    *exec.QueryCtx
	pipe  *pipeline // parallel parse pipeline (opt.Parallel), nil = serial
}

// Open prepares iteration; inference already ran in New.
func (ts *TextScan) Open(qc *exec.QueryCtx) error {
	qc.Trace("TextScan")
	if ts.pipe != nil {
		ts.pipe.stop() // re-Open: tear down any previous pipeline first
		ts.pipe = nil
	}
	ts.qc = qc
	ts.at = 0
	if ts.header {
		ts.lineEnd() // skip it
	}
	if ts.opt.Parallel {
		// The producer goroutine owns the cursor from here until Close.
		ts.startPipeline(qc)
	}
	return nil
}

// NewFile reads the whole file into memory (os.ReadFile, no mapping) and
// constructs a TextScan over it.
func NewFile(path string, opt Options) (*TextScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return New(data, opt)
}

// New constructs a TextScan over an in-memory byte stream, performing
// separator detection, type inference and header detection up front
// (Sect. 5.1.1). The data is assumed UTF-8.
func New(data []byte, opt Options) (*TextScan, error) {
	if opt.SampleRows == 0 {
		opt.SampleRows = 100
	}
	ts := &TextScan{data: data, opt: opt}
	ts.sep = opt.FieldSep
	if ts.sep == 0 {
		ts.sep = DetectSeparator(data, opt.SampleRows)
	}
	sample := sampleRows(data, opt.SampleRows)
	if len(sample) == 0 {
		return nil, fmt.Errorf("textscan: empty input")
	}
	var rows [][][]byte
	for _, ln := range sample {
		rows = append(rows, splitFields(ln, ts.sep, nil))
	}
	numCols := 0
	for _, r := range rows {
		if len(r) > numCols {
			numCols = len(r)
		}
	}
	if opt.Schema != nil {
		ts.specs = opt.Schema
		if opt.HeaderSet {
			ts.header = opt.HasHeader
		} else {
			ts.header = DetectHeader(rows[0], specTypes(opt.Schema))
		}
	} else {
		inferFrom := rows
		if len(rows) > 1 {
			inferFrom = rows[1:] // first row might be a header
		}
		inferred := InferTypes(inferFrom, numCols)
		if opt.HeaderSet {
			ts.header = opt.HasHeader
		} else {
			ts.header = DetectHeader(rows[0], inferred)
		}
		ts.specs = make([]ColumnSpec, numCols)
		for c := 0; c < numCols; c++ {
			name := defaultName(c)
			if ts.header && c < len(rows[0]) {
				name = string(rows[0][c])
			}
			ts.specs[c] = ColumnSpec{Name: name, Type: inferred[c]}
		}
		if !ts.header {
			// No header: the first row is data, so include it in a final
			// inference pass to be safe.
			ts.specs = reconcile(ts.specs, InferTypes(rows, numCols))
		}
	}
	for _, sp := range ts.specs {
		info := exec.ColInfo{Name: sp.Name, Type: sp.Type, Collation: opt.Collation}
		ts.schema = append(ts.schema, info)
	}
	return ts, nil
}

func specTypes(specs []ColumnSpec) []types.Type {
	out := make([]types.Type, len(specs))
	for i, s := range specs {
		out[i] = s.Type
	}
	return out
}

// reconcile demotes a column to string if the full-sample inference
// disagrees with the header-skipped one.
func reconcile(specs []ColumnSpec, full []types.Type) []ColumnSpec {
	for i := range specs {
		if i < len(full) && full[i] != specs[i].Type {
			specs[i].Type = types.String
		}
	}
	return specs
}

// Specs returns the inferred (or supplied) column specs.
func (ts *TextScan) Specs() []ColumnSpec { return ts.specs }

// Separator returns the field separator in use.
func (ts *TextScan) Separator() byte { return ts.sep }

// HasHeader reports whether a header row was detected or declared.
func (ts *TextScan) HasHeader() bool { return ts.header }

// Schema implements exec.Operator.
func (ts *TextScan) Schema() []exec.ColInfo { return ts.schema }

// lineEnd moves the cursor past the current line and returns where the
// line's bytes end.
func (ts *TextScan) lineEnd() int {
	i := bytes.IndexByte(ts.data[ts.at:], '\n')
	if i < 0 {
		ts.at = len(ts.data)
		return ts.at
	}
	end := ts.at + i
	ts.at = end + 1
	return end
}

// nextLine returns the next record without the line terminator, skipping
// blank lines.
func (ts *TextScan) nextLine() ([]byte, bool) {
	for ts.at < len(ts.data) {
		start := ts.at
		end := ts.lineEnd()
		if end > start && ts.data[end-1] == '\r' {
			end--
		}
		if end > start {
			return ts.data[start:end], true
		}
	}
	return nil, false
}

// readBatch appends up to BlockSize records to lines.
func (ts *TextScan) readBatch(lines [][]byte) [][]byte {
	for len(lines) < vec.BlockSize {
		line, ok := ts.nextLine()
		if !ok {
			break
		}
		lines = append(lines, line)
	}
	return lines
}

// splitter splits a batch of records into one reused slab of fields, so
// tokenizing a block allocates nothing once the slab has grown.
type splitter struct {
	fields [][]byte   // every field of the batch, row after row
	ends   []int      // ends[r]: row r's fields end at fields[ends[r]]
	rows   [][][]byte // row r's fields, slices of the slab
}

// split tokenizes lines; the rows it returns live until the next split.
func (s *splitter) split(lines [][]byte, sep byte) [][][]byte {
	s.fields, s.ends, s.rows = s.fields[:0], s.ends[:0], s.rows[:0]
	for _, line := range lines {
		s.fields = splitFields(line, sep, s.fields)
		s.ends = append(s.ends, len(s.fields))
	}
	start := 0
	for _, end := range s.ends {
		s.rows = append(s.rows, s.fields[start:end:end])
		start = end
	}
	return s.rows
}

// Next implements exec.Operator: tokenize a block of rows, then parse
// the columns. With opt.Parallel the tokenizing and parsing run in the
// background pipeline (Sect. 5.1.2) and Next reassembles its output in
// input order; serially both happen inline.
func (ts *TextScan) Next(b *vec.Block) (bool, error) {
	if err := ts.qc.Err(); err != nil {
		return false, err
	}
	if ts.pipe != nil {
		return ts.pipe.next(b)
	}
	ts.lines = ts.readBatch(ts.lines[:0])
	if len(ts.lines) == 0 {
		return false, nil
	}
	ts.parseBlock(ts.slab.split(ts.lines, ts.sep), b)
	return true, nil
}

// parseBlock parses every column of the tokenized rows into b.
func (ts *TextScan) parseBlock(rows [][][]byte, b *vec.Block) {
	ensure(b, len(ts.specs), len(rows))
	for c := range ts.specs {
		ts.parseColumn(c, rows, b)
	}
	b.N = len(rows)
}

func ensure(b *vec.Block, cols, n int) {
	for len(b.Vecs) < cols {
		b.Vecs = append(b.Vecs, vec.Vector{Data: make([]uint64, vec.BlockSize)})
	}
	b.Vecs = b.Vecs[:cols]
	for i := range b.Vecs {
		if cap(b.Vecs[i].Data) < n {
			b.Vecs[i].Data = make([]uint64, vec.BlockSize)
		}
		b.Vecs[i].Data = b.Vecs[i].Data[:vec.BlockSize]
	}
}

// parseColumn parses column c of the tokenized rows into the block.
func (ts *TextScan) parseColumn(c int, rows [][][]byte, b *vec.Block) {
	sp := ts.specs[c]
	v := &b.Vecs[c]
	v.Type = sp.Type
	v.Dict = nil
	v.Heap = nil
	locked := ts.opt.LocaleLocked
	switch sp.Type {
	case types.Integer:
		for i, r := range rows {
			v.Data[i] = parseScalar(fieldAt(r, c), types.Integer, locked)
		}
	case types.Real:
		for i, r := range rows {
			v.Data[i] = parseScalar(fieldAt(r, c), types.Real, locked)
		}
	case types.Date:
		for i, r := range rows {
			v.Data[i] = parseScalar(fieldAt(r, c), types.Date, locked)
		}
	case types.Timestamp:
		for i, r := range rows {
			v.Data[i] = parseScalar(fieldAt(r, c), types.Timestamp, locked)
		}
	case types.Boolean:
		for i, r := range rows {
			f := fieldAt(r, c)
			if len(f) == 0 {
				v.Data[i] = types.NullBoolean
				continue
			}
			if bv, ok := parseBool(f); ok {
				v.Data[i] = types.FromBool(bv)
			} else {
				v.Data[i] = types.NullBoolean
			}
		}
	default: // String: crack into a per-block heap; FlowTable dedups.
		if ts.opt.ScalarsOnly {
			// Deferred parsing: the field boundaries were found (split)
			// but the strings are not heaped — the Fig. 4 "Scalars" arm.
			for i := range rows {
				v.Data[i] = types.NullToken
			}
			v.Heap = heap.New(ts.opt.Collation)
			return
		}
		h := heap.New(ts.opt.Collation)
		v.Heap = h
		elems, size := 0, 0
		for _, r := range rows {
			if f := fieldAt(r, c); len(f) > 0 {
				elems, size = elems+1, size+len(f)
			}
		}
		h.Grow(elems, size)
		for i, r := range rows {
			f := fieldAt(r, c)
			if len(f) == 0 {
				v.Data[i] = types.NullToken
				continue
			}
			v.Data[i] = h.AppendBytes(f)
		}
	}
}

func fieldAt(r [][]byte, c int) []byte {
	if c >= len(r) {
		return nil
	}
	return r[c]
}

// parseScalar parses one scalar field; parse errors and empty fields
// become NULL sentinels.
func parseScalar(f []byte, t types.Type, locked bool) uint64 {
	if len(f) == 0 {
		return types.NullBits(t)
	}
	switch t {
	case types.Integer:
		var v int64
		var ok bool
		if locked {
			v, ok = lockedParseInt(f)
		} else {
			v, ok = parseInt(f)
		}
		if !ok {
			return types.NullBits(t)
		}
		return uint64(v)
	case types.Real:
		var v float64
		var ok bool
		if locked {
			v, ok = lockedParseReal(f)
		} else {
			v, ok = parseReal(f)
		}
		if !ok {
			return types.NullBits(t)
		}
		return types.FromReal(v)
	case types.Date:
		var v int64
		var ok bool
		if locked {
			v, ok = lockedParseDate(f)
		} else {
			v, ok = parseDate(f)
		}
		if !ok {
			return types.NullBits(t)
		}
		return uint64(v)
	case types.Timestamp:
		v, ok := parseTimestamp(f)
		if !ok {
			return types.NullBits(t)
		}
		return uint64(v)
	}
	return types.NullBits(t)
}

// Close implements exec.Operator.
func (ts *TextScan) Close() error {
	if ts.pipe != nil {
		ts.pipe.stop()
		ts.pipe = nil
	}
	ts.lines, ts.slab = nil, splitter{}
	return nil
}

// --- Figure 4 stage helpers ---

// SumBytes is the "disk bandwidth" stage: touch every byte.
func SumBytes(data []byte) uint64 {
	var s uint64
	for _, b := range data {
		s += uint64(b)
	}
	return s
}

// CountFields is the "tokenizing" stage: find every field boundary.
func CountFields(data []byte, sep byte) int {
	n := 0
	for _, b := range data {
		if b == sep || b == '\n' {
			n++
		}
	}
	return n
}

// SplitColumns is the "splitting" stage: crack the file into per-column
// text buffers (the deferred-parsing baseline of Sect. 5.1.1), without
// parsing anything.
func SplitColumns(data []byte, sep byte, numCols int) [][]byte {
	out := make([][]byte, numCols)
	for i := range out {
		out[i] = make([]byte, 0, len(data)/numCols+16)
	}
	col := 0
	start := 0
	flush := func(end int) {
		if col < numCols {
			out[col] = append(out[col], data[start:end]...)
			out[col] = append(out[col], '\n')
		}
	}
	for i := 0; i < len(data); i++ {
		switch data[i] {
		case sep:
			flush(i)
			col++
			start = i + 1
		case '\n':
			end := i
			if end > start && data[end-1] == '\r' {
				end--
			}
			if end > start || col > 0 {
				flush(end)
			}
			col = 0
			start = i + 1
		}
	}
	if start < len(data) {
		flush(len(data))
	}
	return out
}
