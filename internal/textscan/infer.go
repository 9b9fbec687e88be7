package textscan

import (
	"bytes"
	"fmt"

	"tde/internal/types"
)

// ColumnSpec names and types one flat-file column.
type ColumnSpec struct {
	Name string
	Type types.Type
}

// candidates are the field separators the statistical analysis considers.
var candidates = []byte{',', '\t', '|', ';'}

// DetectSeparator tokenizes a sample of rows with the record separator and
// uses "simple statistical analysis" (Sect. 5.1.1) to determine the field
// separator: the candidate with the highest consistent per-line count.
func DetectSeparator(data []byte, sampleLines int) byte {
	lines := sampleRows(data, sampleLines)
	best := byte(',')
	bestScore := -1.0
	for _, c := range candidates {
		counts := make([]int, 0, len(lines))
		for _, ln := range lines {
			counts = append(counts, bytes.Count(ln, []byte{c}))
		}
		if len(counts) == 0 {
			continue
		}
		sum, consistent := 0, true
		for i, n := range counts {
			sum += n
			if i > 0 && n != counts[0] {
				consistent = false
			}
		}
		mean := float64(sum) / float64(len(counts))
		score := mean
		if !consistent {
			score *= 0.25
		}
		if counts[0] == 0 {
			score = 0
		}
		if score > bestScore {
			bestScore = score
			best = c
		}
	}
	return best
}

func sampleRows(data []byte, n int) [][]byte {
	var lines [][]byte
	start := 0
	for i := 0; i < len(data) && len(lines) < n; i++ {
		if data[i] == '\n' {
			end := i
			if end > start && data[end-1] == '\r' {
				end--
			}
			if end > start {
				lines = append(lines, data[start:end])
			}
			start = i + 1
		}
	}
	if len(lines) < n && start < len(data) {
		lines = append(lines, data[start:])
	}
	return lines
}

// splitFields tokenizes one record, appending its fields to out. A
// trailing separator (TPC-H .tbl style) does not produce an empty final
// field. Minimal quote support: a field starting with '"' runs to the
// closing quote, with "" escapes. Fields are slices of line; only a field
// holding an escape is copied.
func splitFields(line []byte, sep byte, out [][]byte) [][]byte {
	i := 0
	for i <= len(line) {
		if i == len(line) {
			// A record ending exactly at a separator already emitted its
			// last field.
			if len(line) == 0 || line[len(line)-1] == sep {
				break
			}
		}
		if i < len(line) && line[i] == '"' {
			j := i + 1
			var field []byte // nil until an escape forces a copy
			for j < len(line) {
				if line[j] == '"' {
					if j+1 < len(line) && line[j+1] == '"' {
						field = append(field, line[i+1:j+1]...)
						i = j + 1
						j += 2
						continue
					}
					break
				}
				j++
			}
			if field == nil {
				field = line[i+1 : j]
			} else {
				field = append(field, line[i+1:j]...)
			}
			out = append(out, field)
			// Skip to past the next separator.
			j++
			for j < len(line) && line[j] != sep {
				j++
			}
			i = j + 1
			continue
		}
		j := i
		for j < len(line) && line[j] != sep {
			j++
		}
		out = append(out, line[i:j])
		i = j + 1
	}
	return out
}

// InferTypes runs each type's parser over a sample block of rows and picks
// the winner per column: the first (most specific) type whose parser made
// no errors (Sect. 5.1.1). Empty fields are NULLs and vote for nothing.
func InferTypes(rows [][][]byte, numCols int) []types.Type {
	out := make([]types.Type, numCols)
	for c := 0; c < numCols; c++ {
		var ints, reals, dates, tss, bools, nonEmpty int
		for _, r := range rows {
			if c >= len(r) || len(r[c]) == 0 {
				continue
			}
			f := r[c]
			nonEmpty++
			if _, ok := parseInt(f); ok {
				ints++
			}
			if _, ok := parseReal(f); ok {
				reals++
			}
			if _, ok := parseDate(f); ok {
				dates++
			}
			if _, ok := parseTimestamp(f); ok {
				tss++
			}
			if _, ok := parseBool(f); ok {
				bools++
			}
		}
		switch {
		case nonEmpty == 0:
			out[c] = types.String
		case bools == nonEmpty:
			out[c] = types.Boolean
		case dates == nonEmpty:
			out[c] = types.Date
		case tss == nonEmpty:
			out[c] = types.Timestamp
		case ints == nonEmpty:
			out[c] = types.Integer
		case reals == nonEmpty:
			out[c] = types.Real
		default:
			out[c] = types.String
		}
	}
	return out
}

// DetectHeader applies the winning parsers to the first row: if every
// value parses, the file has no header and all values are data; any error
// means the first row holds the column names (Sect. 5.1.1).
func DetectHeader(first [][]byte, inferred []types.Type) bool {
	for c, t := range inferred {
		if c >= len(first) {
			return false
		}
		f := first[c]
		if len(f) == 0 {
			continue
		}
		var ok bool
		switch t {
		case types.Integer:
			_, ok = parseInt(f)
		case types.Real:
			_, ok = parseReal(f)
		case types.Date:
			_, ok = parseDate(f)
		case types.Timestamp:
			_, ok = parseTimestamp(f)
		case types.Boolean:
			_, ok = parseBool(f)
		default:
			ok = true // anything is a valid string
		}
		if !ok {
			return true
		}
	}
	return false
}

// defaultName generates a column name when no header exists.
func defaultName(i int) string { return fmt.Sprintf("col%d", i) }
