// Package types defines the Tableau Data Engine type system described in
// Sect. 2.3.4 of the paper: Boolean, integer, real, date, timestamp and
// locale-sensitive string types. The engine deliberately models types
// loosely — any physical representation may back a logical type — which is
// what lets the encoding layer narrow widths and swap representations
// without the client noticing.
//
// All values travel through the engine as raw 64-bit patterns (see
// internal/vec). This package defines how each logical type maps its values
// onto those bits, the per-type NULL sentinel values (the TDE has no null
// bitmaps; Sect. 3.4.2), ordering, and formatting.
package types

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies one of the six logical types Tableau models.
type Type uint8

const (
	// Boolean values are 0 (false) or 1 (true).
	Boolean Type = iota
	// Integer values are int64 stored as two's-complement bits.
	Integer
	// Real values are float64 stored as IEEE-754 bits.
	Real
	// Date values are days since the 1970-01-01 epoch, stored as int64 bits.
	Date
	// Timestamp values are microseconds since the 1970-01-01 epoch (int64).
	Timestamp
	// String values are heap tokens (offsets or dictionary indexes) whose
	// meaning depends on the column's heap; see internal/heap.
	String
)

// NumTypes is the number of logical types, for table sizing.
const NumTypes = 6

// String returns the lowercase type name used in schemas and tooling.
func (t Type) String() string {
	switch t {
	case Boolean:
		return "bool"
	case Integer:
		return "int"
	case Real:
		return "real"
	case Date:
		return "date"
	case Timestamp:
		return "timestamp"
	case String:
		return "str"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ParseType parses a schema type name as produced by Type.String.
func ParseType(s string) (Type, error) {
	switch s {
	case "bool", "boolean":
		return Boolean, nil
	case "int", "integer":
		return Integer, nil
	case "real", "double", "float":
		return Real, nil
	case "date":
		return Date, nil
	case "timestamp", "datetime":
		return Timestamp, nil
	case "str", "string", "text":
		return String, nil
	}
	return 0, fmt.Errorf("types: unknown type name %q", s)
}

// Fixed reports whether values of the type are self-contained scalars, as
// opposed to String values, which are tokens into a secondary heap.
func (t Type) Fixed() bool { return t != String }

// Sentinel NULL values, one per type (Sect. 3.4.2: "the TDE uses sentinel
// values for NULL"). Encodings never see a separate null representation;
// the sentinel flows through compression like any other value, which is why
// metadata extraction can detect nullability from encoding statistics.
const (
	// NullInteger doubles as the Date and Timestamp sentinel.
	NullInteger int64 = math.MinInt64
	// NullBoolean is outside the 0/1 domain.
	NullBoolean uint64 = 0xFF
	// NullToken marks a NULL string token.
	NullToken uint64 = math.MaxUint64
)

// NullRealBits is the quiet-NaN pattern reserved for NULL reals. Other NaNs
// remain representable; only this exact pattern means NULL.
var NullRealBits = math.Float64bits(math.NaN())

const nullIntegerBits = 1 << 63 // uint64 bit pattern of NullInteger

// NullBits returns the sentinel bit pattern for NULL values of type t.
func NullBits(t Type) uint64 {
	switch t {
	case Boolean:
		return NullBoolean
	case Integer, Date, Timestamp:
		return nullIntegerBits
	case Real:
		return NullRealBits
	case String:
		return NullToken
	default:
		panic("types: NullBits on invalid type")
	}
}

// IsNull reports whether bits holds the NULL sentinel for type t.
func IsNull(t Type, bits uint64) bool { return bits == NullBits(t) }

// FromInt encodes an int64 value as raw bits.
func FromInt(v int64) uint64 { return uint64(v) }

// ToInt decodes raw bits as an int64 value.
func ToInt(bits uint64) int64 { return int64(bits) }

// FromReal encodes a float64 value as raw bits.
func FromReal(v float64) uint64 { return math.Float64bits(v) }

// ToReal decodes raw bits as a float64 value.
func ToReal(bits uint64) float64 { return math.Float64frombits(bits) }

// FromBool encodes a bool as raw bits.
func FromBool(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// ToBool decodes raw bits as a bool.
func ToBool(bits uint64) bool { return bits != 0 }

// Compare orders two non-NULL values of type t, returning -1, 0 or +1.
// NULL ordering is the caller's concern (operators order NULL first).
// String tokens are compared numerically; that is only meaningful when the
// column's heap is sorted (Sect. 2.3.4) — otherwise callers must compare
// heap contents under the collation.
func Compare(t Type, a, b uint64) int {
	switch t {
	case Real:
		fa, fb := math.Float64frombits(a), math.Float64frombits(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	case Boolean, String:
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	default: // Integer, Date, Timestamp: signed comparison
		ia, ib := int64(a), int64(b)
		switch {
		case ia < ib:
			return -1
		case ia > ib:
			return 1
		default:
			return 0
		}
	}
}

// Format renders a non-token value for display and text export. String
// values cannot be formatted without their heap; use the column layer.
func Format(t Type, bits uint64) string {
	return string(AppendFormat(make([]byte, 0, 24), t, bits))
}

// AppendFormat appends Format's rendering of a non-token value to dst.
func AppendFormat(dst []byte, t Type, bits uint64) []byte {
	if IsNull(t, bits) {
		return append(dst, "NULL"...)
	}
	switch t {
	case Boolean:
		return strconv.AppendBool(dst, bits != 0)
	case Integer:
		return strconv.AppendInt(dst, int64(bits), 10)
	case Real:
		return strconv.AppendFloat(dst, math.Float64frombits(bits), 'g', -1, 64)
	case Date:
		return appendDate(dst, int64(bits))
	case Timestamp:
		us := int64(bits)
		days := floorDiv(us, MicrosPerDay)
		sec := (us - days*MicrosPerDay) / 1e6
		dst = append(appendDate(dst, days), ' ')
		dst = append(appendPadded(dst, sec/3600, 2), ':')
		dst = append(appendPadded(dst, (sec/60)%60, 2), ':')
		return appendPadded(dst, sec%60, 2)
	default:
		return strconv.AppendUint(dst, bits, 10)
	}
}

// appendDate appends the civil date of a day number as YYYY-MM-DD.
func appendDate(dst []byte, days int64) []byte {
	y, m, d := CivilFromDays(days)
	dst = append(appendPadded(dst, int64(y), 4), '-')
	dst = append(appendPadded(dst, int64(m), 2), '-')
	return appendPadded(dst, int64(d), 2)
}

// appendPadded appends v zero-padded to width characters, a minus sign
// included, as fmt's %0*d does.
func appendPadded(dst []byte, v int64, width int) []byte {
	if v < 0 {
		dst = append(dst, '-')
		width--
	}
	var digits [20]byte
	n := len(strconv.AppendUint(digits[:0], absInt(v), 10))
	for ; n < width; n++ {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, absInt(v), 10)
}

func absInt(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// MicrosPerDay is the number of Timestamp ticks in one day.
const MicrosPerDay int64 = 24 * 3600 * 1e6

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
