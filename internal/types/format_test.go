package types

import (
	"fmt"
	"math"
	"strconv"
	"testing"
)

// formatRef is Format as it was written before AppendFormat, on fmt and
// strconv: the reference AppendFormat must reproduce byte for byte.
func formatRef(t Type, bits uint64) string {
	if IsNull(t, bits) {
		return "NULL"
	}
	switch t {
	case Boolean:
		if bits != 0 {
			return "true"
		}
		return "false"
	case Integer:
		return strconv.FormatInt(int64(bits), 10)
	case Real:
		return strconv.FormatFloat(math.Float64frombits(bits), 'g', -1, 64)
	case Date:
		y, m, d := CivilFromDays(int64(bits))
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	case Timestamp:
		us := int64(bits)
		days := floorDiv(us, MicrosPerDay)
		rem := us - days*MicrosPerDay
		y, m, d := CivilFromDays(days)
		sec := rem / 1e6
		return fmt.Sprintf("%04d-%02d-%02d %02d:%02d:%02d", y, m, d,
			sec/3600, (sec/60)%60, sec%60)
	default:
		return strconv.FormatUint(bits, 10)
	}
}

// FuzzAppendFormat checks AppendFormat (and Format, which wraps it)
// against formatRef for every type, appending after existing bytes.
func FuzzAppendFormat(f *testing.F) {
	for ty := Boolean; ty < NumTypes; ty++ {
		f.Add(uint8(ty), NullBits(ty))
		f.Add(uint8(ty), uint64(0))
		f.Add(uint8(ty), uint64(math.MaxUint64))
		f.Add(uint8(ty), uint64(1)<<63+1)
	}
	for _, y := range []int{-1, -999, -10000, 0, 1, 999, 9999, 10000, 99999} {
		f.Add(uint8(Date), uint64(DaysFromCivil(y, 2, 29)))
		f.Add(uint8(Timestamp), uint64(TimestampFromCivil(y, 12, 31, 23, 59, 59, 999_999)))
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, -2.5e-310} {
		f.Add(uint8(Real), math.Float64bits(x))
	}
	f.Add(uint8(Real), uint64(0x7ff0000000000001)) // a NaN other than the NULL one
	f.Fuzz(func(t *testing.T, ty uint8, bits uint64) {
		typ := Type(ty % uint8(NumTypes))
		want := formatRef(typ, bits)
		if got := string(AppendFormat([]byte("x,"), typ, bits)); got != "x,"+want {
			t.Fatalf("AppendFormat(%v, %#x) = %q, want %q", typ, bits, got, "x,"+want)
		}
		if got := Format(typ, bits); got != want {
			t.Fatalf("Format(%v, %#x) = %q, want %q", typ, bits, got, want)
		}
	})
}
