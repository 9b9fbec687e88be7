package enc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A ZoneMap carries per-decompression-block statistics for one column
// stream: row count, NULL count and the min/max of the non-NULL values of
// every block. The scan consults it to skip whole blocks a sargable
// predicate provably cannot match, without decoding them (DESIGN.md §15).
//
// Values live in the column's raw semantic domain: sign-extended int64
// for signed scalars (integers, dates, timestamps), the raw widened token
// for dictionary/heap token columns. A consumer must compare in that same
// domain (the planner maps predicate constants into it).
//
// Entry ranges are conservative envelopes: every non-NULL value of the
// block lies inside [Min, Max], but the bounds need not be attained
// (header-derived maps for sorted delta streams borrow the next block's
// first value as Max). HasRange=false means the block's range is unknown
// — consumers must treat such blocks as unskippable by range predicates.
// A block that is entirely NULL has HasRange=false with Nulls == Rows.
type ZoneMap struct {
	// BlockSize is the decompression block size the entries are aligned
	// to; entry i covers logical rows [i*BlockSize, (i+1)*BlockSize).
	BlockSize int
	// NullsKnown reports whether the per-entry Nulls counts are exact;
	// when false the counts are zero and meaningless, and NULL-sensitive
	// skipping (IS NULL, all-NULL blocks) must not use this map.
	NullsKnown bool
	Entries    []ZoneEntry
}

// ZoneEntry is one block's statistics.
type ZoneEntry struct {
	// Rows is the block's logical row count (BlockSize except possibly
	// the final block).
	Rows int
	// Nulls counts NULL-sentinel rows, exact only when the map's
	// NullsKnown is set.
	Nulls int
	// HasRange reports Min/Max valid; false for all-NULL blocks and
	// blocks whose range could not be derived.
	HasRange bool
	Min, Max int64
}

// AllNull reports whether the entry provably contains only NULL rows.
func (z *ZoneMap) AllNull(e *ZoneEntry) bool {
	return z.NullsKnown && e.Rows > 0 && e.Nulls == e.Rows
}

// zone-map serialization: fixed header then fixed-size entries, so a
// truncated or padded payload is detectable from the length alone.
const (
	zoneFlagNullsKnown = 1 << 0
	zoneEntryHasRange  = 1 << 0

	zoneHeaderSize = 4 + 1 + 4         // block size u32 | flags u8 | entry count u32
	zoneEntrySize  = 4 + 4 + 1 + 8 + 8 // rows u32 | nulls u32 | flags u8 | min i64 | max i64
)

// MarshalBinary serializes the map.
func (z *ZoneMap) MarshalBinary() []byte {
	out := make([]byte, zoneHeaderSize+len(z.Entries)*zoneEntrySize)
	binary.LittleEndian.PutUint32(out[0:], uint32(z.BlockSize))
	if z.NullsKnown {
		out[4] = zoneFlagNullsKnown
	}
	binary.LittleEndian.PutUint32(out[5:], uint32(len(z.Entries)))
	at := zoneHeaderSize
	for i := range z.Entries {
		e := &z.Entries[i]
		binary.LittleEndian.PutUint32(out[at:], uint32(e.Rows))
		binary.LittleEndian.PutUint32(out[at+4:], uint32(e.Nulls))
		if e.HasRange {
			out[at+8] = zoneEntryHasRange
		}
		binary.LittleEndian.PutUint64(out[at+9:], uint64(e.Min))
		binary.LittleEndian.PutUint64(out[at+17:], uint64(e.Max))
		at += zoneEntrySize
	}
	return out
}

// ZoneMapFromBytes parses a serialized zone map, structurally validating
// it: exact payload length, no unknown flag bits, per-entry counts and
// bounds coherent. Cross-validation against the column stream it claims
// to describe is Validate's job.
func ZoneMapFromBytes(buf []byte) (*ZoneMap, error) {
	if len(buf) < zoneHeaderSize {
		return nil, fmt.Errorf("enc: zone map header truncated (%d bytes)", len(buf))
	}
	z := &ZoneMap{BlockSize: int(binary.LittleEndian.Uint32(buf))}
	flags := buf[4]
	if flags&^byte(zoneFlagNullsKnown) != 0 {
		return nil, fmt.Errorf("enc: zone map has unknown flag bits %#x", flags)
	}
	z.NullsKnown = flags&zoneFlagNullsKnown != 0
	n := int(binary.LittleEndian.Uint32(buf[5:]))
	if n < 0 || len(buf) != zoneHeaderSize+n*zoneEntrySize {
		return nil, fmt.Errorf("enc: zone map claims %d entries in %d bytes", n, len(buf))
	}
	if z.BlockSize <= 0 {
		return nil, fmt.Errorf("enc: zone map block size %d invalid", z.BlockSize)
	}
	z.Entries = make([]ZoneEntry, n)
	at := zoneHeaderSize
	for i := range z.Entries {
		e := &z.Entries[i]
		e.Rows = int(int32(binary.LittleEndian.Uint32(buf[at:])))
		e.Nulls = int(int32(binary.LittleEndian.Uint32(buf[at+4:])))
		eflags := buf[at+8]
		if eflags&^byte(zoneEntryHasRange) != 0 {
			return nil, fmt.Errorf("enc: zone entry %d has unknown flag bits %#x", i, eflags)
		}
		e.HasRange = eflags&zoneEntryHasRange != 0
		e.Min = int64(binary.LittleEndian.Uint64(buf[at+9:]))
		e.Max = int64(binary.LittleEndian.Uint64(buf[at+17:]))
		if e.Rows <= 0 || e.Nulls < 0 || e.Nulls > e.Rows {
			return nil, fmt.Errorf("enc: zone entry %d has %d rows, %d nulls", i, e.Rows, e.Nulls)
		}
		if e.HasRange && e.Min > e.Max {
			return nil, fmt.Errorf("enc: zone entry %d min %d > max %d", i, e.Min, e.Max)
		}
		if !e.HasRange && (e.Min != 0 || e.Max != 0) {
			return nil, fmt.Errorf("enc: zone entry %d carries a range without HasRange", i)
		}
		at += zoneEntrySize
	}
	return z, nil
}

// Validate cross-checks the map against the stream it claims to
// describe: block alignment, entry count, and per-entry row counts that
// tile the stream exactly. A map read from disk is untrusted input; a
// consumer must not skip blocks on a map that fails this.
func (z *ZoneMap) Validate(s *Stream) error {
	if s == nil || s.Len() == 0 {
		return fmt.Errorf("enc: zone map over an empty stream")
	}
	if z.BlockSize != s.BlockSize() {
		return fmt.Errorf("enc: zone map block size %d, stream has %d", z.BlockSize, s.BlockSize())
	}
	n, bs := s.Len(), z.BlockSize
	want := (n + bs - 1) / bs
	if len(z.Entries) != want {
		return fmt.Errorf("enc: zone map has %d entries, stream needs %d", len(z.Entries), want)
	}
	total := 0
	for i := range z.Entries {
		rows := bs
		if i == want-1 {
			rows = n - (want-1)*bs
		}
		if z.Entries[i].Rows != rows {
			return fmt.Errorf("enc: zone entry %d claims %d rows, block holds %d", i, z.Entries[i].Rows, rows)
		}
		total += z.Entries[i].Rows
	}
	if total != n {
		return fmt.Errorf("enc: zone rows sum to %d, stream has %d", total, n)
	}
	return nil
}

// zoneTracker accumulates per-block entries as the dynamic encoder
// flushes blocks; the values seen here are the logical pre-narrowing
// values, so the entries stay valid across re-encodings and width
// narrowing (both value-preserving).
type zoneTracker struct {
	width       int
	signed      bool
	sentinel    uint64
	hasSentinel bool
	entries     []ZoneEntry
}

// add appends the entry of a block the writer's statistics just folded.
// The fold's data range is the entry's range whenever its int64 reading
// is the zone domain's: full-width values, or unsigned ones (which fit
// their width, so read as int64 they are what masking gives). A narrow
// signed column is the one case that orders differently once sign-
// extended, and it walks its block for the range.
func (zt *zoneTracker) add(blk blockSummary, vals []uint64) {
	e := ZoneEntry{Rows: len(vals), Nulls: blk.nulls, HasRange: blk.hasData}
	if !blk.hasData {
		zt.entries = append(zt.entries, e)
		return
	}
	if !zt.signed || zt.width >= 8 {
		e.Min, e.Max = blk.minS, blk.maxS
		zt.entries = append(zt.entries, e)
		return
	}
	e.Min, e.Max = math.MaxInt64, math.MinInt64
	for _, v := range vals {
		if zt.hasSentinel && v == zt.sentinel {
			continue
		}
		x := SignExtend(v, zt.width)
		e.Min, e.Max = min(e.Min, x), max(e.Max, x)
	}
	zt.entries = append(zt.entries, e)
}

// zones packages the accumulated entries (nil when no blocks flushed).
func (zt *zoneTracker) zones(blockSize int) *ZoneMap {
	if len(zt.entries) == 0 {
		return nil
	}
	return &ZoneMap{BlockSize: blockSize, NullsKnown: zt.hasSentinel, Entries: zt.entries}
}

// DeriveZoneMap computes a zone map for a stored stream by header
// inspection, the MetadataFromStream analogue at block granularity. It
// serves v2 extracts (written before zone maps were persisted) and
// streams rewritten after build (dictionary conversion). Kinds with no
// cheap per-block information return nil:
//
//   - Affine and constant (FOR bits=0) streams: exact entries in O(blocks);
//   - sorted delta streams (MinDelta >= 0): exact Min per block from the
//     O(1) block-start value, envelope Max from the next block's start;
//   - run-length streams: exact entries from one O(runs) walk;
//   - everything else: nil.
//
// sentinel (when hasSentinel) is the full-width NULL pattern; it is
// masked to the stream width for raw comparison, matching how the values
// are stored.
func DeriveZoneMap(s *Stream, signed bool, sentinel uint64, hasSentinel bool) *ZoneMap {
	n := s.Len()
	if n == 0 {
		return nil
	}
	bs := s.BlockSize()
	nb := (n + bs - 1) / bs
	w := s.Width()
	sraw := sentinel & widthMask(w)
	ext := func(v uint64) int64 {
		if signed {
			return SignExtend(v, w)
		}
		return int64(v & widthMask(w))
	}
	rowsOf := func(b int) int {
		if b == nb-1 {
			return n - (nb-1)*bs
		}
		return bs
	}
	switch s.Kind() {
	case Affine:
		return deriveAffine(s.AffineBase(), s.AffineDelta(), n, bs, nb, ext(sraw), hasSentinel, rowsOf)
	case FrameOfReference:
		if s.Bits() == 0 {
			return deriveAffine(s.Frame(), 0, n, bs, nb, ext(sraw), hasSentinel, rowsOf)
		}
	case Delta:
		if s.MinDelta() < 0 {
			return nil
		}
		// Sorted: each block's minimum is its first value, an O(1) read
		// for delta streams; the maximum is bounded by the next block's
		// first value. The final block pays one O(rows) read for its last
		// value.
		z := &ZoneMap{BlockSize: bs, Entries: make([]ZoneEntry, nb)}
		first, last := ext(s.Get(0)), ext(s.Get(n-1))
		if first > last {
			// The stream is sorted in its raw domain but the int64 image
			// wraps across it; block bounds would not be envelopes.
			return nil
		}
		if hasSentinel {
			sv := ext(sraw)
			// The sentinel sorts like any value; outside [first, last] it
			// cannot occur, so the column provably has no NULLs.
			z.NullsKnown = sv < first || sv > last
		} else {
			z.NullsKnown = true
		}
		for b := 0; b < nb; b++ {
			e := &z.Entries[b]
			e.Rows = rowsOf(b)
			e.HasRange = true
			e.Min = ext(s.Get(b * bs))
			if b == nb-1 {
				e.Max = last
			} else {
				e.Max = ext(s.Get((b + 1) * bs))
			}
		}
		return z
	case RunLength:
		z := &ZoneMap{BlockSize: bs, NullsKnown: hasSentinel, Entries: make([]ZoneEntry, nb)}
		pos := 0
		for r, nr := 0, s.NumRuns(); r < nr; r++ {
			c64, raw := s.Run(r)
			if c64 > uint64(n) {
				return nil // malformed run totals; leave no map
			}
			count := int(c64)
			isNull := hasSentinel && raw == sraw
			x := ext(raw)
			for count > 0 {
				b := pos / bs
				if b >= nb {
					return nil // malformed run totals; leave no map
				}
				span := bs - pos%bs
				if span > count {
					span = count
				}
				e := &z.Entries[b]
				if isNull {
					e.Nulls += span
				} else if !e.HasRange {
					e.HasRange = true
					e.Min, e.Max = x, x
				} else {
					if x < e.Min {
						e.Min = x
					}
					if x > e.Max {
						e.Max = x
					}
				}
				pos += span
				count -= span
			}
		}
		if pos != n {
			return nil
		}
		for b := 0; b < nb; b++ {
			z.Entries[b].Rows = rowsOf(b)
		}
		return z
	}
	return nil
}

// deriveAffine builds exact entries for value(i) = base + delta*i. It
// bails out (nil) when the progression would overflow int64, since the
// stored stream wraps and the arithmetic here would not match it.
func deriveAffine(base, delta int64, n, bs, nb int, sv int64, hasSentinel bool, rowsOf func(int) int) *ZoneMap {
	if delta != 0 {
		ad := delta
		if ad < 0 {
			ad = -ad
		}
		if ad < 0 || int64(n-1) > math.MaxInt64/ad {
			return nil
		}
		span := delta * int64(n-1)
		end := base + span
		if (span > 0 && end < base) || (span < 0 && end > base) {
			return nil
		}
	}
	z := &ZoneMap{BlockSize: bs, NullsKnown: hasSentinel, Entries: make([]ZoneEntry, nb)}
	for b := 0; b < nb; b++ {
		e := &z.Entries[b]
		e.Rows = rowsOf(b)
		lo := base + delta*int64(b*bs)
		hi := base + delta*int64(b*bs+e.Rows-1)
		if hi < lo {
			lo, hi = hi, lo
		}
		if delta == 0 {
			if hasSentinel && base == sv {
				e.Nulls = e.Rows // all-NULL constant block: no range
				continue
			}
			e.HasRange, e.Min, e.Max = true, base, base
			continue
		}
		if hasSentinel && sv >= lo && sv <= hi {
			off := sv - base
			if off%delta == 0 {
				i := off / delta
				if i >= int64(b*bs) && i < int64(b*bs+e.Rows) {
					e.Nulls = 1
				}
			}
		}
		e.HasRange, e.Min, e.Max = true, lo, hi
	}
	return z
}
