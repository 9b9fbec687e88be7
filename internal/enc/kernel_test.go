package enc

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The block kernels (word-at-a-time packing, the one-pass statistics
// fold, the zone entries it feeds, repacking within one encoding) are
// checked here against plain per-value references.

// refPackBits packs values one byte at a time (wide fields in byte
// chunks); it is the reference the word packer must match byte for byte.
func refPackBits(dst []byte, vals []uint64, bits int) {
	if bits == 0 {
		return
	}
	mask := ^uint64(0) >> (64 - bits)
	di, cur, curBits := 0, byte(0), 0
	for _, v := range vals {
		v &= mask
		for left := bits; left > 0; {
			cur |= byte(v << curBits)
			take := min(8-curBits, left)
			curBits += take
			v >>= uint(take)
			left -= take
			if curBits == 8 {
				dst[di] = cur
				di++
				cur, curBits = 0, 0
			}
		}
	}
	if curBits > 0 {
		dst[di] = cur
	}
}

// refUnpackBits reads values one bit at a time.
func refUnpackBits(src []byte, n, bits int, out []uint64) {
	for i := 0; i < n; i++ {
		var v uint64
		for b := 0; b < bits; b++ {
			p := i*bits + b
			v |= uint64(src[p>>3]>>(p&7)&1) << b
		}
		out[i] = v
	}
}

// TestPackBitsMatchesByteReference: every width 0..64 and lengths from 0
// past two blocks, packed into a buffer exactly packedBytes long (so a
// word store past the end would panic), must give the reference's bytes
// and unpack, in bulk and one at a time, from a source that also ends at
// the packed length.
func TestPackBitsMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{2*DefaultBlockSize + 1, 2*DefaultBlockSize + 33, DefaultBlockSize, DefaultBlockSize - 1}
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	for bits := 0; bits <= 64; bits++ {
		for _, n := range lengths {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() >> uint(rng.Intn(65-max(bits, 1))) // any magnitude, masked by the packer
			}
			size := packedBytes(n, bits)
			got, want := make([]byte, size), make([]byte, size)
			packBits(got[:size:size], vals, bits)
			refPackBits(want, vals, bits)
			if !bytes.Equal(got, want) {
				t.Fatalf("bits=%d n=%d: packBits differs from the byte reference", bits, n)
			}
			out, ref := make([]uint64, n), make([]uint64, n)
			unpackBits(got[:size:size], n, bits, out)
			refUnpackBits(want, n, bits, ref)
			if !slices.Equal(out, ref) {
				t.Fatalf("bits=%d n=%d: unpackBits differs from the bit reference", bits, n)
			}
			for i := range n {
				if v := unpackOne(got[:size:size], i, bits); v != ref[i] {
					t.Fatalf("bits=%d n=%d: unpackOne(%d) = %#x, want %#x", bits, n, i, v, ref[i])
				}
			}
		}
	}
}

// refUpdate is the per-value statistics fold the one-pass Update must
// reproduce exactly, private state included.
func refUpdate(st *Stats, vals []uint64) {
	for _, v := range vals {
		if st.N == 0 {
			st.first, st.prev = v, v
			st.MinS, st.MaxS = int64(v), int64(v)
			st.MinU, st.MaxU = v, v
			st.MinDelta, st.MaxDelta = 0, 0
			st.Runs, st.curRun, st.MaxRun = 1, 1, 1
		} else {
			st.MinS, st.MaxS = min(st.MinS, int64(v)), max(st.MaxS, int64(v))
			st.MinU, st.MaxU = min(st.MinU, v), max(st.MaxU, v)
			d := int64(v - st.prev)
			if st.N == 1 {
				st.MinDelta, st.MaxDelta = d, d
			} else {
				st.MinDelta, st.MaxDelta = min(st.MinDelta, d), max(st.MaxDelta, d)
			}
			if int64(v) < int64(st.prev) {
				st.SortedAsc = false
			}
			if v < st.prev {
				st.SortedAscU = false
			}
			if v == st.prev {
				st.curRun++
				st.MaxRun = max(st.MaxRun, st.curRun)
			} else {
				st.Runs++
				st.curRun = 1
			}
			st.prev = v
		}
		if st.hasSentinel && v == st.sentinel {
			st.NullCount++
		} else if !st.hasData {
			st.DataMinS, st.DataMaxS = int64(v), int64(v)
			st.DataMinU, st.DataMaxU = v, v
			st.hasData = true
		} else {
			st.DataMinS, st.DataMaxS = min(st.DataMinS, int64(v)), max(st.DataMaxS, int64(v))
			st.DataMinU, st.DataMaxU = min(st.DataMinU, v), max(st.DataMaxU, v)
		}
		if !st.Overflowed && st.distinct.add(v) && st.distinct.n > st.DistinctCap {
			st.Overflowed = true
			st.distinct = valueSet{}
		}
		st.N++
	}
}

// statsValue draws from a mix that exercises every branch of the fold:
// the sentinel, repeats (runs that cross Update calls), the int64
// extremes (wraparound deltas, signed and unsigned order disagreeing) and
// a growing domain (distinct overflow).
func statsValue(rng *rand.Rand, prev, sentinel uint64, domain int) uint64 {
	switch r := rng.Intn(12); {
	case r == 0:
		return sentinel
	case r < 4:
		return prev
	case r == 4:
		return []uint64{0, 1, math.MaxInt64, 1 << 63, math.MaxUint64}[rng.Intn(5)]
	case r == 5:
		return prev + uint64(rng.Intn(3)) - 1
	default:
		return uint64(rng.Intn(domain))
	}
}

// TestStatsFoldMatchesReference: Update's one pass equals the per-value
// fold after every call, over calls of 0, 1 and many values, with and
// without a sentinel, with the distinct cap hit exactly and passed by one.
func TestStatsFoldMatchesReference(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		signed, hasSentinel := trial%2 == 0, trial%3 != 0
		sentinel := []uint64{1 << 63, math.MaxUint64, 0, 7}[trial%4]
		got, want := NewStats(signed, sentinel, hasSentinel), NewStats(signed, sentinel, hasSentinel)
		cap := []int{1, 8, 1 << DictMaxBits}[trial%3]
		got.DistinctCap, want.DistinctCap = cap, cap
		// The domain straddles the cap: distinct counts reach cap exactly
		// in some trials and cap+1 in others.
		domain := cap + trial%2
		if trial%5 == 0 {
			domain = 1 << 20
		}
		prev := uint64(0)
		for call := 0; call < 40; call++ {
			n := []int{0, 1, 2, 31, DefaultBlockSize, rng.Intn(3000)}[rng.Intn(6)]
			vals := make([]uint64, n)
			for i := range vals {
				prev = statsValue(rng, prev, sentinel, domain)
				vals[i] = prev
			}
			got.Update(vals)
			refUpdate(want, vals)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d call %d (%d values): fold\n%+v\nreference\n%+v", trial, call, n, *got, *want)
			}
		}
	}
}

// TestStatsDistinctCapBoundary: exactly DistinctCap values stay exact,
// one more gives tracking up, whatever the split into Update calls.
func TestStatsDistinctCapBoundary(t *testing.T) {
	for _, extra := range []int{0, 1} {
		for _, chunk := range []int{1, 3, 64} {
			st := NewStats(false, 0, false)
			st.DistinctCap = 64
			vals := make([]uint64, 64+extra)
			for i := range vals {
				vals[i] = uint64(i * 3)
			}
			for len(vals) > 0 {
				k := min(chunk, len(vals))
				st.Update(vals[:k])
				vals = vals[k:]
			}
			n, exact := st.Distinct()
			if extra == 0 && (!exact || n != 64) || extra == 1 && (exact || !st.Overflowed) {
				t.Fatalf("cap 64 + %d, chunks of %d: Distinct() = %d, %v", extra, chunk, n, exact)
			}
		}
	}
}

// naiveZones computes per-block entries value by value in the zone
// domain: sign-extended for signed columns, masked to the width otherwise.
func naiveZones(vals []uint64, bs, width int, signed bool, sentinel uint64, hasSentinel bool) []ZoneEntry {
	var out []ZoneEntry
	for start := 0; start < len(vals); start += bs {
		e := ZoneEntry{}
		for _, v := range vals[start:min(start+bs, len(vals))] {
			e.Rows++
			if hasSentinel && v == sentinel {
				e.Nulls++
				continue
			}
			x := int64(v & widthMask(width))
			if signed {
				x = SignExtend(v, width)
			}
			if !e.HasRange {
				e.HasRange, e.Min, e.Max = true, x, x
			}
			e.Min, e.Max = min(e.Min, x), max(e.Max, x)
		}
		out = append(out, e)
	}
	return out
}

// TestZonesMatchNaive: the writer's zone map, built from the statistics
// fold, equals a naive per-block min/max at every width and signedness.
func TestZonesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 64; trial++ {
		width := []int{1, 2, 4, 8}[trial%4]
		signed, hasSentinel := trial%2 == 0, trial%3 != 0
		sentinel := widthMask(width)
		if trial%4 == 1 {
			sentinel = uint64(1) << (8*width - 1) // the most negative value at the width
		}
		bs := []int{32, 64, DefaultBlockSize}[trial%3]
		vals := make([]uint64, rng.Intn(5*bs))
		prev := uint64(0)
		for i := range vals {
			prev = statsValue(rng, prev, sentinel, 1<<(4*width)) & widthMask(width)
			vals[i] = prev
		}
		w := NewWriter(WriterConfig{Width: width, BlockSize: bs, Signed: signed,
			Sentinel: sentinel, HasSentinel: hasSentinel, ConvertOptimal: true})
		w.Append(vals)
		w.Finish()
		want := naiveZones(vals, bs, width, signed, sentinel, hasSentinel)
		var got []ZoneEntry
		if z := w.Zones(); z != nil {
			got = z.Entries
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (width %d signed %v): zones\n%v\nnaive\n%v", trial, width, signed, got, want)
		}
	}
}

// repackCase builds an appender holding committed, then moves it into
// two fresh appenders made by mk — one by repacking the stored codes,
// one by appending the decoded values again — appends tail to both and
// requires identical outcomes and identical bytes.
func repackCase(t *testing.T, name string, from appender, committed, tail []uint64, bs int, mk func() appender) {
	t.Helper()
	if !replay(from, committed, bs) {
		t.Fatalf("%s: the source appender rejects its own values", name)
	}
	repacked, replayed := mk(), mk()
	okRepack := from.(repacker).repackInto(repacked, len(committed))
	okReplay := replay(replayed, committed, bs)
	if okRepack != okReplay {
		t.Fatalf("%s: repack ok=%v, replay ok=%v", name, okRepack, okReplay)
	}
	if !okRepack {
		return
	}
	if len(tail) > 0 {
		e1, e2 := repacked.appendBlock(tail), replayed.appendBlock(tail)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("%s: tail after repack %v, after replay %v", name, e1, e2)
		}
		if e1 != nil {
			return
		}
	}
	n := len(committed) + len(tail)
	got, want := repacked.finish(n), replayed.finish(n)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: repacked stream differs from the replayed one", name)
	}
	s, err := FromBytes(got)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if all := slices.Concat(committed, tail); !slices.Equal(s.DecodeAll(), all) {
		t.Fatalf("%s: repacked stream decodes to other values", name)
	}
}

// TestRepackMatchesReplay covers each repacking kind the way the writer
// uses it: a mid-stream widening followed by the block that failed, and
// the headroom tightening at Finish over a partial final block, with
// NULL sentinels among the values and, for FOR and delta, parameters
// that cannot hold them (both paths must refuse).
func TestRepackMatchesReplay(t *testing.T) {
	const bs = 64
	rng := rand.New(rand.NewSource(3))
	const null = uint64(0xFFFF) // width-2 sentinel
	gen := func(n int, lo, span int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			if rng.Intn(9) == 0 {
				out[i] = null
			} else {
				out[i] = uint64(lo + rng.Intn(span))
			}
		}
		return out
	}
	for _, n := range []int{bs, 3 * bs, 3*bs + 17} {
		// FOR: values in [60000, 60000+3000) plus NULL at 65535.
		committed := gen(n, 60000, 3000)
		partial := n%bs != 0
		var tail []uint64
		if !partial {
			tail = gen(bs/2+1, 58000, 7000) // the failing block: wider range
		}
		for _, to := range []struct {
			bits  int
			frame int64
		}{{13, 59000}, {14, 57000}, {12, 60000}, {16, 0}, {3, 60000}} {
			repackCase(t, "for", newFORAppender(2, bs, 13, 59990), committed, tail, bs,
				func() appender { return newFORAppender(2, bs, to.bits, to.frame) })
		}
		// Delta: a walk with negative steps, wrapping at the width, and
		// NULLs that make large deltas.
		walk := make([]uint64, n)
		v := uint64(100)
		for i := range walk {
			if rng.Intn(11) == 0 {
				walk[i] = null
				continue
			}
			v = (v + uint64(rng.Intn(21)) - 10) & 0xFFFF
			walk[i] = v
		}
		for _, to := range []struct {
			bits     int
			minDelta int64
		}{{16, -65535}, {17, -70000}, {16, -40000}, {4, -10}} {
			repackCase(t, "delta", newDeltaAppender(2, bs, 17, -66000), walk, walk[:len(tail)], bs,
				func() appender { return newDeltaAppender(2, bs, to.bits, to.minDelta) })
		}
		// Dictionary: 40 distinct values (NULL among them), widened from
		// 6 bits to 7 and tightened back to the exact 6.
		dom := gen(40, 1000, 60000)
		dom[0] = null
		pick := func(k int) []uint64 {
			out := make([]uint64, k)
			for i := range out {
				out[i] = dom[rng.Intn(len(dom))]
			}
			return out
		}
		committed = pick(n)
		for _, bits := range []int{6, 7, 8, 2} {
			repackCase(t, "dict", newDictAppender(2, bs, 7), committed, pick(len(tail)), bs,
				func() appender { return newDictAppender(2, bs, bits) })
		}
	}
	// Run length: runs longer than a one-byte count split; a two-byte
	// count merges them again, as appending afresh would.
	runs := make([]uint64, 0, 2000)
	for len(runs) < 1900 {
		v := uint64(rng.Intn(3))
		for k := rng.Intn(700); k > 0; k-- {
			runs = append(runs, v)
		}
	}
	repackCase(t, "rle", newRLEAppender(2, bs, 1, 1), runs, []uint64{300, 300}, bs,
		func() appender { return newRLEAppender(2, bs, 2, 2) })
	repackCase(t, "rle-narrow", newRLEAppender(2, bs, 2, 2), append(runs, 300), nil, bs,
		func() appender { return newRLEAppender(2, bs, 1, 1) })
}

// TestWriterWideningRepacks: a column whose range keeps growing widens
// its frame mid-stream and tightens it at Finish; the stream it produces
// must decode to the input, and the re-encodings must have stayed within
// frame-of-reference (no replay into another kind was needed).
func TestWriterWideningRepacks(t *testing.T) {
	column := func() []uint64 {
		vals := make([]uint64, 20*DefaultBlockSize+100)
		for i := range vals {
			vals[i] = uint64(1<<40 + i*i/7) // a range that doubles again and again
			if i%97 == 0 {
				vals[i] = 1 << 40 // the NULL sentinel, inside the range
			}
		}
		return vals
	}
	w := NewWriter(WriterConfig{Sentinel: 1 << 40, HasSentinel: true,
		KindMask: 1 << FrameOfReference, ConvertOptimal: true})
	vals := column()
	for len(vals) > 0 {
		k := min(700, len(vals))
		w.Append(vals[:k])
		vals = vals[k:]
	}
	s := w.Finish()
	if w.Reencodings() == 0 || s.Kind() != FrameOfReference {
		t.Fatalf("%d re-encodings into %v; want widenings within FOR", w.Reencodings(), s.Kind())
	}
	if !slices.Equal(s.DecodeAll(), column()) {
		t.Fatal("widened stream decodes to other values")
	}
}
