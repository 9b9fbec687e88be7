package enc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// encodeAll runs the dynamic encoder over vals and returns the stream.
func encodeAll(t *testing.T, cfg WriterConfig, vals []uint64) *Stream {
	t.Helper()
	w := NewWriter(cfg)
	w.Append(vals)
	s := w.Finish()
	if s.Len() != len(vals) {
		t.Fatalf("stream length %d, want %d", s.Len(), len(vals))
	}
	return s
}

// checkRoundTrip asserts every access path reproduces vals.
func checkRoundTrip(t *testing.T, s *Stream, vals []uint64, width int) {
	t.Helper()
	mask := widthMask(width)
	got := s.DecodeAll()
	for i := range vals {
		if got[i] != vals[i]&mask {
			t.Fatalf("%v: DecodeAll[%d] = %d, want %d", s.Kind(), i, got[i], vals[i]&mask)
		}
	}
	// Random access.
	rng := rand.New(rand.NewSource(int64(len(vals))))
	for trial := 0; trial < 32 && len(vals) > 0; trial++ {
		i := rng.Intn(len(vals))
		if g := s.Get(i); g != vals[i]&mask {
			t.Fatalf("%v: Get(%d) = %d, want %d", s.Kind(), i, g, vals[i]&mask)
		}
	}
	// Reader with unaligned chunks.
	r := NewReader(s)
	buf := make([]uint64, 97)
	at := 0
	for at < len(vals) {
		k := r.Read(at, len(buf), buf)
		if k == 0 {
			t.Fatalf("%v: Reader stalled at %d", s.Kind(), at)
		}
		for j := 0; j < k; j++ {
			if buf[j] != vals[at+j]&mask {
				t.Fatalf("%v: Reader[%d] = %d, want %d", s.Kind(), at+j, buf[j], vals[at+j]&mask)
			}
		}
		at += k
	}
	// Serialization round trip.
	s2, err := FromBytes(s.Bytes())
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	if s2.Len() != s.Len() || s2.Kind() != s.Kind() || s2.Width() != s.Width() {
		t.Fatalf("reparsed stream differs: %v/%d/%d", s2.Kind(), s2.Len(), s2.Width())
	}
}

func TestWriterConstantColumn(t *testing.T) {
	vals := make([]uint64, 5000)
	for i := range vals {
		vals[i] = 42
	}
	s := encodeAll(t, WriterConfig{ConvertOptimal: true}, vals)
	checkRoundTrip(t, s, vals, 8)
	// Constant columns should land on a zero-bit format (affine or FOR/RLE),
	// far smaller than raw.
	if s.PhysicalSize() > 200 {
		t.Errorf("constant column occupies %d bytes under %v", s.PhysicalSize(), s.Kind())
	}
}

func TestWriterSequentialColumnBecomesAffine(t *testing.T) {
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = uint64(1000 + 3*i)
	}
	s := encodeAll(t, WriterConfig{ConvertOptimal: true, Signed: true}, vals)
	if s.Kind() != Affine {
		t.Fatalf("sequential column encoded as %v, want affine", s.Kind())
	}
	if s.AffineBase() != 1000 || s.AffineDelta() != 3 {
		t.Errorf("affine params %d/%d", s.AffineBase(), s.AffineDelta())
	}
	checkRoundTrip(t, s, vals, 8)
	if s.PhysicalSize() != headerFixed+16 {
		t.Errorf("affine stream has %d bytes of data", s.PhysicalSize())
	}
}

func TestWriterSmallRangeBecomesFOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 100000)
	for i := range vals {
		vals[i] = uint64(int64(1_000_000 + rng.Intn(1<<14)))
	}
	s := encodeAll(t, WriterConfig{ConvertOptimal: true, Signed: true}, vals)
	if s.Kind() != FrameOfReference {
		t.Fatalf("small-range column encoded as %v, want for", s.Kind())
	}
	checkRoundTrip(t, s, vals, 8)
	if s.PhysicalSize() >= len(vals)*8/4 {
		t.Errorf("FOR stream only compressed to %d bytes", s.PhysicalSize())
	}
}

func TestWriterNegativeValuesFOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]uint64, 9000)
	for i := range vals {
		vals[i] = uint64(int64(rng.Intn(100) - 50))
	}
	s := encodeAll(t, WriterConfig{ConvertOptimal: true, Signed: true}, vals)
	checkRoundTrip(t, s, vals, 8)
}

func TestWriterSortedColumnBecomesDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]uint64, 50000)
	v := int64(0)
	for i := range vals {
		v += int64(rng.Intn(1000)) // strictly nondecreasing, wide total range
		vals[i] = uint64(v)
	}
	s := encodeAll(t, WriterConfig{ConvertOptimal: true, Signed: true}, vals)
	if s.Kind() != Delta {
		t.Fatalf("sorted wide column encoded as %v, want delta", s.Kind())
	}
	checkRoundTrip(t, s, vals, 8)
	md := MetadataFromStream(s, true, 0, false)
	if !md.SortedKnown || !md.SortedAsc {
		t.Error("delta metadata did not prove sortedness")
	}
	if md.Min != int64(vals[0]) || md.Max != int64(vals[len(vals)-1]) {
		t.Errorf("delta metadata range %d..%d", md.Min, md.Max)
	}
}

func TestWriterSmallDomainBecomesDictionary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Large, scattered values but few distincts: dictionary should win.
	domain := make([]uint64, 300)
	for i := range domain {
		domain[i] = rng.Uint64() >> 1
	}
	vals := make([]uint64, 60000)
	for i := range vals {
		vals[i] = domain[rng.Intn(len(domain))]
	}
	s := encodeAll(t, WriterConfig{ConvertOptimal: true}, vals)
	if s.Kind() != Dictionary {
		t.Fatalf("small-domain column encoded as %v, want dict", s.Kind())
	}
	if s.DictLen() > len(domain) {
		t.Errorf("dictionary has %d entries for %d distinct", s.DictLen(), len(domain))
	}
	checkRoundTrip(t, s, vals, 8)
}

func TestWriterRunsBecomeRLE(t *testing.T) {
	vals := make([]uint64, 0, 100000)
	rng := rand.New(rand.NewSource(5))
	for len(vals) < 100000 {
		v := rng.Uint64() // wide values kill dict/FOR; long runs favor RLE
		n := 500 + rng.Intn(1000)
		for j := 0; j < n && len(vals) < cap(vals); j++ {
			vals = append(vals, v)
		}
	}
	s := encodeAll(t, WriterConfig{ConvertOptimal: true}, vals)
	if s.Kind() != RunLength {
		t.Fatalf("run column encoded as %v, want rle", s.Kind())
	}
	checkRoundTrip(t, s, vals, 8)
}

func TestWriterDisallowRLE(t *testing.T) {
	vals := make([]uint64, 0, 50000)
	rng := rand.New(rand.NewSource(6))
	for len(vals) < 50000 {
		v := rng.Uint64()
		for j := 0; j < 700 && len(vals) < cap(vals); j++ {
			vals = append(vals, v)
		}
	}
	s := encodeAll(t, WriterConfig{ConvertOptimal: true, DisallowRLE: true}, vals)
	if s.Kind() == RunLength {
		t.Fatal("RLE chosen despite DisallowRLE")
	}
	checkRoundTrip(t, s, vals, 8)
}

func TestWriterRandomWideStaysRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 20000)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	s := encodeAll(t, WriterConfig{ConvertOptimal: true}, vals)
	if s.Kind() != None {
		t.Fatalf("incompressible column encoded as %v, want raw", s.Kind())
	}
	checkRoundTrip(t, s, vals, 8)
}

func TestWriterReencodeOnRangeBreak(t *testing.T) {
	// Stabilizes as FOR over a narrow range, then a huge value forces a
	// re-encoding (Sect. 3.2's failure path).
	vals := make([]uint64, 0, 30000)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20000; i++ {
		vals = append(vals, uint64(rng.Intn(100)))
	}
	vals = append(vals, uint64(1)<<40)
	for i := 0; i < 5000; i++ {
		vals = append(vals, uint64(rng.Intn(100)))
	}
	w := NewWriter(WriterConfig{Signed: true})
	w.Append(vals)
	s := w.Finish()
	if w.Reencodings() == 0 {
		t.Error("expected at least one re-encoding")
	}
	checkRoundTrip(t, s, vals, 8)
}

func TestWriterFewReencodingsOnStableData(t *testing.T) {
	// The paper loads lineitem SF-1 with only two encoding changes; our
	// stand-in: a realistic column should settle within a handful.
	rng := rand.New(rand.NewSource(9))
	vals := make([]uint64, 200000)
	for i := range vals {
		vals[i] = uint64(rng.Intn(50000)) // like l_quantity * 1000
	}
	w := NewWriter(WriterConfig{Signed: true})
	w.Append(vals)
	_ = w.Finish()
	if w.Reencodings() > 4 {
		t.Errorf("unstable encoding: %d re-encodings", w.Reencodings())
	}
}

func TestWriterGivesUpAfterMaxReencodings(t *testing.T) {
	// Adversarial data: each block doubles the range, forcing repeated
	// representation failures; the writer must fall back to raw
	// (Sect. 3.2's "detect excessive reformatting" safeguard).
	w := NewWriter(WriterConfig{Signed: true, MaxReencodings: 3, BlockSize: 32})
	var vals []uint64
	v := uint64(1)
	for b := 0; b < 40; b++ {
		for j := 0; j < 32; j++ {
			vals = append(vals, v)
		}
		v *= 4
	}
	w.Append(vals)
	s := w.Finish()
	got := s.DecodeAll()
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("giveup path corrupted value %d", i)
		}
	}
	if w.Reencodings() <= 3 {
		t.Skip("data did not trigger the giveup path") // defensive; should not happen
	}
}

func TestWriterEmptyColumn(t *testing.T) {
	w := NewWriter(WriterConfig{})
	s := w.Finish()
	if s.Len() != 0 {
		t.Fatalf("empty stream has %d values", s.Len())
	}
	if got := s.DecodeAll(); len(got) != 0 {
		t.Fatal("empty stream decoded values")
	}
}

func TestWriterSingleValue(t *testing.T) {
	w := NewWriter(WriterConfig{ConvertOptimal: true})
	w.AppendOne(987654321)
	s := w.Finish()
	if s.Len() != 1 || s.Get(0) != 987654321 {
		t.Fatalf("single value stream wrong: len %d", s.Len())
	}
}

func TestWriterBlockBoundaryLengths(t *testing.T) {
	// Lengths around decompression block boundaries are the classic
	// off-by-one zone for "only complete blocks are stored physically".
	for _, n := range []int{1, 31, 32, 33, 1023, 1024, 1025, 2047, 2048, 2049} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i % 7)
		}
		s := encodeAll(t, WriterConfig{}, vals)
		checkRoundTrip(t, s, vals, 8)
	}
}

func TestWriterNarrowWidths(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(width)))
		vals := make([]uint64, 5000)
		for i := range vals {
			vals[i] = rng.Uint64() & widthMask(width)
		}
		s := encodeAll(t, WriterConfig{Width: width}, vals)
		if s.Width() != width {
			t.Fatalf("width %d stream reports %d", width, s.Width())
		}
		checkRoundTrip(t, s, vals, width)
	}
}

func TestWriterSentinelNullCounting(t *testing.T) {
	sentinel := uint64(1) << 63
	w := NewWriter(WriterConfig{Signed: true, Sentinel: sentinel, HasSentinel: true})
	w.Append([]uint64{1, 2, sentinel, 3, sentinel})
	w.Finish() // statistics fold in pending values at block flush
	md := MetadataFromStats(w.Stats(), true)
	if !md.NullsKnown || !md.HasNulls {
		t.Error("nulls not detected")
	}
	if md.Min != 1 || md.Max != 3 {
		t.Errorf("data range %d..%d includes sentinel", md.Min, md.Max)
	}
	if w.Stats().NullCount != 2 {
		t.Errorf("null count %d", w.Stats().NullCount)
	}
}

func TestWriterRoundTripProperty(t *testing.T) {
	// Whatever the data, the dynamic encoder must reproduce it exactly.
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(raw []uint64, shape uint8) bool {
		vals := raw
		switch shape % 4 {
		case 1: // small domain
			for i := range vals {
				vals[i] %= 5
			}
		case 2: // sorted
			var acc uint64
			for i := range vals {
				acc += vals[i] % 1000
				vals[i] = acc
			}
		case 3: // runs
			for i := 1; i < len(vals); i++ {
				if vals[i]%3 != 0 {
					vals[i] = vals[i-1]
				}
			}
		}
		w := NewWriter(WriterConfig{BlockSize: 64, ConvertOptimal: shape%2 == 0})
		w.Append(vals)
		s := w.Finish()
		got := s.DecodeAll()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestEstimateSizesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]uint64, 10000)
	for i := range vals {
		vals[i] = uint64(rng.Intn(256))
	}
	w := NewWriter(WriterConfig{ConvertOptimal: true})
	w.Append(vals)
	sizes := w.EstimateSizes()
	s := w.Finish()
	est, ok := sizes[s.Kind()]
	if !ok {
		t.Fatalf("final kind %v missing from estimates", s.Kind())
	}
	// The estimate should be within a block of the real physical size.
	diff := est - s.PhysicalSize()
	if diff < 0 {
		diff = -diff
	}
	if diff > 8*1024 {
		t.Errorf("estimate %d vs actual %d", est, s.PhysicalSize())
	}
}

func TestRLECountFieldOverflowSplitsRuns(t *testing.T) {
	// A run longer than the count field capacity must split, not fail.
	a := newRLEAppender(8, 32, 1, 8) // 1-byte counts cap runs at 255
	block := make([]uint64, 32)
	for i := range block {
		block[i] = 9
	}
	for b := 0; b < 20; b++ { // 640 equal values
		if err := a.appendBlock(block); err != nil {
			t.Fatalf("appendBlock: %v", err)
		}
	}
	s, err := FromBytes(a.finish(640))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRuns() < 3 {
		t.Errorf("expected split runs, got %d", s.NumRuns())
	}
	for _, v := range s.DecodeAll() {
		if v != 9 {
			t.Fatal("split run corrupted values")
		}
	}
}

func TestReaderRLEBackwardSeekRestarts(t *testing.T) {
	vals := make([]uint64, 10000)
	for i := range vals {
		vals[i] = uint64(i / 100)
	}
	w := NewWriter(WriterConfig{ConvertOptimal: true})
	w.Append(vals)
	s := w.Finish()
	if s.Kind() != RunLength {
		t.Skip("data did not RLE-encode")
	}
	r := NewReader(s)
	buf := make([]uint64, 10)
	r.Read(9000, 10, buf)
	if buf[0] != 90 {
		t.Fatalf("forward read wrong: %d", buf[0])
	}
	r.Read(100, 10, buf) // backwards: must rescan from the start
	if buf[0] != 1 {
		t.Fatalf("backward read wrong: %d", buf[0])
	}
}

func TestCuckooBasic(t *testing.T) {
	c := newCuckoo(1024)
	for i := 0; i < 1024; i++ {
		key := uint64(i) * 2654435761
		if c.lookup(key) != -1 {
			t.Fatalf("phantom key %d", key)
		}
		c.insert(key, i)
	}
	for i := 0; i < 1024; i++ {
		key := uint64(i) * 2654435761
		if got := c.lookup(key); got != i {
			t.Fatalf("lookup(%d) = %d, want %d", key, got, i)
		}
	}
}

func TestCuckooAdversarialGrowth(t *testing.T) {
	// Sequential keys plus their bit-flipped twins stress displacement.
	c := newCuckoo(16)
	n := 4000
	for i := 0; i < n; i++ {
		c.insert(uint64(i), i)
	}
	for i := 0; i < n; i++ {
		if got := c.lookup(uint64(i)); got != i {
			t.Fatalf("after growth lookup(%d) = %d", i, got)
		}
	}
}
