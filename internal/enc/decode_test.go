package enc

import (
	"math/rand"
	"testing"
)

// --- failure injection: FromBytes must reject malformed streams ---

func TestFromBytesRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"too short": make([]byte, headerFixed-1),
	}
	for name, buf := range cases {
		if _, err := FromBytes(buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestFromBytesRejectsBadAlgo(t *testing.T) {
	w := NewWriter(WriterConfig{})
	w.Append([]uint64{1, 2, 3})
	s := w.Finish()
	buf := append([]byte(nil), s.Bytes()...)
	buf[offAlgo] = 99
	if _, err := FromBytes(buf); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestFromBytesRejectsBadWidth(t *testing.T) {
	w := NewWriter(WriterConfig{})
	w.Append([]uint64{1, 2, 3})
	s := w.Finish()
	buf := append([]byte(nil), s.Bytes()...)
	buf[offWidth] = 3
	if _, err := FromBytes(buf); err == nil {
		t.Error("width 3 accepted")
	}
	buf[offWidth] = 0
	if _, err := FromBytes(buf); err == nil {
		t.Error("width 0 accepted")
	}
}

func TestFromBytesRejectsBadDataOffset(t *testing.T) {
	w := NewWriter(WriterConfig{})
	w.Append([]uint64{1, 2, 3})
	s := w.Finish()
	buf := append([]byte(nil), s.Bytes()...)
	putUint64(buf[offDataOffset:], uint64(len(buf)+1000))
	if _, err := FromBytes(buf); err == nil {
		t.Error("out-of-range data offset accepted")
	}
}

func TestGetPanicsOutOfRange(t *testing.T) {
	w := NewWriter(WriterConfig{})
	w.Append([]uint64{1, 2, 3})
	s := w.Finish()
	defer func() {
		if recover() == nil {
			t.Error("Get out of range did not panic")
		}
	}()
	s.Get(3)
}

// --- decode equivalences across access paths ---

func TestDecodeBlockMatchesGetAcrossKinds(t *testing.T) {
	shapes := map[string]func(i int) uint64{
		"affine": func(i int) uint64 { return uint64(10 + 7*i) },
		"for":    func(i int) uint64 { return uint64(1000 + (i*2654435761)%512) },
		"dict":   func(i int) uint64 { return uint64((i * 31) % 9 * 1000000) },
		"sorted": func(i int) uint64 { return uint64(i*i/7 + i) },
		"raw":    func(i int) uint64 { return uint64(i) * 2654435761 * uint64(i|1) },
	}
	for name, gen := range shapes {
		n := 4000
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = gen(i)
		}
		w := NewWriter(WriterConfig{ConvertOptimal: true, Signed: true})
		w.Append(vals)
		s := w.Finish()
		blk := make([]uint64, s.BlockSize())
		at := 0
		for b := 0; at < n; b++ {
			k := s.DecodeBlock(b, blk)
			for i := 0; i < k; i++ {
				if g := s.Get(at + i); g != blk[i] {
					t.Fatalf("%s(%v): Get(%d)=%d, DecodeBlock=%d",
						name, s.Kind(), at+i, g, blk[i])
				}
			}
			at += k
		}
	}
}

func TestTokenAccessOnDictionary(t *testing.T) {
	vals := make([]uint64, 3000)
	domain := []uint64{111, 222, 333, 444}
	rng := rand.New(rand.NewSource(5))
	for i := range vals {
		vals[i] = domain[rng.Intn(len(domain))]
	}
	w := NewWriter(WriterConfig{ConvertOptimal: true})
	w.Append(vals)
	s := w.Finish()
	if s.Kind() != Dictionary {
		t.Skipf("got %v", s.Kind())
	}
	toks := make([]uint64, s.BlockSize())
	at := 0
	for b := 0; at < s.Len(); b++ {
		k := s.DecodeTokenBlock(b, toks)
		for i := 0; i < k; i++ {
			tok := s.Token(at + i)
			if tok != toks[i] {
				t.Fatalf("Token(%d)=%d, block says %d", at+i, tok, toks[i])
			}
			if s.DictEntry(int(tok)) != vals[at+i] {
				t.Fatalf("token %d resolves wrong", tok)
			}
		}
		at += k
	}
}

func TestReaderShortAndBeyondEndReads(t *testing.T) {
	w := NewWriter(WriterConfig{})
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i)
	}
	w.Append(vals)
	s := w.Finish()
	r := NewReader(s)
	buf := make([]uint64, 64)
	if got := r.Read(90, 64, buf); got != 10 {
		t.Fatalf("read past end returned %d", got)
	}
	if got := r.Read(100, 64, buf); got != 0 {
		t.Fatalf("read at end returned %d", got)
	}
	if got := r.Read(500, 64, buf); got != 0 {
		t.Fatalf("read beyond end returned %d", got)
	}
}

func TestDeltaRandomAccessWithinBlocks(t *testing.T) {
	// Delta Get must scan within the block only; verify correctness at
	// block boundaries.
	rng := rand.New(rand.NewSource(6))
	n := 5000
	vals := make([]uint64, n)
	acc := uint64(1 << 30)
	for i := range vals {
		acc += uint64(rng.Intn(100))
		vals[i] = acc
	}
	w := NewWriter(WriterConfig{ConvertOptimal: true, Signed: true})
	w.Append(vals)
	s := w.Finish()
	if s.Kind() != Delta {
		t.Skipf("got %v", s.Kind())
	}
	for _, i := range []int{0, 1, 1023, 1024, 1025, 2047, 2048, n - 1} {
		if g := s.Get(i); g != vals[i] {
			t.Fatalf("Get(%d) = %d, want %d", i, g, vals[i])
		}
	}
}

func TestStreamHeaderAccessors(t *testing.T) {
	w := NewWriter(WriterConfig{ConvertOptimal: true, Signed: true})
	vals := make([]uint64, 2000)
	for i := range vals {
		vals[i] = uint64(500 + i)
	}
	w.Append(vals)
	s := w.Finish()
	if s.Kind() != Affine {
		t.Fatalf("got %v", s.Kind())
	}
	if s.AffineBase() != 500 || s.AffineDelta() != 1 {
		t.Errorf("affine header %d/%d", s.AffineBase(), s.AffineDelta())
	}
	if s.BlockSize() != DefaultBlockSize {
		t.Errorf("block size %d", s.BlockSize())
	}
	if s.Bits() != 0 {
		t.Errorf("affine bits %d", s.Bits())
	}
	if s.LogicalSize() != 2000*8 {
		t.Errorf("logical size %d", s.LogicalSize())
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{None: "raw", FrameOfReference: "for", Delta: "delta",
		Dictionary: "dict", Affine: "affine", RunLength: "rle"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// TestReaderReadMatchesGet is the Reader's property: for every kind, a
// window read from an aligned or unaligned start — by a fresh reader, and
// by one reader reused across windows — returns exactly what Get returns
// position by position, at the bit widths where unpacking takes its
// special paths (0 and 64) as well as between them.
func TestReaderReadMatchesGet(t *testing.T) {
	const bs = 128
	const n = 5*bs + 37 // a short last block
	rng := rand.New(rand.NewSource(5))
	vals := func(f func(i int) uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	build := func(a appender, vs []uint64) *Stream {
		t.Helper()
		for i := 0; i < len(vs); i += bs {
			if err := a.appendBlock(vs[i:min(i+bs, len(vs))]); err != nil {
				t.Fatal(err)
			}
		}
		s, err := FromBytes(a.finish(len(vs)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	random := vals(func(int) uint64 { return rng.Uint64() })
	small := vals(func(int) uint64 { return uint64(rng.Intn(1 << 13)) })
	domain := vals(func(int) uint64 { return uint64(rng.Intn(90)) * 1_000_003 })
	step := vals(func(i int) uint64 { return uint64(i * 7) })
	walk := make([]uint64, n)
	for i := 1; i < n; i++ {
		walk[i] = walk[i-1] + 3 + uint64(rng.Intn(500))
	}
	runs := vals(func(i int) uint64 { return uint64(i / 61 % 9) })
	rle, err := BuildRLE(runs, n, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *Stream
		bits int // -1: the kind has no bit width
	}{
		{"raw/bits64", build(newRawAppender(8, bs), random), 64},
		{"raw/bits16", build(newRawAppender(2, bs), vals(func(int) uint64 { return uint64(rng.Intn(1 << 16)) })), 16},
		{"for/bits0", build(newFORAppender(4, bs, 0, 77), vals(func(int) uint64 { return 77 })), 0},
		{"for/bits13", build(newFORAppender(8, bs, 13, 0), small), 13},
		{"for/bits64", build(newFORAppender(8, bs, 64, 0), random), 64},
		{"delta/bits0", build(newDeltaAppender(8, bs, 0, 7), step), 0},
		{"delta/bits9", build(newDeltaAppender(8, bs, 9, 3), walk), 9},
		{"dict/bits7", build(newDictAppender(8, bs, 7), domain), 7},
		{"affine", build(newAffineAppender(8, bs, 0, 7), step), -1},
		{"rle", rle, -1},
	} {
		if tc.bits >= 0 && tc.s.Bits() != tc.bits {
			t.Fatalf("%s: stream has %d bits", tc.name, tc.s.Bits())
		}
		want := make([]uint64, n)
		for i := range want {
			want[i] = tc.s.Get(i)
		}
		reused := NewReader(tc.s)
		for _, start := range []int{0, bs, 3 * bs, 5 * bs, 1, bs - 1, bs + 5, 4*bs + 100, n - 1} {
			for _, count := range []int{1, bs, bs + 1, 2*bs + 3, n} {
				for _, r := range []*Reader{NewReader(tc.s), reused} {
					out := make([]uint64, count)
					got := r.Read(start, count, out)
					if wantN := min(count, n-start); got != wantN {
						t.Fatalf("%s: Read(%d, %d) = %d values, want %d", tc.name, start, count, got, wantN)
					}
					for j := 0; j < got; j++ {
						if out[j] != want[start+j] {
							t.Fatalf("%s: Read(%d, %d)[%d] = %#x, Get(%d) = %#x",
								tc.name, start, count, j, out[j], start+j, want[start+j])
						}
					}
				}
			}
		}
	}
}
