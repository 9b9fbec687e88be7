package enc

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzEncFromBytes feeds arbitrary bytes to the stream validator and, when
// a stream is accepted, exercises every read path: a validated stream must
// be fully readable without panics or out-of-bounds access.
func FuzzEncFromBytes(f *testing.F) {
	// Seed with genuine streams of each encoding so the fuzzer starts from
	// valid headers and mutates them.
	seed := func(vals []uint64, cfg WriterConfig) {
		w := NewWriter(cfg)
		for _, v := range vals {
			w.AppendOne(v)
		}
		f.Add(w.Finish().Bytes())
	}
	seed([]uint64{1, 2, 3, 1000000}, WriterConfig{ConvertOptimal: true})
	seed([]uint64{7, 7, 7, 7, 7, 7, 7, 7}, WriterConfig{ConvertOptimal: true})
	asc := make([]uint64, 256)
	for i := range asc {
		asc[i] = uint64(5000 + i)
	}
	seed(asc, WriterConfig{Signed: true, ConvertOptimal: true})
	dict := make([]uint64, 300)
	for i := range dict {
		dict[i] = uint64(i % 3 * 1000)
	}
	seed(dict, WriterConfig{ConvertOptimal: true})
	f.Add([]byte{})
	f.Add(make([]byte, headerFixed))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := FromBytes(data)
		if err != nil {
			return
		}
		n := s.Len()
		if n > 1<<20 {
			// The header can legally claim a huge logical size only for
			// encodings with no per-value storage (affine, bits=0); cap the
			// walk so the fuzzer doesn't time out materializing it.
			n = 1 << 20
		}
		out := make([]uint64, s.BlockSize())
		if s.Kind() != RunLength {
			for b := 0; b*s.BlockSize() < n; b++ {
				s.DecodeBlock(b, out)
			}
		}
		for _, i := range []int{0, 1, n / 2, n - 1} {
			if i >= 0 && i < n {
				s.Get(i)
			}
		}
		r := NewReader(s)
		buf := make([]uint64, 512)
		for at := 0; at < n; {
			k := r.Read(at, len(buf), buf)
			if k == 0 {
				break
			}
			at += k
		}
	})
}

// writerCase decodes fuzz bytes into a writer configuration and the
// value slices to append. Four header bytes choose the width, block
// size, signedness, sentinel, PreferDict, DisallowRLE, KindMask and
// ConvertOptimal; the rest is a little program of literal values, runs
// of the previous value, small steps from it and slice boundaries, so
// short inputs still make columns with runs, ranges that widen and
// dictionaries that fill.
func writerCase(data []byte) (WriterConfig, [][]uint64) {
	var h [4]byte
	copy(h[:], data)
	data = data[min(4, len(data)):]
	width := []int{1, 2, 4, 8}[h[0]&3]
	cfg := WriterConfig{
		Width:          width,
		BlockSize:      []int{32, 64, DefaultBlockSize}[int(h[0]>>2&3)%3],
		Signed:         h[0]&0x10 != 0,
		HasSentinel:    h[0]&0x20 != 0,
		PreferDict:     h[0]&0x40 != 0,
		DisallowRLE:    h[0]&0x80 != 0,
		ConvertOptimal: h[1]&1 != 0,
		Sentinel:       []uint64{widthMask(width), 0, uint64(1) << (8*width - 1), 1}[h[1]>>1&3],
	}
	if h[1]&8 != 0 {
		cfg.KindMask = uint16(h[2]) | uint16(h[3])<<8
	}
	mask := widthMask(width)
	var chunks [][]uint64
	var cur []uint64
	prev, done := uint64(0), 0 // done counts the values of ended slices
	for len(data) > 0 && done+len(cur) < 1<<14 {
		op := data[0]
		data = data[1:]
		switch op & 3 {
		case 0: // a literal value
			var b [8]byte
			k := copy(b[:width], data)
			data = data[k:]
			prev = getUint64(b[:]) & mask
			cur = append(cur, prev)
		case 1: // a run of the previous value
			for range int(op>>2) + 1 {
				cur = append(cur, prev)
			}
		case 2: // a step from the previous value
			prev = (prev + uint64(int64(int8(op))>>2)) & mask
			cur = append(cur, prev)
		case 3: // end the slice
			chunks, cur, done = append(chunks, cur), nil, done+len(cur)
		}
	}
	return cfg, append(chunks, cur)
}

// FuzzWriterRoundTrip: for any configuration and any values appended in
// any slice sizes, the finished stream decodes to the values, and the
// writer's statistics and zone map equal per-value references.
func FuzzWriterRoundTrip(f *testing.F) {
	f.Add([]byte{0x03, 0x01, 0, 0, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 0x41, 0x06, 0x06, 0x03, 0x7d})
	f.Add([]byte{0x61, 0x03, 0, 0, 0x00, 0xff, 0xfd, 0x00, 0x10, 0x02, 0x02, 0xff, 0x01})
	f.Add([]byte{0x34, 0x0b, 0x20, 0x00, 0x00, 0x05, 0x00, 0x09, 0x02, 0x1e, 0x03, 0x00, 0x80})
	f.Add([]byte{0x92, 0x05, 0, 0, 0x02, 0x06, 0x0a, 0x0e, 0x12, 0x16, 0x03, 0x02, 0x02, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, chunks := writerCase(data)
		w := NewWriter(cfg)
		ref := NewStats(cfg.Signed, cfg.Sentinel, cfg.HasSentinel)
		var all []uint64
		for _, c := range chunks {
			w.Append(c)
			all = append(all, c...)
		}
		s := w.Finish()
		if got := s.DecodeAll(); !slices.Equal(got, all) && len(all) > 0 {
			t.Fatalf("%+v: %v stream decodes to %v, appended %v", cfg, s.Kind(), got, all)
		}
		if s.Len() != len(all) {
			t.Fatalf("%+v: stream holds %d values, appended %d", cfg, s.Len(), len(all))
		}
		refUpdate(ref, all)
		if !reflect.DeepEqual(w.Stats(), ref) {
			t.Fatalf("%+v: statistics\n%+v\nreference\n%+v", cfg, *w.Stats(), *ref)
		}
		want := naiveZones(all, cfg.BlockSize, cfg.Width, cfg.Signed, cfg.Sentinel, cfg.HasSentinel)
		var got []ZoneEntry
		if z := w.Zones(); z != nil {
			got = z.Entries
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%+v: zones\n%v\nnaive\n%v", cfg, got, want)
		}
	})
}
