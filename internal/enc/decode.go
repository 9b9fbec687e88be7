package enc

import "fmt"

// DecodeBlock decodes decompression block b into out, returning the number
// of logical values produced (the final block may be short). out must have
// room for BlockSize values. One DecodeBlock call feeds one execution
// iteration block (Sect. 3.1).
//
// Run-length streams have no block structure; use Reader or Runs for them.
func (s *Stream) DecodeBlock(b int, out []uint64) int {
	bs := s.BlockSize()
	n := s.Len() - b*bs
	if n <= 0 {
		return 0
	}
	if n > bs {
		n = bs
	}
	mask := widthMask(s.Width())
	switch s.Kind() {
	case None:
		src := s.buf[s.dataOffset()+b*s.blockBytes():]
		unpackBits(src, n, s.Bits(), out)
	case FrameOfReference:
		src := s.buf[s.dataOffset()+b*s.blockBytes():]
		unpackBits(src, n, s.Bits(), out)
		frame := uint64(s.Frame())
		for i := 0; i < n; i++ {
			out[i] = (out[i] + frame) & mask
		}
	case Delta:
		src := s.buf[s.dataOffset()+b*s.blockBytes():]
		prev := getUint64(src)
		minDelta := uint64(s.MinDelta())
		unpackBits(src[8:], n, s.Bits(), out)
		for i := 0; i < n; i++ {
			prev = (prev + minDelta + out[i]) & mask
			out[i] = prev
		}
	case Dictionary:
		src := s.buf[s.dataOffset()+b*s.blockBytes():]
		unpackBits(src, n, s.Bits(), out)
		for i := 0; i < n; i++ {
			out[i] = s.DictEntry(int(out[i]))
		}
	case Affine:
		base, delta := s.AffineBase(), s.AffineDelta()
		row := int64(b * bs)
		for i := 0; i < n; i++ {
			out[i] = uint64(base+(row+int64(i))*delta) & mask
		}
	case RunLength:
		panic("enc: DecodeBlock on run-length stream; use Reader")
	}
	return n
}

// Get returns the value at index i. For most encodings this is O(1) plus a
// little arithmetic; for delta it scans within the block; for run-length it
// scans runs from the start of the stream — the poor backwards random
// access that makes RLE a bad hash-join inner (Sect. 4.3).
func (s *Stream) Get(i int) uint64 {
	if i < 0 || i >= s.Len() {
		panic(fmt.Sprintf("enc: Get(%d) out of range [0,%d)", i, s.Len()))
	}
	mask := widthMask(s.Width())
	switch s.Kind() {
	case None:
		src := s.buf[s.dataOffset()+(i/s.BlockSize())*s.blockBytes():]
		return unpackOne(src, i%s.BlockSize(), s.Bits()) & mask
	case FrameOfReference:
		src := s.buf[s.dataOffset()+(i/s.BlockSize())*s.blockBytes():]
		return (unpackOne(src, i%s.BlockSize(), s.Bits()) + uint64(s.Frame())) & mask
	case Dictionary:
		src := s.buf[s.dataOffset()+(i/s.BlockSize())*s.blockBytes():]
		return s.DictEntry(int(unpackOne(src, i%s.BlockSize(), s.Bits())))
	case Affine:
		return uint64(s.AffineBase()+int64(i)*s.AffineDelta()) & mask
	case Delta:
		src := s.buf[s.dataOffset()+(i/s.BlockSize())*s.blockBytes():]
		prev := getUint64(src)
		minDelta := uint64(s.MinDelta())
		k := i % s.BlockSize()
		for j := 0; j <= k; j++ {
			prev = (prev + minDelta + unpackOne(src[8:], j, s.Bits())) & mask
		}
		return prev
	case RunLength:
		var pos uint64
		for r, nr := 0, s.NumRuns(); r < nr; r++ {
			count, value := s.Run(r)
			if uint64(i) < pos+count {
				return value
			}
			pos += count
		}
	}
	// FromBytes validates that run counts cover the logical size and that
	// the algorithm byte is known, so neither fall-through is reachable on
	// a loaded stream; return the sentinel rather than faulting.
	return 0
}

// Token returns the pre-dictionary packed index at position i of a
// dictionary stream. Decompression joins read tokens, not values.
func (s *Stream) Token(i int) uint64 {
	src := s.buf[s.dataOffset()+(i/s.BlockSize())*s.blockBytes():]
	return unpackOne(src, i%s.BlockSize(), s.Bits())
}

// DecodeTokenBlock is DecodeBlock for a dictionary stream but yields the
// packed dictionary indexes instead of the entry values.
func (s *Stream) DecodeTokenBlock(b int, out []uint64) int {
	bs := s.BlockSize()
	n := s.Len() - b*bs
	if n <= 0 {
		return 0
	}
	if n > bs {
		n = bs
	}
	src := s.buf[s.dataOffset()+b*s.blockBytes():]
	unpackBits(src, n, s.Bits(), out)
	return n
}

// DecodeAll decodes the entire stream. Intended for tests, small
// dictionaries and re-encoding; execution uses block decoding.
func (s *Stream) DecodeAll() []uint64 {
	n := s.Len()
	out := make([]uint64, n)
	if n == 0 {
		return out
	}
	if s.Kind() == RunLength {
		pos := 0
		for r, nr := 0, s.NumRuns(); r < nr; r++ {
			count, value := s.Run(r)
			for j := uint64(0); j < count && pos < n; j++ {
				out[pos] = value
				pos++
			}
		}
		return out
	}
	bs := s.BlockSize()
	tmp := make([]uint64, bs)
	pos := 0
	for b := 0; pos < n; b++ {
		k := s.DecodeBlock(b, tmp)
		copy(out[pos:], tmp[:k])
		pos += k
	}
	return out
}

// Reader provides cursor-based sequential access to a stream. Sequential
// reads of run-length data are O(runs); every other encoding decodes one
// block at a time — straight into the caller's slice when the read covers
// the whole block. Reading backwards re-scans (RLE) or re-decodes a block.
// A Reader is not safe for concurrent use; readers of one stream share
// nothing.
type Reader struct {
	s        *Stream
	block    []uint64
	blockIdx int
	blockLen int
	dict     []uint64 // a Dictionary stream's entries, decoded on first use
	// run-length cursor
	runIdx int
	runPos int // logical index of the start of runIdx
}

// NewReader returns a reader positioned at the start of s.
func NewReader(s *Stream) *Reader {
	return &Reader{s: s, blockIdx: -1}
}

// Stream returns the underlying stream.
func (r *Reader) Stream() *Stream { return r.s }

// Read copies n values starting at logical index start into out and
// returns the number copied (short only at end of stream).
func (r *Reader) Read(start, n int, out []uint64) int {
	total := r.s.Len()
	if start >= total {
		return 0
	}
	if start+n > total {
		n = total - start
	}
	if r.s.Kind() == RunLength {
		return r.readRLE(start, n, out)
	}
	bs := r.s.BlockSize()
	copied := 0
	for copied < n {
		idx := start + copied
		b, off := idx/bs, idx%bs
		if off == 0 && b != r.blockIdx && n-copied >= min(bs, total-idx) {
			// The caller wants the whole block: no staging copy.
			copied += r.decodeBlock(b, out[copied:])
			continue
		}
		if b != r.blockIdx {
			if r.block == nil {
				r.block = make([]uint64, bs)
			}
			r.blockLen = r.decodeBlock(b, r.block)
			r.blockIdx = b
		}
		k := copy(out[copied:n], r.block[off:r.blockLen])
		if k == 0 {
			break
		}
		copied += k
	}
	return copied
}

// decodeBlock is DecodeBlock with a Dictionary stream's entries looked up
// in the reader's decoded table instead of the header, one per value.
func (r *Reader) decodeBlock(b int, out []uint64) int {
	if r.s.Kind() != Dictionary {
		return r.s.DecodeBlock(b, out)
	}
	if r.dict == nil {
		r.dict = make([]uint64, r.s.DictLen())
		for i := range r.dict {
			r.dict[i] = r.s.DictEntry(i)
		}
	}
	n := r.s.DecodeTokenBlock(b, out)
	dict := r.dict
	for i, tok := range out[:n] {
		if tok < uint64(len(dict)) {
			out[i] = dict[tok]
		} else {
			out[i] = 0 // a token past the entries (corrupt data), as DictEntry
		}
	}
	return n
}

func (r *Reader) readRLE(start, n int, out []uint64) int {
	if start < r.runPos {
		// Backwards seek: restart the scan from the beginning of the
		// stream (Sect. 4.3's expensive case, reproduced deliberately).
		r.runIdx, r.runPos = 0, 0
	}
	nr := r.s.NumRuns()
	copied := 0
	for copied < n && r.runIdx < nr {
		count, value := r.s.Run(r.runIdx)
		runEnd := r.runPos + int(count)
		idx := start + copied
		if idx >= runEnd {
			r.runIdx++
			r.runPos = runEnd
			continue
		}
		k := runEnd - idx
		if k > n-copied {
			k = n - copied
		}
		for j := 0; j < k; j++ {
			out[copied+j] = value
		}
		copied += k
	}
	return copied
}
