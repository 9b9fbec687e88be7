package enc

import (
	"errors"
	"fmt"
)

// errRepresentation is returned by an appender when a value cannot be
// represented in the stream's current format; the dynamic encoder responds
// by consulting the column statistics and re-encoding (Sect. 3.2).
var errRepresentation = errors.New("enc: value outside encoding representation")

// appender builds one encoding's byte stream a decompression block at a
// time. appendBlock is atomic: on error nothing is committed, so the
// dynamic encoder can re-encode and retry the same block.
type appender interface {
	kind() Kind
	// appendBlock validates and appends one block. All blocks except the
	// last must be exactly blockSize values.
	appendBlock(vals []uint64) error
	// finish serializes the stream with the given logical value count.
	finish(logical int) []byte
}

// repacker is an appender whose committed blocks can move into a fresh
// appender of its own kind, built with other parameters, by rewriting the
// stored codes instead of decoding and re-appending the values. repackInto
// reports false, leaving the receiver intact, when a committed value does
// not fit next's representation; next is then unusable.
type repacker interface {
	repackInto(next appender, logical int) bool
}

// repackBlocks rewrites the first logical codes of src, packed in blocks
// of bs codes at bits, each block led by hdr header bytes, into blocks at
// toBits: every code c becomes (c + add) & mask, and the final block's
// padding codes stay zero, as appendBlock leaves them. fixFirst, when
// non-nil, may adjust the first block's header and codes before the shift.
// It returns the new bytes, or false when a rewritten code exceeds toBits.
func repackBlocks(src []byte, hdr, bs, bits, toBits, logical int, add, mask uint64,
	codes []uint64, fixFirst func(header []byte, codes []uint64)) ([]byte, bool) {
	var limit uint64
	if toBits > 0 {
		limit = ^uint64(0) >> (64 - toBits)
	}
	from, to := hdr+packedBytes(bs, bits), hdr+packedBytes(bs, toBits)
	nb := (logical + bs - 1) / bs
	out := make([]byte, nb*to)
	for k := 0; k < nb; k++ {
		blk, dst := src[k*from:(k+1)*from], out[k*to:(k+1)*to]
		copy(dst[:hdr], blk[:hdr])
		unpackBits(blk[hdr:], bs, bits, codes)
		if k == 0 && fixFirst != nil {
			fixFirst(dst[:hdr], codes)
		}
		n := min(bs, logical-k*bs)
		var hi uint64
		for i, c := range codes[:n] {
			c = (c + add) & mask
			codes[i], hi = c, max(hi, c)
		}
		if hi > limit {
			return nil, false
		}
		clear(codes[n:bs])
		packBits(dst[hdr:], codes[:bs], toBits)
	}
	return out, true
}

// --- raw (None) ---

type rawAppender struct {
	width, blockSize int
	data             []byte
	pad              []uint64
}

func newRawAppender(width, blockSize int) *rawAppender {
	return &rawAppender{width: width, blockSize: blockSize, pad: make([]uint64, blockSize)}
}

func (a *rawAppender) kind() Kind { return None }

func (a *rawAppender) appendBlock(vals []uint64) error {
	bits := a.width * 8
	block := vals
	if len(vals) < a.blockSize {
		copy(a.pad, vals)
		for i := len(vals); i < a.blockSize; i++ {
			a.pad[i] = 0
		}
		block = a.pad[:a.blockSize]
	}
	off := len(a.data)
	a.data = append(a.data, make([]byte, packedBytes(a.blockSize, bits))...)
	packBits(a.data[off:], block, bits)
	return nil
}

func (a *rawAppender) finish(logical int) []byte {
	buf := newHeader(None, a.width, a.width*8, a.blockSize, 8)
	putUint64(buf[offLogicalSize:], uint64(logical))
	return append(buf, a.data...)
}

// --- frame of reference ---

type forAppender struct {
	width, blockSize, bits int
	frame                  uint64
	data                   []byte
	scratch                []uint64
}

func newFORAppender(width, blockSize, bits int, frame int64) *forAppender {
	return &forAppender{width: width, blockSize: blockSize, bits: bits,
		frame: uint64(frame), scratch: make([]uint64, blockSize)}
}

func (a *forAppender) kind() Kind { return FrameOfReference }

func (a *forAppender) appendBlock(vals []uint64) error {
	mask := widthMask(a.width)
	var limit uint64
	if a.bits >= 64 {
		limit = ^uint64(0)
	} else {
		limit = (uint64(1) << a.bits) - 1
	}
	for i, v := range vals {
		off := (v - a.frame) & mask
		if off > limit {
			return fmt.Errorf("%w: for value %d at %d", errRepresentation, v, i)
		}
		a.scratch[i] = off
	}
	for i := len(vals); i < a.blockSize; i++ {
		a.scratch[i] = 0
	}
	off := len(a.data)
	a.data = append(a.data, make([]byte, packedBytes(a.blockSize, a.bits))...)
	packBits(a.data[off:], a.scratch[:a.blockSize], a.bits)
	return nil
}

// repackInto moves the codes to next's frame and width: a code is the
// value's offset from the frame, so it shifts by the frames' difference.
func (a *forAppender) repackInto(next appender, logical int) bool {
	b := next.(*forAppender)
	data, ok := repackBlocks(a.data, 0, a.blockSize, a.bits, b.bits, logical,
		a.frame-b.frame, widthMask(a.width), b.scratch, nil)
	b.data = data
	return ok
}

func (a *forAppender) finish(logical int) []byte {
	buf := newHeader(FrameOfReference, a.width, a.bits, a.blockSize, 8)
	putUint64(buf[offLogicalSize:], uint64(logical))
	putUint64(buf[offFrame:], a.frame)
	return append(buf, a.data...)
}

// --- delta ---

type deltaAppender struct {
	width, blockSize, bits int
	minDelta               int64
	data                   []byte
	scratch                []uint64
	prev                   uint64
	started                bool
}

func newDeltaAppender(width, blockSize, bits int, minDelta int64) *deltaAppender {
	return &deltaAppender{width: width, blockSize: blockSize, bits: bits,
		minDelta: minDelta, scratch: make([]uint64, blockSize)}
}

func (a *deltaAppender) kind() Kind { return Delta }

func (a *deltaAppender) appendBlock(vals []uint64) error {
	if len(vals) == 0 {
		return nil
	}
	mask := widthMask(a.width)
	var limit uint64
	if a.bits >= 64 {
		limit = ^uint64(0)
	} else {
		limit = (uint64(1) << a.bits) - 1
	}
	// The block's running total is the value preceding its first element;
	// for the very first block we synthesize prev = v0 - minDelta so the
	// first packed delta is zero.
	prev := a.prev
	if !a.started {
		prev = (vals[0] - uint64(a.minDelta)) & mask
	}
	running := prev
	for i, v := range vals {
		d := (v - prev) & mask
		pd := (d - uint64(a.minDelta)) & mask
		if pd > limit {
			return fmt.Errorf("%w: delta at %d", errRepresentation, i)
		}
		a.scratch[i] = pd
		prev = v
	}
	for i := len(vals); i < a.blockSize; i++ {
		a.scratch[i] = 0
	}
	off := len(a.data)
	a.data = append(a.data, make([]byte, 8+packedBytes(a.blockSize, a.bits))...)
	putUint64(a.data[off:], running)
	packBits(a.data[off+8:], a.scratch[:a.blockSize], a.bits)
	a.prev = prev & mask
	a.started = true
	return nil
}

// repackInto moves the codes to next's minimum delta and width: a code is
// its delta less the minimum, so it shifts by the minima's difference.
// Block headers hold the value before the block and stay, except the
// first block's, which is synthesized from the minimum so that the
// stream's first code is zero; it moves with the minimum.
func (a *deltaAppender) repackInto(next appender, logical int) bool {
	b := next.(*deltaAppender)
	mask := widthMask(a.width)
	add := uint64(a.minDelta-b.minDelta) & mask
	data, ok := repackBlocks(a.data, 8, a.blockSize, a.bits, b.bits, logical, add, mask, b.scratch,
		func(header []byte, codes []uint64) {
			putUint64(header, (getUint64(header)+add)&mask)
			codes[0] = -add & mask // shifts to zero
		})
	b.data, b.prev, b.started = data, a.prev, a.started
	return ok
}

func (a *deltaAppender) finish(logical int) []byte {
	buf := newHeader(Delta, a.width, a.bits, a.blockSize, 8)
	putUint64(buf[offLogicalSize:], uint64(logical))
	putUint64(buf[offMinDelta:], uint64(a.minDelta))
	return append(buf, a.data...)
}

// --- dictionary ---

type dictAppender struct {
	width, blockSize, bits int
	entries                []uint64
	lookup                 *cuckoo
	data                   []byte
	scratch                []uint64
}

func newDictAppender(width, blockSize, bits int) *dictAppender {
	if bits < 1 {
		bits = 1
	}
	if bits > DictMaxBits {
		bits = DictMaxBits
	}
	return &dictAppender{width: width, blockSize: blockSize, bits: bits,
		lookup: newCuckoo(1 << bits), scratch: make([]uint64, blockSize)}
}

func (a *dictAppender) kind() Kind { return Dictionary }

func (a *dictAppender) appendBlock(vals []uint64) error {
	capacity := 1 << a.bits
	// Two-phase: resolve indexes (provisionally assigning new entries)
	// and only commit if the whole block fits the dictionary.
	newEntries := a.entries
	for i, v := range vals {
		idx := a.lookup.lookup(v)
		if idx < 0 {
			// Might be a provisional entry from earlier in this block.
			idx = -1
			for j := len(a.entries); j < len(newEntries); j++ {
				if newEntries[j] == v {
					idx = j
					break
				}
			}
			if idx < 0 {
				if len(newEntries) >= capacity {
					return fmt.Errorf("%w: dictionary full (%d entries)", errRepresentation, capacity)
				}
				idx = len(newEntries)
				newEntries = append(newEntries, v)
			}
		}
		a.scratch[i] = uint64(idx)
	}
	for j := len(a.entries); j < len(newEntries); j++ {
		a.lookup.insert(newEntries[j], j)
	}
	a.entries = newEntries
	for i := len(vals); i < a.blockSize; i++ {
		a.scratch[i] = 0
	}
	off := len(a.data)
	a.data = append(a.data, make([]byte, packedBytes(a.blockSize, a.bits))...)
	packBits(a.data[off:], a.scratch[:a.blockSize], a.bits)
	return nil
}

// repackInto moves the codes to next's width. Codes index the entries,
// which keep their first-occurrence order, so only the packing changes.
func (a *dictAppender) repackInto(next appender, logical int) bool {
	b := next.(*dictAppender)
	if len(a.entries) > 1<<b.bits {
		return false
	}
	data, ok := repackBlocks(a.data, 0, a.blockSize, a.bits, b.bits, logical, 0, ^uint64(0), b.scratch, nil)
	if !ok {
		return false
	}
	b.data, b.entries = data, a.entries
	for j, e := range a.entries {
		b.lookup.insert(e, j)
	}
	return true
}

func (a *dictAppender) finish(logical int) []byte {
	// The header reserves space for the full 2^bits entries so the
	// dictionary can grow in place up to the limit (Sect. 3.1.3).
	buf := newHeader(Dictionary, a.width, a.bits, a.blockSize, 8+(1<<a.bits)*a.width)
	putUint64(buf[offLogicalSize:], uint64(logical))
	putUint64(buf[offDictCount:], uint64(len(a.entries)))
	for i, e := range a.entries {
		putWidth(buf[offDictEntry0+i*a.width:], e, a.width)
	}
	return append(buf, a.data...)
}

// --- affine ---

type affineAppender struct {
	width, blockSize int
	base, delta      int64
	row              int64
	started          bool
}

func newAffineAppender(width, blockSize int, base, delta int64) *affineAppender {
	return &affineAppender{width: width, blockSize: blockSize, base: base, delta: delta}
}

func (a *affineAppender) kind() Kind { return Affine }

func (a *affineAppender) appendBlock(vals []uint64) error {
	mask := widthMask(a.width)
	if !a.started && len(vals) > 0 {
		// Rebase on the first value actually seen; stats supply the delta.
		a.base = int64(vals[0])
		a.started = true
	}
	row := a.row
	for i, v := range vals {
		want := uint64(a.base+row*a.delta) & mask
		if v&mask != want {
			return fmt.Errorf("%w: affine break at row %d", errRepresentation, row)
		}
		row++
		_ = i
	}
	a.row = row
	return nil
}

func (a *affineAppender) finish(logical int) []byte {
	buf := newHeader(Affine, a.width, 0, a.blockSize, 16)
	putUint64(buf[offLogicalSize:], uint64(logical))
	putUint64(buf[offBase:], uint64(a.base))
	putUint64(buf[offDelta:], uint64(a.delta))
	return buf
}

// --- run length ---

type rleAppender struct {
	width, blockSize       int
	countWidth, valueWidth int
	data                   []byte
	curValue               uint64
	curCount               uint64
	started                bool
}

func newRLEAppender(width, blockSize, countWidth, valueWidth int) *rleAppender {
	return &rleAppender{width: width, blockSize: blockSize,
		countWidth: countWidth, valueWidth: valueWidth}
}

func (a *rleAppender) kind() Kind { return RunLength }

func (a *rleAppender) appendBlock(vals []uint64) error {
	vlimit := widthMask(a.valueWidth)
	climit := widthMask(a.countWidth)
	// Validate first: every value must fit the value field.
	for i, v := range vals {
		if v > vlimit {
			return fmt.Errorf("%w: rle value at %d", errRepresentation, i)
		}
	}
	for _, v := range vals {
		if a.started && v == a.curValue && a.curCount < climit {
			a.curCount++
			continue
		}
		if a.started {
			a.emit()
		}
		a.curValue, a.curCount, a.started = v, 1, true
	}
	return nil
}

// repackInto re-emits the runs at next's count and value widths. Runs
// that a narrower count field had split merge again, as appending the
// values afresh would merge them.
func (a *rleAppender) repackInto(next appender, _ int) bool {
	b := next.(*rleAppender)
	rec := a.countWidth + a.valueWidth
	for off := 0; off < len(a.data); off += rec {
		if !b.addRun(getWidth(a.data[off+a.countWidth:], a.valueWidth), getWidth(a.data[off:], a.countWidth)) {
			return false
		}
	}
	return !a.started || b.addRun(a.curValue, a.curCount)
}

// addRun appends count copies of v, extending the open run up to the
// count field's limit exactly as appendBlock does value by value.
func (a *rleAppender) addRun(v, count uint64) bool {
	if v > widthMask(a.valueWidth) {
		return false
	}
	climit := widthMask(a.countWidth)
	for count > 0 {
		if !a.started || v != a.curValue || a.curCount == climit {
			if a.started {
				a.emit()
			}
			a.curValue, a.curCount, a.started = v, 0, true
		}
		take := min(count, climit-a.curCount)
		a.curCount += take
		count -= take
	}
	return true
}

func (a *rleAppender) emit() {
	off := len(a.data)
	a.data = append(a.data, make([]byte, a.countWidth+a.valueWidth)...)
	putWidth(a.data[off:], a.curCount, a.countWidth)
	putWidth(a.data[off+a.countWidth:], a.curValue, a.valueWidth)
}

// BuildRLE encodes vals directly as a run-length stream, bypassing the
// dynamic encoder's choice logic. Workload generators use it when the
// experiment prescribes run-length encoding (Sect. 5.3).
func BuildRLE(vals []uint64, maxRun int, maxValue uint64) (*Stream, error) {
	cw := widthFor(bitsFor(uint64(maxRun)))
	vw := widthFor(bitsFor(maxValue))
	a := newRLEAppender(vw, DefaultBlockSize, cw, vw)
	for start := 0; start < len(vals); start += DefaultBlockSize {
		end := start + DefaultBlockSize
		if end > len(vals) {
			end = len(vals)
		}
		if err := a.appendBlock(vals[start:end]); err != nil {
			return nil, err
		}
	}
	return FromBytes(a.finish(len(vals)))
}

func (a *rleAppender) finish(logical int) []byte {
	data := a.data
	if a.started {
		// Emit the open run without disturbing appender state, so finish
		// can be called again (drain during re-encoding does this).
		saved := len(a.data)
		a.emit()
		data = a.data
		a.data = a.data[:saved]
	}
	buf := newHeader(RunLength, a.width, 0, a.blockSize, 8)
	putUint64(buf[offLogicalSize:], uint64(logical))
	buf[offCountWidth] = byte(a.countWidth)
	buf[offValueWidth] = byte(a.valueWidth)
	out := make([]byte, 0, len(buf)+len(data))
	out = append(out, buf...)
	return append(out, data...)
}
