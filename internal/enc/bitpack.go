// Package enc implements the TDE encoding layer of Sect. 3: lightweight,
// semantically-neutral compression formats ("encodings") that present a
// paged array of fixed-width values while storing the data bit-packed.
//
// The package provides:
//
//   - the Figure-1 bit-packed header format and its five encodings
//     (frame-of-reference, delta, dictionary, affine, run-length) plus an
//     unencoded raw format;
//   - the dynamic encoder of Sect. 3.2, which tracks statistics while
//     values are inserted and re-encodes when a value falls outside the
//     current representation;
//   - the header manipulations of Sect. 3.4: O(1) type narrowing,
//     run-length decomposition, metadata extraction, and the
//     encoding-becomes-compression conversions.
//
// Encodings are semantically neutral: they know the width of the elements
// but not their type (Sect. 2.3.2). All element values travel as uint64,
// zero-extended from their width; interpreting them (sign extension,
// NULL sentinels, heap tokens) is the column layer's concern.
package enc

import "encoding/binary"

// bitsFor returns the number of bits needed to represent x as an unsigned
// value; bitsFor(0) is 0, which is what lets affine streams pack to nothing.
func bitsFor(x uint64) int {
	n := 0
	for x != 0 {
		n++
		x >>= 1
	}
	return n
}

// WidthMask returns the value mask for a w-byte element width. The column
// layer uses it to translate full-width sentinels into narrow streams.
func WidthMask(w int) uint64 { return widthMask(w) }

// widthMask returns the value mask for a w-byte element width.
func widthMask(w int) uint64 {
	if w >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * w)) - 1
}

// TokenWidth returns the narrowest element width that holds tokens for a
// dictionary of n entries, reserving the all-ones NULL pattern.
func TokenWidth(n int) int {
	w := widthFor(bitsFor(uint64(n)))
	for w < 8 && uint64(n) >= widthMask(w) {
		w *= 2
	}
	return w
}

// widthFor returns the narrowest supported element width (1, 2, 4 or 8
// bytes) that can hold bits bits.
func widthFor(bits int) int {
	switch {
	case bits <= 8:
		return 1
	case bits <= 16:
		return 2
	case bits <= 32:
		return 4
	default:
		return 8
	}
}

// packBits packs n := len(vals) values of the given bit width into dst,
// LSB first. dst must have room for packedBytes(n, bits) bytes. Values must
// already fit in bits bits; higher bits are masked off defensively.
//
// Values collect in one 64-bit word that is stored whole each time it
// fills; only the final partial word is stored a byte at a time, so the
// store never reaches past packedBytes(n, bits).
func packBits(dst []byte, vals []uint64, bits int) {
	switch bits {
	case 0:
		return
	case 64:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(dst[i*8:], v)
		}
		return
	}
	mask := uint64(1)<<bits - 1
	var acc uint64
	accBits, di := 0, 0
	for _, v := range vals {
		v &= mask
		acc |= v << (accBits & 63)
		accBits += bits
		if accBits >= 64 {
			binary.LittleEndian.PutUint64(dst[di:], acc)
			di += 8
			accBits -= 64
			acc = v >> ((bits - accBits) & 63) // the bits that did not fit; 0 when all did
		}
	}
	for ; accBits > 0; accBits -= 8 {
		dst[di] = byte(acc)
		di++
		acc >>= 8
	}
}

// unpackBits unpacks n values of the given bit width from src into out.
// Each value is one unaligned 64-bit load, shifted and masked; values
// whose load would pass the end of src, and fields wider than 56 bits
// (which can straddle nine bytes), go through unpackOne.
func unpackBits(src []byte, n, bits int, out []uint64) {
	out = out[:n]
	if bits == 0 {
		clear(out)
		return
	}
	if bits == 64 {
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(src[i*8:])
		}
		return
	}
	i := 0
	if bits <= 56 && len(src) >= 8 {
		mask := uint64(1)<<bits - 1
		// Value i loads src[i*bits/8:][:8], inside src for every i < fast.
		fast := min(n, ((len(src)-7)*8-1)/bits+1)
		for pos := 0; i < fast; i, pos = i+1, pos+bits {
			out[i] = binary.LittleEndian.Uint64(src[pos>>3:]) >> (pos & 7) & mask
		}
	}
	for ; i < n; i++ {
		out[i] = unpackOne(src, i, bits)
	}
}

// unpackOne extracts the value at index i from a packed run of values.
// It is the random-access path; block decoding should use unpackBits.
func unpackOne(src []byte, i, bits int) uint64 {
	if bits == 0 {
		return 0
	}
	bitPos := i * bits
	byteIdx := bitPos >> 3
	shift := uint(bitPos & 7)
	var acc uint64
	if byteIdx+8 <= len(src) {
		acc = binary.LittleEndian.Uint64(src[byteIdx:])
	} else {
		// The last partial word: gather what is left of src.
		for j, b := range src[byteIdx:] {
			acc |= uint64(b) << (8 * uint(j))
		}
	}
	v := acc >> shift
	// A field wider than 56 bits can reach into a ninth byte.
	if shift+uint(bits) > 64 && byteIdx+8 < len(src) {
		v |= uint64(src[byteIdx+8]) << (64 - shift)
	}
	return v & (^uint64(0) >> (64 - bits))
}

// packedBytes returns the number of bytes occupied by n values packed at
// the given bit width. Decompression blocks hold a multiple of 32 values,
// so complete blocks always end on a byte boundary; this helper still
// rounds up for safety on partial runs.
func packedBytes(n, bits int) int {
	return (n*bits + 7) / 8
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// putWidth writes v at the given element width (1, 2, 4 or 8 bytes).
func putWidth(b []byte, v uint64, w int) {
	switch w {
	case 1:
		b[0] = byte(v)
	case 2:
		b[0] = byte(v)
		b[1] = byte(v >> 8)
	case 4:
		b[0] = byte(v)
		b[1] = byte(v >> 8)
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
	default:
		putUint64(b, v)
	}
}

// getWidth reads a zero-extended value at the given element width.
func getWidth(b []byte, w int) uint64 {
	switch w {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(b[0]) | uint64(b[1])<<8
	case 4:
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
	default:
		return getUint64(b)
	}
}
