// Package heap implements the TDE string heap: the variable-width
// secondary storage for string columns (Sect. 2.3.2). A string column's
// main data is a fixed-width stream of tokens, which are byte offsets into
// the heap; each heap element is a 4-byte length header followed by the
// character data (Sect. 5.1.4).
//
// The package also provides the heap accelerator — the dedup hash that
// keeps heaps small and tokens distinct during import — and heap sorting,
// which rewrites the heap in collation order so tokens become directly
// comparable (Sect. 2.3.4: sorted heaps turn collated string comparisons
// into integer comparisons).
package heap

import (
	"fmt"
	"sort"
	"unsafe"

	"tde/internal/corrupt"
	"tde/internal/types"
)

// elemHeader is the per-element length prefix size.
const elemHeader = 4

// Heap is an append-only string heap. Tokens are byte offsets of elements;
// offset order is insertion order.
type Heap struct {
	buf       []byte
	count     int
	collation types.Collation
	sorted    bool
}

// New returns an empty heap using the given collation for comparisons.
func New(collation types.Collation) *Heap {
	return &Heap{collation: collation}
}

// FromBytes reconstructs a heap from its serialized form. The element
// chain is walked and validated: every length header must fit, every
// element must lie inside the buffer, and the element count must match —
// so a heap loaded from untrusted bytes cannot fault later in Get.
func FromBytes(buf []byte, count int, collation types.Collation, sorted bool) (*Heap, error) {
	got := 0
	for off := 0; off < len(buf); got++ {
		if off+elemHeader > len(buf) {
			return nil, corrupt.Wrap(fmt.Errorf("heap: truncated element header at offset %d", off))
		}
		n := int(uint32(buf[off]) | uint32(buf[off+1])<<8 |
			uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24)
		if n < 0 || off+elemHeader+n > len(buf) {
			return nil, corrupt.Wrap(fmt.Errorf("heap: element at offset %d overruns buffer (%d bytes claimed)", off, n))
		}
		off += elemHeader + n
	}
	if got != count {
		return nil, corrupt.Wrap(fmt.Errorf("heap: buffer holds %d elements, catalog says %d", got, count))
	}
	return &Heap{buf: buf, count: count, collation: collation, sorted: sorted}, nil
}

// Bytes returns the heap's raw storage.
func (h *Heap) Bytes() []byte { return h.buf }

// Len returns the number of elements.
func (h *Heap) Len() int { return h.count }

// Size returns the heap's byte size.
func (h *Heap) Size() int { return len(h.buf) }

// Collation returns the heap's collation.
func (h *Heap) Collation() types.Collation { return h.collation }

// Sorted reports whether elements appear in ascending collation order, in
// which case tokens are directly comparable (Sect. 2.3.4).
func (h *Heap) Sorted() bool { return h.sorted }

// setSorted is used by the builder paths that can prove order.
func (h *Heap) setSorted(v bool) { h.sorted = v }

// Append adds a string and returns its token (byte offset). No
// deduplication is performed; use an Accelerator for that.
func (h *Heap) Append(s string) uint64 {
	tok := h.header(len(s))
	h.buf = append(h.buf, s...)
	return tok
}

// AppendBytes is Append for a caller holding bytes (a text field), with no
// string conversion.
func (h *Heap) AppendBytes(b []byte) uint64 {
	tok := h.header(len(b))
	h.buf = append(h.buf, b...)
	return tok
}

// Grow makes room for elems more elements holding n string bytes in all,
// so appending them allocates nothing more.
func (h *Heap) Grow(elems, n int) {
	if need := len(h.buf) + elems*elemHeader + n; need > cap(h.buf) {
		buf := make([]byte, len(h.buf), need)
		copy(buf, h.buf)
		h.buf = buf
	}
}

// header starts an element of n bytes and returns its token.
func (h *Heap) header(n int) uint64 {
	if n > 0xFFFFFFFF {
		panic("heap: string exceeds 4-byte length header")
	}
	tok := uint64(len(h.buf))
	h.buf = append(h.buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	h.count++
	h.sorted = false
	return tok
}

// Locate resolves want's keys to tokens in one pass over the elements:
// an entry still types.NullToken takes the token of the first element
// whose bytes equal its key. The pass stops once none is left.
func (h *Heap) Locate(want map[string]uint64) {
	left := 0
	for _, tok := range want {
		if tok == types.NullToken {
			left++
		}
	}
	for off := 0; off < len(h.buf) && left > 0; {
		s := h.view(uint64(off))
		if tok, ok := want[s]; ok && tok == types.NullToken {
			want[s] = uint64(off)
			left--
		}
		off += elemHeader + len(s)
	}
}

// Extend returns a heap holding h's elements under the same tokens, to
// which more can be appended without touching h: its first append copies
// the elements into a buffer of its own.
func (h *Heap) Extend() *Heap {
	return &Heap{buf: h.buf[:len(h.buf):len(h.buf)], count: h.count, collation: h.collation, sorted: h.sorted}
}

// Get returns the string at token tok. Tokens that fall outside the heap
// (possible when corrupt column data carries a stale offset) yield the
// empty string rather than a fault; FromBytes guarantees every genuine
// element boundary is safe.
func (h *Heap) Get(tok uint64) string { return string(h.elem(tok)) }

// AppendTo appends the string at token tok to dst: Get without the
// allocation.
func (h *Heap) AppendTo(dst []byte, tok uint64) []byte { return append(dst, h.elem(tok)...) }

// elem returns the bytes of the element at tok in place, nil for NULL or a
// token outside the heap.
func (h *Heap) elem(tok uint64) []byte {
	if tok == types.NullToken {
		return nil
	}
	off := int(tok)
	if off < 0 || off+elemHeader > len(h.buf) {
		return nil
	}
	n := int(uint32(h.buf[off]) | uint32(h.buf[off+1])<<8 |
		uint32(h.buf[off+2])<<16 | uint32(h.buf[off+3])<<24)
	if n < 0 || off+elemHeader+n > len(h.buf) {
		return nil
	}
	return h.buf[off+elemHeader : off+elemHeader+n]
}

// view returns the element at tok as a string sharing the heap's bytes —
// Get without the copy, for a probe that only reads it (hash, compare, or
// Append into another heap, which copies). It is sound because a heap is
// append-only: an element's bytes are never written again, and growing the
// buffer moves later appends to a new array while the one the view points
// into stays as it was. This is the package's only use of unsafe.
func (h *Heap) view(tok uint64) string {
	b := h.elem(tok)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Tokens returns every element's token in offset (insertion) order.
func (h *Heap) Tokens() []uint64 {
	toks := make([]uint64, 0, h.count)
	off := 0
	for off < len(h.buf) {
		toks = append(toks, uint64(off))
		n := int(uint32(h.buf[off]) | uint32(h.buf[off+1])<<8 |
			uint32(h.buf[off+2])<<16 | uint32(h.buf[off+3])<<24)
		off += elemHeader + n
	}
	return toks
}

// Compare orders the strings behind two tokens. On a sorted heap this is a
// token comparison; otherwise it is a (much more expensive) collated
// content comparison — exactly the performance cliff sorted heaps avoid.
func (h *Heap) Compare(a, b uint64) int {
	if h.sorted {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	return h.collation.Compare(h.view(a), h.view(b))
}

// CompareAcross orders element a of h against element b of o under coll,
// reading both in place: the compare of two rows whose strings live in
// different heaps.
func CompareAcross(coll types.Collation, h *Heap, a uint64, o *Heap, b uint64) int {
	return coll.Compare(h.view(a), o.view(b))
}

// SortedRemap builds a new heap containing the same elements in ascending
// collation order and returns it with a token remapping (old token → new
// token). Combined with enc.RemapDictEntries this sorts a dictionary-
// encoded string column in time proportional to the domain size
// (Sect. 3.4.3), never touching the row data.
func (h *Heap) SortedRemap() (*Heap, map[uint64]uint64) {
	toks := h.Tokens()
	sort.Slice(toks, func(i, j int) bool {
		return h.collation.Compare(h.view(toks[i]), h.view(toks[j])) < 0
	})
	nh := New(h.collation)
	nh.buf = make([]byte, 0, len(h.buf))
	remap := make(map[uint64]uint64, len(toks))
	for _, old := range toks {
		remap[old] = nh.Append(h.view(old))
	}
	nh.sorted = true
	return nh, remap
}

// IsSortedOrder verifies element order under the collation and caches the
// result in the sorted flag. Used after bulk loads where insertion order
// might happen to be sorted ("fortuitous circumstances", Sect. 6.4).
func (h *Heap) IsSortedOrder() bool {
	prev := ""
	first := true
	off := 0
	for off < len(h.buf) {
		n := int(uint32(h.buf[off]) | uint32(h.buf[off+1])<<8 |
			uint32(h.buf[off+2])<<16 | uint32(h.buf[off+3])<<24)
		s := h.view(uint64(off))
		if !first && h.collation.Compare(prev, s) > 0 {
			return false
		}
		prev, first = s, false
		off += elemHeader + n
	}
	h.sorted = true
	return true
}
