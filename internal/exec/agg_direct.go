package exec

import (
	"errors"
	"fmt"

	"tde/internal/heap"
	"tde/internal/types"
	"tde/internal/vec"
)

// Direct grouping (Sect. 2.3.4's direct hashing into a 64K table, over
// several keys): every key column maps its values to a dense ordinal, the
// last ordinal standing for NULL, and a row's slot in the direct table is
// Σ ordinal × stride over the keys. Nothing is hashed or compared: a
// string key groups on the position of its element in the column's
// stored heap, so its tokens are never translated either, and the groups
// keep the stored tokens.

// ErrDirectKey reports a grouping key outside the domain its column's
// metadata declared — stale or corrupt metadata, or a block whose heap is
// not the column's. Direct aggregation fails the query rather than file
// the row under a wrong group.
var ErrDirectKey = errors.New("exec: grouping key outside its column's declared domain")

// keyKind says how a direct key maps its values to ordinals.
type keyKind uint8

const (
	// keyRange: a scalar with a small [Meta.Min, Meta.Max] envelope;
	// the ordinal is value − Min.
	keyRange keyKind = iota
	// keyToken: a dictionary-compressed column; the ordinal is the token.
	keyToken
	// keyHeap: a string column over a deduplicated stored heap; the
	// ordinal is its element's position, shared by every element equal
	// under the collation.
	keyHeap
)

// heapOrdinalLimit caps the heap bytes of a keyHeap column: its ordinal
// table holds two bytes per heap byte.
const heapOrdinalLimit = 1 << 20

// noOrdinal marks an ordinal-table entry that is no element's offset.
const noOrdinal = ^uint16(0)

// directKey is one key column's ordinal mapping. It is built once per
// query and read by every worker.
type directKey struct {
	kind   keyKind
	col    int
	typ    types.Type
	min    int64 // keyRange
	null   int   // the NULL ordinal; the domain is null+1 ordinals
	stride int
	heap   *heap.Heap // keyHeap: the heap every block must carry
	ord    []uint16   // keyHeap: element token (offset) -> ordinal
	rep    []uint64   // keyHeap: ordinal -> its first element's token
}

// directKeys maps every key column to an ordinal domain, or returns nil
// when some key has none or the domains' product, NULL ordinals included,
// exceeds directLimit. tokens admits dictionary keys. A heap key's domain
// is bounded here by its element count; bindDirectKeys builds its table.
func directKeys(in []ColInfo, keyCols []int, tokens bool) []directKey {
	if len(keyCols) == 0 {
		return nil
	}
	dks := make([]directKey, len(keyCols))
	slots := 1
	for i, kc := range keyCols {
		info := &in[kc]
		dk := directKey{col: kc, typ: info.Type}
		switch md := info.Meta; {
		case info.Dict != nil:
			if !tokens {
				return nil
			}
			dk.kind, dk.null = keyToken, len(info.Dict)
		case info.Type == types.String:
			h := info.Heap
			if h == nil || !info.StoredHeap || !md.CardinalityExact || h.Size() > heapOrdinalLimit {
				return nil
			}
			dk.kind, dk.heap, dk.null = keyHeap, h, h.Len()
		case md.HasRange:
			span := md.Max - md.Min
			if span < 0 || span >= directLimit {
				return nil
			}
			dk.kind, dk.min, dk.null = keyRange, md.Min, int(span)+1
		default:
			return nil
		}
		if slots *= dk.null + 1; slots > directLimit {
			return nil
		}
		dks[i] = dk
	}
	return dks
}

// ordinalBytes is what bindDirectKeys will allocate for the heap keys'
// ordinal tables.
func ordinalBytes(dks []directKey) int {
	n := 0
	for i := range dks {
		if h := dks[i].heap; h != nil {
			n += 2*h.Size() + 8*h.Len()
		}
	}
	return n
}

// bindDirectKeys builds the heap keys' ordinal tables — shrinking each
// domain to its collation classes — and lays out the strides, the first
// key outermost: the groups of a filter that fixes the leading keys, as a
// drill-down does, then share a band of adjacent slots, and so a few
// pages of the direct state (place).
func bindDirectKeys(dks []directKey) {
	stride := 1
	for i := len(dks) - 1; i >= 0; i-- {
		dk := &dks[i]
		if dk.kind == keyHeap {
			dk.ord, dk.rep = heapOrdinals(dk.heap)
			dk.null = len(dk.rep)
		}
		dk.stride = stride
		stride *= dk.null + 1
	}
}

// directSlots is the direct table's size: the product of the domains.
func directSlots(dks []directKey) int {
	return dks[0].stride * (dks[0].null + 1)
}

// heapOrdinals numbers h's elements in heap order, elements equal under
// h's collation sharing the ordinal of the first: ord maps an element's
// token to its ordinal, rep an ordinal to its first element's token. The
// classes come from interning every element through a collation-aware
// accelerator once.
func heapOrdinals(h *heap.Heap) (ord []uint16, rep []uint64) {
	ord = make([]uint16, h.Size())
	for i := range ord {
		ord[i] = noOrdinal
	}
	classes := heap.New(h.Collation())
	acc := heap.NewAccelerator(classes, 0)
	ordOf := make(map[uint64]uint16, h.Len())
	for _, tok := range h.Tokens() {
		ct := acc.Intern(h.Get(tok))
		o, seen := ordOf[ct]
		if !seen {
			o = uint16(len(rep))
			ordOf[ct] = o
			rep = append(rep, tok)
		}
		ord[tok] = o
	}
	return ord, rep
}

// key is ordinal o's key value: the inverse of addOrdinals.
func (dk *directKey) key(o int) uint64 {
	switch {
	case o == dk.null && dk.kind == keyRange:
		return types.NullBits(dk.typ)
	case o == dk.null:
		return types.NullToken
	case dk.kind == keyRange:
		return uint64(dk.min + int64(o))
	case dk.kind == keyToken:
		return uint64(o)
	}
	return dk.rep[o]
}

func (dk *directKey) domainErr(in []ColInfo) error {
	return fmt.Errorf("%w: %q (corrupt column metadata?)", ErrDirectKey, in[dk.col].Name)
}

// directPage is how many slots share a page of the direct state: the
// columns are given room a page at a time, on the first row of any of
// its slots, so they hold the pages of slots in use, not the domain.
const (
	directPageBits = 8
	directPage     = 1 << directPageBits
)

// directIDs is the direct modes' group-id pass: column at a time, each
// key adds its ordinal × stride to the rows' slots (computed in gids),
// and place turns the slots into the groups' indices in the columns.
func (c *aggCore) directIDs(b *vec.Block, gids []int32) error {
	clear(gids)
	for i := range c.dkeys {
		dk := &c.dkeys[i]
		if err := dk.addOrdinals(&b.Vecs[dk.col], gids); err != nil {
			return fmt.Errorf("%w (%v)", dk.domainErr(c.in), err)
		}
	}
	c.place(gids)
	return nil
}

// place turns slots into the indices of their groups in the columns, in
// place: a slot keeps its offset in its page, and its page takes the
// next page of the columns when first touched. The columns grow once a
// batch, for all of its new pages: they at least double, and past half
// the pages they take them all. The groups not held yet are marked held
// and listed in the order first seen.
func (c *aggCore) place(slots []int32) {
	slotCount := directSlots(c.dkeys)
	if c.page == nil { // from nothing: no page of slots has a page yet
		pages := (slotCount + directPage - 1) / directPage
		c.page, c.virt = make([]int32, pages), make([]int32, 0, pages)
	}
	given := len(c.virt)
	for _, s := range slots {
		if v := s >> directPageBits; c.page[v] == 0 {
			c.virt = append(c.virt, v)
			c.page[v] = int32(len(c.virt))
		}
	}
	if len(c.virt) > given { // room up to the last page's last slot
		last := len(c.virt) - 1
		end := last*directPage + min(directPage, slotCount-int(c.virt[last])*directPage)
		if all := len(c.page) * directPage; end > c.room {
			if room := max(end, 2*c.room); room <= all/2 {
				c.reserve(room)
			} else {
				c.reserve(all)
			}
		}
	}
	for i, s := range slots {
		g := (c.page[s>>directPageBits]-1)<<directPageBits | s&(directPage-1)
		slots[i] = g
		if !c.touched.has(int(g)) {
			c.touched.put(int(g), true)
			c.order = append(c.order, g)
		}
	}
	c.n = len(c.order)
}

// slot is the direct slot of group g: place's inverse.
func (c *aggCore) slot(g int) int {
	return int(c.virt[g>>directPageBits])<<directPageBits | g&(directPage-1)
}

// addOrdinals adds the ordinal × stride of every row of v to slots.
func (dk *directKey) addOrdinals(v *vec.Vector, slots []int32) error {
	data := v.Data[:len(slots)]
	stride := int32(dk.stride)
	switch dk.kind {
	case keyRange:
		if v.Dict != nil {
			return errors.New("a dictionary block under a value key")
		}
		null, span, lo := types.NullBits(dk.typ), uint64(dk.null), uint64(dk.min)
		for i, x := range data {
			o := x - lo
			if x == null {
				o = span
			} else if o >= span {
				return fmt.Errorf("value %d", int64(x))
			}
			slots[i] += int32(o) * stride
		}
	case keyToken:
		if v.Dict == nil {
			return errors.New("a value block under a dictionary key")
		}
		span := uint64(dk.null)
		for i, x := range data {
			if x == types.NullToken {
				x = span
			} else if x >= span {
				return fmt.Errorf("token %d", x)
			}
			slots[i] += int32(x) * stride
		}
	case keyHeap:
		if v.Heap != dk.heap {
			return errors.New("a block whose heap is not the column's")
		}
		null := int32(dk.null)
		for i, x := range data {
			o := null
			if x != types.NullToken {
				if x >= uint64(len(dk.ord)) || dk.ord[x] == noOrdinal {
					return fmt.Errorf("token %d", x)
				}
				o = int32(dk.ord[x])
			}
			slots[i] += o * stride
		}
	}
	return nil
}
