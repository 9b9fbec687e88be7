package heap

import "tde/internal/types"

// DefaultAcceleratorLimit is the element count past which the accelerator
// gives up hashing. The paper uses 2^31 (Sect. 5.1.4); we default far lower
// because the accelerator is "designed to be small and fast for common
// usage, but is not designed to scale" (Sect. 6.2), and the limit is
// configurable.
const DefaultAcceleratorLimit = 1 << 22

// accSlot is one index entry: a string's collated hash and its token
// stored plus one (zero marks an empty slot).
type accSlot struct{ hash, tok uint64 }

// Accelerator maintains a hash table of all strings seen so far so string
// columns with small domains get minimal heaps and distinct tokens
// (Sect. 5.1.4). Hashing is collation-aware, matching the heap. Once the
// element count passes the limit the accelerator gives up: subsequent
// appends go straight to the heap, duplicated and non-distinct.
//
// The index is one flat open-addressing table, at most half full and
// addressed by the top bits of the collated hash, like the Translator's
// memo: a probe compares hashes first and a candidate's bytes in place
// second, so a hit allocates nothing.
type Accelerator struct {
	heap     *Heap
	slots    []accSlot // nil once given up
	shift    uint
	limit    int
	active   bool
	distinct bool // tokens handed out so far are distinct
}

// NewAccelerator wraps h with a dedup index. limit <= 0 selects the
// default.
func NewAccelerator(h *Heap, limit int) *Accelerator {
	if limit <= 0 {
		limit = DefaultAcceleratorLimit
	}
	return &Accelerator{
		heap:     h,
		slots:    make([]accSlot, memoMinSlots),
		shift:    64 - 6,
		limit:    limit,
		active:   true,
		distinct: true,
	}
}

// Heap returns the underlying heap.
func (a *Accelerator) Heap() *Heap { return a.heap }

// Active reports whether the accelerator is still hashing.
func (a *Accelerator) Active() bool { return a.active }

// Distinct reports whether every token handed out maps to a unique string
// — guaranteed while the accelerator never gave up.
func (a *Accelerator) Distinct() bool { return a.distinct }

// DomainSize returns the number of distinct strings interned while active.
func (a *Accelerator) DomainSize() int { return a.heap.Len() }

// Intern returns the token for s, appending it to the heap only if it has
// not been seen. After giving up, Intern degenerates to a plain append.
// s is not retained, so it may be a view of another heap's bytes.
func (a *Accelerator) Intern(s string) uint64 {
	if !a.active {
		return a.heap.Append(s)
	}
	coll := a.heap.Collation()
	hash := coll.Hash(s)
	mask := uint64(len(a.slots) - 1)
	i := hash >> a.shift
	for ; a.slots[i].tok != 0; i = (i + 1) & mask {
		// Heap collision comparisons: the extra I/O the paper worries
		// about when domains grow large (Sect. 6.2).
		if e := a.slots[i]; e.hash == hash && coll.Equal(a.heap.view(e.tok-1), s) {
			return e.tok - 1
		}
	}
	tok := a.heap.Append(s)
	a.slots[i] = accSlot{hash, tok + 1}
	switch n := a.heap.Len(); {
	case n >= a.limit:
		// "The accelerator gives up on hashing once the number of heap
		// elements passes the threshold."
		a.active = false
		a.slots = nil
		a.distinct = false
	case n*2 > len(a.slots):
		a.grow()
	}
	return tok
}

// grow doubles the index; entries keep their hash, so nothing is rehashed.
func (a *Accelerator) grow() {
	old := a.slots
	a.slots = make([]accSlot, 2*len(old))
	a.shift--
	mask := uint64(len(a.slots) - 1)
	for _, e := range old {
		if e.tok == 0 {
			continue
		}
		i := e.hash >> a.shift
		for a.slots[i].tok != 0 {
			i = (i + 1) & mask
		}
		a.slots[i] = e
	}
}

// Null returns the NULL string token.
func (a *Accelerator) Null() uint64 { return types.NullToken }
