package heap

import "tde/internal/types"

// Budget is where a Translator accounts its memo memory, under an
// operator's name (exec's QueryCtx).
type Budget interface {
	Charge(op string, n int) error
	Release(n int)
}

const (
	// maxSources bounds the memos kept (a delta scan alternates two heaps,
	// a parallel merge walks one partial heap after another); one heap
	// more and all are dropped.
	maxSources   = 4
	memoMinSlots = 64
	// memoJudgeAt is the size from which a poor hit rate switches a memo
	// off; a smaller one is cheap, and looks poor while it warms.
	memoJudgeAt = 1 << 15
	slotBytes   = 16
	fibMul      = 0x9E3779B97F4A7C15
)

// memoSlot maps a source token (stored plus one: zero marks an empty slot,
// and NULL, all ones, is never memoised) to its destination token.
type memoSlot struct{ src, dst uint64 }

// source is one source heap's memo: an open-addressing table, at most
// half full, indexed by the top bits of a multiplicative hash; nil once
// the memo switched itself off.
type source struct {
	heap    *Heap
	slots   []memoSlot
	shift   uint
	n, hits int
}

// Translator re-homes string tokens minted in other heaps into one
// destination heap, reading a source token's bytes once per distinct
// token, not once per row (Sect. 2.3.2's heap accelerator applied to an
// operator's input). Memos are keyed on the source heap's identity. A heap
// filled row by row for one block (computed columns, text import) shows
// strictly ascending tokens and takes the direct path, leaving no state.
type Translator struct {
	dst    *Heap
	acc    *Accelerator // nil: plain appends, non-distinct by design, nothing memoised
	budget Budget
	op     string
	srcs   []source

	// Translated counts non-NULL tokens mapped; Interned those whose bytes
	// were read from the source heap (memo misses and the direct path).
	Translated, Interned int64
}

// NewTranslator translates into dst through acc, charging memos to budget
// under op.
func NewTranslator(dst *Heap, acc *Accelerator, budget Budget, op string) *Translator {
	return &Translator{dst: dst, acc: acc, budget: budget, op: op}
}

// Release drops the memos and returns their memory to the budget.
func (t *Translator) Release() {
	for i := range t.srcs {
		t.drop(&t.srcs[i])
	}
	t.srcs = t.srcs[:0]
}

// Translate maps a block of src's tokens; in and out may be one slice.
func (t *Translator) Translate(src *Heap, in, out []uint64) {
	s := t.memoFor(src, in)
	for i, tok := range in {
		out[i] = t.one(s, src, tok)
	}
}

// One maps a single token of a heap the caller knows to outlive a block
// (a merged partial's, a spill chunk's).
func (t *Translator) One(src *Heap, tok uint64) uint64 {
	return t.one(t.memoFor(src, nil), src, tok)
}

func (t *Translator) one(s *source, src *Heap, tok uint64) uint64 {
	if tok == types.NullToken {
		return tok
	}
	t.Translated++
	if s == nil || s.slots == nil {
		return t.intern(src, tok)
	}
	key := tok + 1
	mask := uint64(len(s.slots) - 1)
	for i := (key * fibMul) >> s.shift; ; i = (i + 1) & mask {
		switch e := &s.slots[i]; e.src {
		case key:
			s.hits++
			return e.dst
		case 0:
			dst := t.intern(src, tok)
			*e = memoSlot{key, dst}
			if s.n++; s.n*2 > len(s.slots) {
				t.grow(s)
			}
			return dst
		}
	}
}

// intern reads tok's bytes in place and homes them — the cost a memo hit
// avoids. A token outside src reads as the empty string, as Heap.Get has
// it.
func (t *Translator) intern(src *Heap, tok uint64) uint64 {
	t.Interned++
	if t.acc == nil {
		return t.dst.Append(src.view(tok))
	}
	return t.acc.Intern(src.view(tok))
}

// memoFor finds src's memo or starts one; nil means translate directly,
// as for a first block (when given) that marks src a scratch heap.
func (t *Translator) memoFor(src *Heap, block []uint64) *source {
	if t.acc == nil {
		return nil
	}
	for i := range t.srcs {
		if t.srcs[i].heap == src {
			return &t.srcs[i]
		}
	}
	if block != nil && ascending(block) {
		return nil
	}
	if len(t.srcs) == maxSources {
		t.Release()
	}
	if t.budget.Charge(t.op, memoMinSlots*slotBytes) != nil {
		return nil
	}
	t.srcs = append(t.srcs, source{heap: src, slots: make([]memoSlot, memoMinSlots), shift: 64 - 6})
	return &t.srcs[len(t.srcs)-1]
}

// ascending reports whether the non-NULL tokens strictly increase.
func ascending(toks []uint64) bool {
	prev := types.NullToken // wraps to 0 below: no token is smaller
	for _, tok := range toks {
		if tok == types.NullToken {
			continue
		}
		if tok < prev+1 {
			return false
		}
		prev = tok
	}
	return true
}

// grow doubles a half-full memo, or switches it off when it does not pay:
// from memoJudgeAt entries on, fewer than one hit per four entries (a key
// near-unique per row), or any time the budget denies the charge.
func (t *Translator) grow(s *source) {
	old := s.slots
	if (s.n >= memoJudgeAt && s.hits*4 < s.n) || t.budget.Charge(t.op, len(old)*slotBytes) != nil {
		t.drop(s)
		return
	}
	s.slots = make([]memoSlot, 2*len(old))
	s.shift--
	mask := uint64(len(s.slots) - 1)
	for _, e := range old {
		if e.src == 0 {
			continue
		}
		i := (e.src * fibMul) >> s.shift
		for s.slots[i].src != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

func (t *Translator) drop(s *source) {
	t.budget.Release(len(s.slots) * slotBytes)
	s.slots = nil
}
