package heap

import (
	"errors"
	"fmt"
	"testing"

	"tde/internal/types"
)

// testBudget is a Budget with an optional cap, counting what it holds.
type testBudget struct{ used, limit int }

func (b *testBudget) Charge(_ string, n int) error {
	if b.limit > 0 && b.used+n > b.limit {
		return errors.New("over budget")
	}
	b.used += n
	return nil
}

func (b *testBudget) Release(n int) { b.used -= n }

func newTestTranslator(coll types.Collation, b *testBudget) (*Translator, *Heap) {
	dst := New(coll)
	return NewTranslator(dst, NewAccelerator(dst, 0), b, "test"), dst
}

// sharedHeap holds n distinct strings and returns their tokens.
func sharedHeap(n int) (*Heap, []uint64) {
	h := New(types.CollateBinary)
	toks := make([]uint64, n)
	for i := range toks {
		toks[i] = h.Append(fmt.Sprintf("s%05d", i))
	}
	return h, toks
}

// repeating builds a block of rows tokens cycling through toks downwards,
// so it never looks like a scratch heap's ascending block.
func repeating(toks []uint64, rows int) []uint64 {
	out := make([]uint64, rows)
	for i := range out {
		out[i] = toks[(rows-i)%len(toks)]
	}
	return out
}

func checkStrings(t *testing.T, src, dst *Heap, in, out []uint64) {
	t.Helper()
	for i, tok := range in {
		if tok == types.NullToken {
			if out[i] != types.NullToken {
				t.Fatalf("row %d: NULL translated to %d", i, out[i])
			}
			continue
		}
		if got, want := dst.Get(out[i]), src.Get(tok); got != want {
			t.Fatalf("row %d: got %q, want %q", i, got, want)
		}
	}
}

func TestTranslatorReadsEachDistinctTokenOnce(t *testing.T) {
	b := &testBudget{}
	tr, dst := newTestTranslator(types.CollateBinary, b)
	src, toks := sharedHeap(300)
	for block := 0; block < 10; block++ {
		in := repeating(toks, 1024)
		in[7], in[500] = types.NullToken, types.NullToken
		out := make([]uint64, len(in))
		tr.Translate(src, in, out)
		checkStrings(t, src, dst, in, out)
	}
	if tr.Interned != 300 || tr.Translated != 10*1022 {
		t.Errorf("interned=%d translated=%d, want 300 of 10220", tr.Interned, tr.Translated)
	}
	if dst.Len() != 300 {
		t.Errorf("destination holds %d strings, want 300", dst.Len())
	}
	if b.used == 0 {
		t.Error("memo memory was not charged")
	}
	tr.Release()
	if b.used != 0 {
		t.Errorf("%d bytes still charged after Release", b.used)
	}
}

// A token outside the source heap reads as the empty string, exactly as
// Heap.Get has it, memoised or not.
func TestTranslatorOutOfRangeToken(t *testing.T) {
	tr, dst := newTestTranslator(types.CollateBinary, &testBudget{})
	src, toks := sharedHeap(4)
	in := []uint64{toks[1], 1 << 40, toks[1], 1 << 40, types.NullToken}
	out := make([]uint64, len(in))
	tr.Translate(src, in, out)
	checkStrings(t, src, dst, in, out)
	if dst.Get(out[1]) != "" || out[1] != out[3] {
		t.Errorf("out-of-range token became %q / %q", dst.Get(out[1]), dst.Get(out[3]))
	}
	if got := tr.One(src, 1<<41); dst.Get(got) != "" {
		t.Errorf("One(out of range) = %q", dst.Get(got))
	}
}

// Two heaps alternating block by block (a delta scan's base and overlay)
// each keep their memo; the same token value means different strings.
func TestTranslatorHeapSwitchMidStream(t *testing.T) {
	tr, dst := newTestTranslator(types.CollateBinary, &testBudget{})
	base, baseToks := sharedHeap(50)
	overlay := New(types.CollateBinary)
	overToks := make([]uint64, 50)
	for i := range overToks {
		overToks[i] = overlay.Append(fmt.Sprintf("o%05d", i))
	}
	for block := 0; block < 6; block++ {
		src, toks := base, baseToks
		if block%2 == 1 {
			src, toks = overlay, overToks
		}
		in := repeating(toks, 512)
		out := make([]uint64, len(in))
		tr.Translate(src, in, out)
		checkStrings(t, src, dst, in, out)
	}
	if tr.Interned != 100 {
		t.Errorf("interned=%d, want 100: one read per distinct token per heap", tr.Interned)
	}
	// More heaps than the translator keeps memos for still translate right.
	for i := 0; i < 2*maxSources; i++ {
		h, toks := sharedHeap(10 + i)
		in := repeating(toks, 64)
		out := make([]uint64, len(in))
		tr.Translate(h, in, out)
		checkStrings(t, h, dst, in, out)
	}
	if len(tr.srcs) > maxSources {
		t.Errorf("%d memos kept, cap is %d", len(tr.srcs), maxSources)
	}
}

// Per-block scratch heaps (one Append per row) take the direct path and
// leave no state behind.
func TestTranslatorScratchHeapFallsThrough(t *testing.T) {
	b := &testBudget{}
	tr, dst := newTestTranslator(types.CollateCaseFold, b)
	for block := 0; block < 20; block++ {
		scratch := New(types.CollateCaseFold)
		in := make([]uint64, 256)
		for i := range in {
			in[i] = scratch.Append(fmt.Sprintf("V%d", i%7))
			if i%2 == 1 {
				in[i] = scratch.Append(fmt.Sprintf("v%d", i%7))
			}
		}
		in[3] = types.NullToken
		out := make([]uint64, len(in))
		tr.Translate(scratch, in, out)
		for i, tok := range in {
			if tok != types.NullToken && !types.CollateCaseFold.Equal(dst.Get(out[i]), scratch.Get(tok)) {
				t.Fatalf("row %d: got %q, want %q", i, dst.Get(out[i]), scratch.Get(tok))
			}
		}
	}
	if len(tr.srcs) != 0 || b.used != 0 {
		t.Errorf("scratch heaps left state: %d memos, %d bytes charged", len(tr.srcs), b.used)
	}
	if dst.Len() != 7 {
		t.Errorf("case-insensitive destination holds %d strings, want 7", dst.Len())
	}
	if tr.Interned != tr.Translated {
		t.Errorf("interned=%d of %d: the direct path reads every token", tr.Interned, tr.Translated)
	}
}

// A key near-unique per row switches its memo off once the memo is big
// enough to judge, returning the memory; a repetitive one keeps it.
func TestTranslatorSwitchesItselfOff(t *testing.T) {
	b := &testBudget{}
	tr, dst := newTestTranslator(types.CollateBinary, b)
	src, toks := sharedHeap(3 * memoJudgeAt)
	for lo := 0; lo < len(toks); lo += 1024 {
		in := repeating(toks[lo:lo+1024], 1024)
		out := make([]uint64, len(in))
		tr.Translate(src, in, out)
		if lo == 0 || lo == len(toks)-1024 {
			checkStrings(t, src, dst, in, out)
		}
	}
	if b.used != 0 || tr.srcs[0].slots != nil {
		t.Errorf("memo still holds %d bytes after %d unique tokens", b.used, len(toks))
	}
	if tr.Interned != int64(len(toks)) {
		t.Errorf("interned=%d, want %d", tr.Interned, len(toks))
	}

	b = &testBudget{}
	tr, _ = newTestTranslator(types.CollateBinary, b)
	for lo := 0; lo < 2*memoJudgeAt; lo += 128 { // 7 of 8 lookups hit
		in := repeating(toks[lo:lo+128], 1024)
		tr.Translate(src, in, in)
	}
	if tr.Interned != 2*memoJudgeAt || b.used == 0 {
		t.Errorf("repetitive key: interned=%d (want %d), charged=%d", tr.Interned, 2*memoJudgeAt, b.used)
	}
}

// A budget that denies the memo's growth costs hits, never correctness.
func TestTranslatorBudgetDenied(t *testing.T) {
	b := &testBudget{limit: 2 * memoMinSlots * slotBytes}
	tr, dst := newTestTranslator(types.CollateBinary, b)
	src, toks := sharedHeap(500)
	for block := 0; block < 4; block++ {
		in := repeating(toks, 1024)
		out := make([]uint64, len(in))
		tr.Translate(src, in, out)
		checkStrings(t, src, dst, in, out)
	}
	if b.used > b.limit {
		t.Errorf("charged %d over the limit %d", b.used, b.limit)
	}
	tr.Release()
	if b.used != 0 {
		t.Errorf("%d bytes still charged after Release", b.used)
	}
}

// Without an accelerator the translator appends, duplicates and all.
func TestTranslatorPlainAppend(t *testing.T) {
	dst := New(types.CollateBinary)
	tr := NewTranslator(dst, nil, &testBudget{}, "test")
	src, toks := sharedHeap(3)
	in := repeating(toks, 30)
	out := make([]uint64, len(in))
	tr.Translate(src, in, out)
	checkStrings(t, src, dst, in, out)
	if dst.Len() != 30 {
		t.Errorf("destination holds %d strings, want one per row (30)", dst.Len())
	}
}
