package heap

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tde/internal/types"
)

func TestAppendGet(t *testing.T) {
	h := New(types.CollateBinary)
	words := []string{"apple", "", "banana", "apple", "a much longer string with spaces"}
	toks := make([]uint64, len(words))
	for i, w := range words {
		toks[i] = h.Append(w)
	}
	for i, w := range words {
		if got := h.Get(toks[i]); got != w {
			t.Errorf("Get(%d) = %q, want %q", toks[i], got, w)
		}
	}
	if h.Len() != len(words) {
		t.Errorf("Len = %d", h.Len())
	}
	// Tokens are offsets: element i+1 starts after element i.
	if toks[1] != uint64(4+len("apple")) {
		t.Errorf("token layout wrong: %d", toks[1])
	}
}

func TestGetNullToken(t *testing.T) {
	h := New(types.CollateBinary)
	if h.Get(types.NullToken) != "" {
		t.Error("null token should read as empty")
	}
}

func TestTokensEnumeration(t *testing.T) {
	h := New(types.CollateBinary)
	var want []uint64
	for i := 0; i < 100; i++ {
		want = append(want, h.Append(fmt.Sprintf("s%d", i)))
	}
	got := h.Tokens()
	if len(got) != len(want) {
		t.Fatalf("Tokens returned %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d mismatch", i)
		}
	}
}

func TestSortedRemap(t *testing.T) {
	h := New(types.CollateBinary)
	words := []string{"pear", "apple", "zebra", "mango", "cherry"}
	old := make([]uint64, len(words))
	for i, w := range words {
		old[i] = h.Append(w)
	}
	nh, remap := h.SortedRemap()
	if !nh.Sorted() {
		t.Fatal("remapped heap not flagged sorted")
	}
	if nh.Len() != len(words) {
		t.Fatalf("remapped heap has %d elements", nh.Len())
	}
	// Remap must preserve content.
	for i, w := range words {
		if got := nh.Get(remap[old[i]]); got != w {
			t.Errorf("remap lost %q, got %q", w, got)
		}
	}
	// And the new tokens must order like the strings.
	sortedWords := append([]string(nil), words...)
	sort.Strings(sortedWords)
	for i, w := range words {
		rank := sort.SearchStrings(sortedWords, w)
		var tokRank int
		newTok := remap[old[i]]
		for _, o := range old {
			if remap[o] < newTok {
				tokRank++
			}
		}
		if tokRank != rank {
			t.Errorf("token order does not mirror string order for %q", w)
		}
	}
}

func TestSortedHeapCompareIsTokenCompare(t *testing.T) {
	h := New(types.CollateCaseFold)
	for _, w := range []string{"Banana", "apple", "Cherry"} {
		h.Append(w)
	}
	nh, _ := h.SortedRemap()
	toks := nh.Tokens()
	for i := 1; i < len(toks); i++ {
		if nh.Compare(toks[i-1], toks[i]) >= 0 {
			t.Error("sorted heap comparison broken")
		}
	}
	// Case-insensitive order: apple < Banana < Cherry.
	if nh.Get(toks[0]) != "apple" || nh.Get(toks[1]) != "Banana" {
		t.Errorf("collation order wrong: %q, %q", nh.Get(toks[0]), nh.Get(toks[1]))
	}
}

func TestIsSortedOrderDetectsFortuitousOrder(t *testing.T) {
	h := New(types.CollateBinary)
	for _, w := range []string{"a", "b", "c"} {
		h.Append(w)
	}
	if h.Sorted() {
		t.Fatal("append must clear the sorted flag")
	}
	if !h.IsSortedOrder() {
		t.Fatal("sorted insertion order not detected")
	}
	if !h.Sorted() {
		t.Fatal("detection must cache the flag")
	}
	h2 := New(types.CollateBinary)
	h2.Append("b")
	h2.Append("a")
	if h2.IsSortedOrder() {
		t.Fatal("unsorted heap detected as sorted")
	}
}

func TestAcceleratorDedup(t *testing.T) {
	h := New(types.CollateBinary)
	a := NewAccelerator(h, 0)
	t1 := a.Intern("hello")
	t2 := a.Intern("world")
	t3 := a.Intern("hello")
	if t1 == t2 {
		t.Error("distinct strings share a token")
	}
	if t1 != t3 {
		t.Error("duplicate string got a new token")
	}
	if h.Len() != 2 {
		t.Errorf("heap has %d elements, want 2", h.Len())
	}
	if !a.Distinct() {
		t.Error("accelerator should report distinct tokens")
	}
}

func TestAcceleratorCollationAwareDedup(t *testing.T) {
	h := New(types.CollateCaseFold)
	a := NewAccelerator(h, 0)
	t1 := a.Intern("Hello")
	t2 := a.Intern("hELLO")
	if t1 != t2 {
		t.Error("case variants must intern to one token under fold collation")
	}
}

func TestAcceleratorGivesUp(t *testing.T) {
	h := New(types.CollateBinary)
	a := NewAccelerator(h, 10)
	for i := 0; i < 20; i++ {
		a.Intern(fmt.Sprintf("unique-%d", i))
	}
	if a.Active() {
		t.Fatal("accelerator did not give up past the limit")
	}
	if a.Distinct() {
		t.Fatal("after giving up, distinctness is no longer guaranteed")
	}
	// Duplicates now append: heap grows.
	before := h.Len()
	a.Intern("unique-0")
	if h.Len() != before+1 {
		t.Error("post-giveup intern should append")
	}
}

func TestAcceleratorHashCollisionCandidates(t *testing.T) {
	// Force many strings through; dedup must stay correct even when the
	// collated hash collides (the candidate list comparison path).
	h := New(types.CollateBinary)
	a := NewAccelerator(h, 0)
	rng := rand.New(rand.NewSource(1))
	seen := map[string]uint64{}
	for i := 0; i < 5000; i++ {
		s := fmt.Sprintf("w%d", rng.Intn(700))
		tok := a.Intern(s)
		if prev, ok := seen[s]; ok && prev != tok {
			t.Fatalf("string %q interned to two tokens", s)
		}
		seen[s] = tok
	}
	if h.Len() != len(seen) {
		t.Errorf("heap %d vs %d distinct", h.Len(), len(seen))
	}
}

func TestHeapRoundTripProperty(t *testing.T) {
	err := quick.Check(func(words []string) bool {
		h := New(types.CollateBinary)
		toks := make([]uint64, len(words))
		for i, w := range words {
			toks[i] = h.Append(w)
		}
		for i, w := range words {
			if h.Get(toks[i]) != w {
				return false
			}
		}
		return h.Len() == len(words)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestHeapSerializationRoundTrip(t *testing.T) {
	h := New(types.CollateEN)
	for _, w := range []string{"x", "yy", "zzz"} {
		h.Append(w)
	}
	h.IsSortedOrder()
	h2, err := FromBytes(h.Bytes(), h.Len(), h.Collation(), h.Sorted())
	if err != nil {
		t.Fatal(err)
	}
	if h2.Len() != 3 || !h2.Sorted() || h2.Collation() != types.CollateEN {
		t.Fatal("heap metadata lost in round trip")
	}
	toks := h2.Tokens()
	if h2.Get(toks[2]) != "zzz" {
		t.Fatal("heap content lost in round trip")
	}
}

// TestLocateAndExtend: Locate finds the first of duplicate elements and
// leaves an absent string NULL; an extension keeps the base tokens and
// grows without touching the base.
func TestLocateAndExtend(t *testing.T) {
	h := New(types.CollateBinary)
	a, b, a2 := h.Append("a"), h.Append(""), h.Append("a")
	want := map[string]uint64{"a": types.NullToken, "": types.NullToken, "zz": types.NullToken}
	h.Locate(want)
	if want["a"] != a || want[""] != b || want["zz"] != types.NullToken || a2 == a {
		t.Fatalf("Locate = %v (a at %d, empty at %d)", want, a, b)
	}
	size := h.Size()
	ext := h.Extend()
	z := ext.Append("zz")
	if h.Size() != size || h.Len() != 3 || ext.Len() != 4 || ext.Get(a) != "a" || ext.Get(z) != "zz" {
		t.Fatalf("base %d bytes/%d elements, extension %d elements", h.Size(), h.Len(), ext.Len())
	}
	h.Locate(map[string]uint64{}) // nothing to find: no pass at all
}
