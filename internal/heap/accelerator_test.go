package heap

import (
	"math/rand"
	"strings"
	"testing"

	"tde/internal/types"
)

// collationKey is the equivalence class of s under coll, computed without
// the accelerator's code: case-folded under ci; under en the lowercase-first
// tiebreak separates every case variant, so only identical bytes are equal.
func collationKey(coll types.Collation, s string) string {
	if coll == types.CollateCaseFold {
		return strings.ToLower(s)
	}
	return s
}

// randomWord draws from a tiny alphabet with both cases, so the same word
// recurs, ci folds case variants together, and en sees case variants that
// hash alike (the hash folds case) but do not compare equal.
func randomWord(rng *rand.Rand) string {
	const alphabet = "aAbBcC1-"
	b := make([]byte, rng.Intn(5))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestAcceleratorMatchesReference interns random words under every
// collation and checks the flat index against a map keyed on the
// collation's equivalence class: through table growth, and past the
// give-up limit, after which every call appends.
func TestAcceleratorMatchesReference(t *testing.T) {
	for _, coll := range []types.Collation{types.CollateBinary, types.CollateCaseFold, types.CollateEN} {
		for _, limit := range []int{0, 300} {
			rng := rand.New(rand.NewSource(int64(coll)*7 + int64(limit)))
			h := New(coll)
			a := NewAccelerator(h, limit)
			ref := map[string]uint64{}
			gaveUp := false
			for i := 0; i < 20000; i++ {
				s := randomWord(rng)
				if i%3 == 0 {
					s += string(rune('0'+rng.Intn(10))) + randomWord(rng) // widen the domain past the first growths
				}
				before := h.Len()
				tok := a.Intern(s)
				if got := h.Get(tok); !coll.Equal(got, s) {
					t.Fatalf("%v limit %d: Intern(%q) -> token reading %q", coll, limit, s, got)
				}
				if gaveUp {
					if h.Len() != before+1 || h.Get(tok) != s {
						t.Fatalf("%v limit %d: after giving up, Intern(%q) must append", coll, limit, s)
					}
					continue
				}
				key := collationKey(coll, s)
				if want, ok := ref[key]; ok {
					if tok != want {
						t.Fatalf("%v limit %d: %q -> %d, seen before as %d", coll, limit, s, tok, want)
					}
				} else {
					if h.Len() != before+1 {
						t.Fatalf("%v limit %d: new %q did not append", coll, limit, s)
					}
					ref[key] = tok
				}
				gaveUp = !a.Active()
			}
			if limit == 0 {
				if !a.Active() || !a.Distinct() || a.DomainSize() != len(ref) {
					t.Fatalf("%v: active=%v distinct=%v domain=%d, want true/true/%d",
						coll, a.Active(), a.Distinct(), a.DomainSize(), len(ref))
				}
				if len(ref) < 4*memoMinSlots {
					t.Fatalf("%v: only %d distinct words; the table never grew", coll, len(ref))
				}
			} else if a.Active() || a.Distinct() || len(ref) != limit {
				t.Fatalf("%v limit %d: active=%v distinct=%v after %d distinct, want false/false at the limit",
					coll, limit, a.Active(), a.Distinct(), len(ref))
			}
		}
	}
}

// TestAcceleratorCaseVariantsUnderEN: case variants collide on the folded
// hash but are different strings under en, so each gets its own token.
func TestAcceleratorCaseVariantsUnderEN(t *testing.T) {
	h := New(types.CollateEN)
	a := NewAccelerator(h, 0)
	words := []string{"abc", "ABC", "aBc", "Abc"}
	seen := map[uint64]bool{}
	for _, w := range words {
		tok := a.Intern(w)
		if seen[tok] {
			t.Fatalf("%q shares a token with an earlier case variant", w)
		}
		seen[tok] = true
	}
	for _, w := range words {
		if got := h.Get(a.Intern(w)); got != w {
			t.Fatalf("re-intern %q read %q", w, got)
		}
	}
	if h.Len() != len(words) {
		t.Fatalf("heap has %d elements, want %d", h.Len(), len(words))
	}
}

// TestAcceleratorHitAllocatesNothing pins the in-place probe: a hit reads
// the candidate's bytes where they lie.
func TestAcceleratorHitAllocatesNothing(t *testing.T) {
	for _, coll := range []types.Collation{types.CollateBinary, types.CollateEN} {
		a := NewAccelerator(New(coll), 0)
		words := []string{"MAIL", "SHIP", "TRUCK", "AIR", "RAIL", "FOB", "REG AIR"}
		for _, w := range words {
			a.Intern(w)
		}
		i := 0
		if n := testing.AllocsPerRun(1000, func() {
			a.Intern(words[i%len(words)])
			i++
		}); n != 0 {
			t.Errorf("%v: Intern on a hit allocates %.1f times", coll, n)
		}
	}
}

// TestTranslatorScratchBlockAllocatesNothing: a text-import block (a
// scratch heap, ascending tokens) whose strings the destination already
// holds translates with no allocation — bytes are read in place.
func TestTranslatorScratchBlockAllocatesNothing(t *testing.T) {
	tr, _ := newTestTranslator(types.CollateBinary, &testBudget{})
	src := New(types.CollateBinary)
	in := make([]uint64, 1024)
	for i := range in {
		if i%10 == 9 {
			in[i] = types.NullToken
			continue
		}
		in[i] = src.Append([]string{"N", "R", "A"}[i%3])
	}
	out := make([]uint64, len(in))
	tr.Translate(src, in, out) // the destination learns the three strings
	if n := testing.AllocsPerRun(100, func() { tr.Translate(src, in, out) }); n != 0 {
		t.Errorf("Translate of a known scratch block allocates %.1f times", n)
	}
	checkStrings(t, src, tr.dst, in, out)
}
