package enc

import (
	"math/rand"
	"testing"
)

// TestStatsDistinctMatchesReference feeds values in small blocks — zero
// and the all-ones pattern among them — and checks Distinct against a map
// after every block, up to the cap (exact) and past it (given up for good).
func TestStatsDistinctMatchesReference(t *testing.T) {
	for _, cap := range []int{1, 100, 1 << DictMaxBits} {
		rng := rand.New(rand.NewSource(int64(cap)))
		st := NewStats(false, ^uint64(0), true)
		st.DistinctCap = cap
		ref := map[uint64]bool{}
		for round := 0; len(ref) <= cap+10; round++ {
			block := make([]uint64, 1+rng.Intn(4))
			for i := range block {
				switch r := rng.Intn(20); {
				case r == 0:
					block[i] = 0
				case r == 1:
					block[i] = ^uint64(0)
				case r < 10:
					block[i] = uint64(rng.Intn(round/4 + 1)) // mostly repeats
				default:
					block[i] = rng.Uint64() >> uint(rng.Intn(64))
				}
			}
			st.Update(block)
			for _, v := range block {
				ref[v] = true
			}
			n, exact := st.Distinct()
			if len(ref) <= cap {
				if !exact || n != len(ref) {
					t.Fatalf("cap %d round %d: Distinct() = %d, %v; want %d, true", cap, round, n, exact, len(ref))
				}
				if st.Overflowed {
					t.Fatalf("cap %d round %d: overflowed at %d distinct", cap, round, len(ref))
				}
			} else if exact || n != 0 || !st.Overflowed {
				t.Fatalf("cap %d round %d: %d distinct past the cap, Distinct() = %d, %v", cap, round, len(ref), n, exact)
			}
		}
	}
}

// TestStatsDistinctZeroIsAValue: the set marks empty slots with zero, so
// the value zero is tracked apart; it must count once, like any other.
func TestStatsDistinctZeroIsAValue(t *testing.T) {
	st := NewStats(false, 0, false)
	st.Update([]uint64{0, 0, 5, 0, 5})
	if n, exact := st.Distinct(); n != 2 || !exact {
		t.Fatalf("Distinct() = %d, %v; want 2, true", n, exact)
	}
}

// TestStatsUpdateAllocatesNothing: once the distinct set has grown to
// hold the column's domain, folding a block in allocates nothing.
func TestStatsUpdateAllocatesNothing(t *testing.T) {
	st := NewStats(true, 1<<63, true)
	block := make([]uint64, 1024)
	for i := range block {
		block[i] = uint64(i % 300)
	}
	st.Update(block)
	if n := testing.AllocsPerRun(100, func() { st.Update(block) }); n != 0 {
		t.Errorf("Stats.Update after warm-up allocates %.1f times", n)
	}
}
