package enc

// Stats are the per-column statistics the dynamic encoder maintains as
// values are inserted (Sect. 3.2: "These statistics are simple to gather,
// consisting mostly of the value range and delta range"). They serve three
// masters: choosing the best encoding at any point, deciding whether the
// final stream should be rewritten to the optimal format, and the metadata
// extraction of Sect. 3.4.2 (min/max, cardinality, sortedness, density,
// nullability).
type Stats struct {
	// N is the number of values observed, including NULL sentinels.
	N int
	// NullCount counts NULL sentinel occurrences, when a sentinel is known.
	NullCount int

	// Value range in both interpretations; the encoder picks per the
	// column's signedness. Ranges include sentinel values, because the
	// encoding must represent them too.
	MinS, MaxS int64
	MinU, MaxU uint64

	// Data range excluding NULL sentinels, for metadata extraction.
	DataMinS, DataMaxS int64
	DataMinU, DataMaxU uint64
	hasData            bool

	// Delta range over consecutive values, in the signed (wraparound)
	// interpretation used by the delta encoding.
	MinDelta, MaxDelta int64

	// Run structure: number of maximal equal-value runs and longest run.
	Runs   int
	MaxRun int
	curRun int

	// SortedAsc reports values nondecreasing in the signed interpretation;
	// SortedAscU in the unsigned one (tokens).
	SortedAsc  bool
	SortedAscU bool

	// Distinct tracking, abandoned past the dictionary limit.
	distinct    valueSet
	DistinctCap int  // tracking limit, 2^DictMaxBits by default
	Overflowed  bool // true once tracking gave up

	first, prev uint64
	signed      bool
	sentinel    uint64
	hasSentinel bool
}

// NewStats returns statistics for a column whose values are interpreted as
// signed when signed is true. If hasSentinel, values equal to sentinel are
// counted as NULLs and excluded from the data range.
func NewStats(signed bool, sentinel uint64, hasSentinel bool) *Stats {
	return &Stats{
		SortedAsc:   true,
		SortedAscU:  true,
		DistinctCap: 1 << DictMaxBits,
		signed:      signed,
		sentinel:    sentinel,
		hasSentinel: hasSentinel,
	}
}

// Update folds a block of values into the statistics. The paper's dynamic
// encoder updates statistics before attempting the block insert, so a
// failed insert can immediately consult them for the re-encoding choice.
func (st *Stats) Update(vals []uint64) {
	for _, v := range vals {
		if st.N == 0 {
			st.first, st.prev = v, v
			st.MinS, st.MaxS = int64(v), int64(v)
			st.MinU, st.MaxU = v, v
			st.MinDelta, st.MaxDelta = 0, 0
			st.Runs, st.curRun, st.MaxRun = 1, 1, 1
		} else {
			if int64(v) < st.MinS {
				st.MinS = int64(v)
			}
			if int64(v) > st.MaxS {
				st.MaxS = int64(v)
			}
			if v < st.MinU {
				st.MinU = v
			}
			if v > st.MaxU {
				st.MaxU = v
			}
			d := int64(v - st.prev)
			if st.N == 1 {
				st.MinDelta, st.MaxDelta = d, d
			} else {
				if d < st.MinDelta {
					st.MinDelta = d
				}
				if d > st.MaxDelta {
					st.MaxDelta = d
				}
			}
			if int64(v) < int64(st.prev) {
				st.SortedAsc = false
			}
			if v < st.prev {
				st.SortedAscU = false
			}
			if v == st.prev {
				st.curRun++
				if st.curRun > st.MaxRun {
					st.MaxRun = st.curRun
				}
			} else {
				st.Runs++
				st.curRun = 1
			}
			st.prev = v
		}
		if st.hasSentinel && v == st.sentinel {
			st.NullCount++
		} else {
			if !st.hasData {
				st.DataMinS, st.DataMaxS = int64(v), int64(v)
				st.DataMinU, st.DataMaxU = v, v
				st.hasData = true
			} else {
				if int64(v) < st.DataMinS {
					st.DataMinS = int64(v)
				}
				if int64(v) > st.DataMaxS {
					st.DataMaxS = int64(v)
				}
				if v < st.DataMinU {
					st.DataMinU = v
				}
				if v > st.DataMaxU {
					st.DataMaxU = v
				}
			}
		}
		if !st.Overflowed && st.distinct.add(v) && st.distinct.n > st.DistinctCap {
			st.Overflowed = true
			st.distinct = valueSet{}
		}
		st.N++
	}
}

// First returns the first value observed.
func (st *Stats) First() uint64 { return st.first }

// Last returns the most recent value observed.
func (st *Stats) Last() uint64 { return st.prev }

// Distinct returns the tracked distinct value count and whether it is
// exact (false once tracking overflowed).
func (st *Stats) Distinct() (int, bool) {
	if st.Overflowed {
		return 0, false
	}
	return st.distinct.n, true
}

// valueSet is a set of values in one flat open-addressing table, at most
// half full and addressed by the top bits of a multiplicative hash. Zero
// marks an empty slot, so the value zero is a flag of its own.
type valueSet struct {
	slots []uint64
	shift uint
	n     int // members, zero included
	zero  bool
}

const (
	setMinSlots = 64
	setFibMul   = 0x9E3779B97F4A7C15
)

// add inserts v and reports whether it was new.
func (s *valueSet) add(v uint64) bool {
	if v == 0 {
		if s.zero {
			return false
		}
		s.zero = true
		s.n++
		return true
	}
	if s.slots == nil {
		s.slots, s.shift = make([]uint64, setMinSlots), 64-6
	}
	mask := uint64(len(s.slots) - 1)
	i := (v * setFibMul) >> s.shift
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if s.slots[i] == v {
			return false
		}
	}
	s.slots[i] = v
	if s.n++; s.n*2 > len(s.slots) {
		s.grow()
	}
	return true
}

func (s *valueSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	s.shift--
	mask := uint64(len(s.slots) - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := (v * setFibMul) >> s.shift
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = v
	}
}

// ConstantDelta reports whether all consecutive deltas are equal, the
// applicability condition for affine encoding, along with that delta.
func (st *Stats) ConstantDelta() (int64, bool) {
	if st.N < 2 {
		return 0, false
	}
	return st.MinDelta, st.MinDelta == st.MaxDelta
}

// rangeBits returns the packing bits needed for the observed value range
// under the column's signedness.
func (st *Stats) rangeBits() int {
	if st.N == 0 {
		return 0
	}
	if st.signed {
		return bitsFor(uint64(st.MaxS - st.MinS))
	}
	return bitsFor(st.MaxU - st.MinU)
}

// deltaBits returns the packing bits needed for the observed delta range.
func (st *Stats) deltaBits() int {
	if st.N < 2 {
		return 0
	}
	return bitsFor(uint64(st.MaxDelta - st.MinDelta))
}

// frame returns the frame-of-reference base for the observed values.
func (st *Stats) frame() int64 {
	if st.signed {
		return st.MinS
	}
	return int64(st.MinU)
}
