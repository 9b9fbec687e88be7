package enc

import "math"

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
func (st *Stats) Update(vals []uint64) { st.fold(vals) }

// blockSummary is what one fold learns about its block alone; the zone
// tracker builds the block's entry from it.
type blockSummary struct {
	nulls      int
	hasData    bool
	minS, maxS int64 // non-NULL range, raw patterns read as int64
}

// fold is Update in one pass over the block. The loop keeps the block's
// data range, NULL count, delta range, runs and sortedness in locals; the
// value ranges are the data range plus the sentinel when the block holds
// a NULL, and the distinct set is only probed when the value changes.
func (st *Stats) fold(vals []uint64) blockSummary {
	if len(vals) == 0 {
		return blockSummary{}
	}
	sent, hasSent := st.sentinel, st.hasSentinel
	nulls := 0
	dMinS, dMaxS := int64(math.MaxInt64), int64(math.MinInt64)
	dMinU, dMaxU := uint64(math.MaxUint64), uint64(0)
	minD, maxD := int64(math.MaxInt64), int64(math.MinInt64)
	prev, cur, maxRun, runs := st.prev, st.curRun, st.MaxRun, st.Runs
	unsorted, unsortedU := false, false
	rest := vals
	if st.N == 0 {
		v := vals[0]
		st.first, prev = v, v
		cur, maxRun, runs = 1, 1, 1
		st.addDistinct(v)
		if hasSent && v == sent {
			nulls++
		} else {
			dMinS, dMaxS, dMinU, dMaxU = int64(v), int64(v), v, v
		}
		rest = vals[1:]
	}
	for _, v := range rest {
		d := int64(v - prev)
		minD, maxD = min(minD, d), max(maxD, d)
		unsorted = unsorted || int64(v) < int64(prev)
		unsortedU = unsortedU || v < prev
		if v == prev {
			cur++
		} else {
			maxRun, cur = max(maxRun, cur), 1
			runs++
			if !st.Overflowed {
				st.addDistinct(v)
			}
		}
		if hasSent && v == sent {
			nulls++
		} else {
			dMinS, dMaxS = min(dMinS, int64(v)), max(dMaxS, int64(v))
			dMinU, dMaxU = min(dMinU, v), max(dMaxU, v)
		}
		prev = v
	}
	st.prev, st.curRun, st.MaxRun, st.Runs = prev, cur, max(maxRun, cur), runs
	st.SortedAsc = st.SortedAsc && !unsorted
	st.SortedAscU = st.SortedAscU && !unsortedU
	if len(rest) > 0 {
		if st.N >= 2 {
			st.MinDelta, st.MaxDelta = min(st.MinDelta, minD), max(st.MaxDelta, maxD)
		} else {
			st.MinDelta, st.MaxDelta = minD, maxD
		}
	}

	hasData := nulls < len(vals)
	fMinS, fMaxS, fMinU, fMaxU := dMinS, dMaxS, dMinU, dMaxU
	if nulls > 0 {
		fMinS, fMaxS = min(fMinS, int64(sent)), max(fMaxS, int64(sent))
		fMinU, fMaxU = min(fMinU, sent), max(fMaxU, sent)
	}
	if st.N == 0 {
		st.MinS, st.MaxS, st.MinU, st.MaxU = fMinS, fMaxS, fMinU, fMaxU
	} else {
		st.MinS, st.MaxS = min(st.MinS, fMinS), max(st.MaxS, fMaxS)
		st.MinU, st.MaxU = min(st.MinU, fMinU), max(st.MaxU, fMaxU)
	}
	if hasData {
		if st.hasData {
			st.DataMinS, st.DataMaxS = min(st.DataMinS, dMinS), max(st.DataMaxS, dMaxS)
			st.DataMinU, st.DataMaxU = min(st.DataMinU, dMinU), max(st.DataMaxU, dMaxU)
		} else {
			st.DataMinS, st.DataMaxS, st.DataMinU, st.DataMaxU = dMinS, dMaxS, dMinU, dMaxU
			st.hasData = true
		}
	}
	st.NullCount += nulls
	st.N += len(vals)
	return blockSummary{nulls: nulls, hasData: hasData, minS: dMinS, maxS: dMaxS}
}

// addDistinct adds v to the distinct set, giving tracking up for good
// once the set passes DistinctCap.
func (st *Stats) addDistinct(v uint64) {
	if st.distinct.add(v) && st.distinct.n > st.DistinctCap {
		st.Overflowed = true
		st.distinct = valueSet{}
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
