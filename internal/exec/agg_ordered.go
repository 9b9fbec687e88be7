package exec

import (
	"tde/internal/heap"
	"tde/internal/vec"
)

// Ordered aggregation folds input sorted (grouped) on its keys, so a group
// is final once the key changes and the only state it must hold is the
// running group. One streaming fold (aggEmitter.nextGroups) serves both
// of its users: an AggOrdered Aggregate, fed its child's blocks, and the
// hash spill's depth-cap merge, fed its partition's partial rows in key
// order.

// orderedInput is what the streaming fold reads.
type orderedInput interface {
	// fold folds the next rows into c without charging them and returns
	// how many it folded: 0 once the input has ended.
	fold(c *aggCore) (int, error)
	// close releases the input, at its end or when the query stops early.
	close()
}

// childInput feeds an AggOrdered Aggregate's child to the fold, one block
// at a time.
type childInput struct {
	a *Aggregate
	b *vec.Block
}

func (in *childInput) fold(c *aggCore) (int, error) {
	for {
		ok, err := in.a.child.Next(in.b)
		if err != nil {
			return 0, err
		}
		if !ok {
			if len(c.keyCols) == 0 && c.n == 0 {
				// No input rows: an aggregate without keys still answers one
				// row, COUNT 0 and every other aggregate NULL.
				_, err = c.findTuple()
			}
			return 0, err
		}
		if in.b.N > 0 {
			err = c.foldBlock(in.b)
			in.a.runBlocks = c.runBlocks
			return in.b.N, err
		}
	}
}

// close also settles the routine, which names the run-at-a-time folds
// only the input's end or an early stop can count.
func (in *childInput) close() {
	in.a.st.SetRoutine(in.a.routine())
	in.a.child.Close()
}

// compact drops the finished groups, all emitted, and moves the running
// group to the front of the slabs with its string tokens translated into
// fresh heaps; only the retained state is charged again. The slabs keep
// their room, unless that room is what the budget denies: then they
// shrink to the running group's.
func (c *aggCore) compact(qc *QueryCtx) error {
	old := append([]*heap.Heap(nil), c.strHeaps...)
	for col, h := range old {
		if h != nil {
			c.freshHeap(qc, col, h.Collation())
		}
	}
	nk, ns := len(c.keyCols), len(c.specs)
	drop := c.finished()
	c.n -= drop
	c.keys = append(c.keys[:0], c.keys[drop*nk:]...)
	c.accs = append(c.accs[:0], c.accs[drop*ns:]...)
	if c.perRow > 0 {
		n := copy(c.wide, c.wide[drop*ns:])
		clear(c.wide[n:]) // lets the finished groups' COUNTD/MEDIAN state go
		c.wide = c.wide[:n]
	}
	for j, kc := range c.keyCols {
		if old[kc] != nil {
			c.keys[j] = c.strTr[kc].One(old[kc], c.keys[j])
		}
	}
	retained := 0
	for j, s := range c.specs {
		if s.Col < 0 {
			continue
		}
		ac := &c.accs[j]
		str := old[s.Col] != nil
		if (s.Func == Min || s.Func == Max) && ac.seen && str {
			ac.minB = c.strTr[s.Col].One(old[s.Col], ac.minB)
			ac.maxB = c.strTr[s.Col].One(old[s.Col], ac.maxB)
		}
		if s.Func == CountD {
			if str {
				nd := make(map[uint64]struct{}, len(c.wide[j].distinct))
				for tok := range c.wide[j].distinct {
					nd[c.strTr[s.Col].One(old[s.Col], tok)] = struct{}{}
				}
				c.wide[j].distinct = nd
			}
			retained += len(c.wide[j].distinct)
		}
		if s.Func == Median {
			retained += len(c.wide[j].all)
		}
	}
	c.heapBytes = heapSizes(c.strHeaps)
	qc.Release(c.charged)
	c.charged = 0
	cost := func() int { return c.slabCap*c.groupCost + c.heapBytes + retained*16 }
	err := qc.Charge(c.st.kind, cost())
	if err != nil && c.slabCap > 16 {
		c.slabCap = 0
		c.growSlabs()
		err = qc.Charge(c.st.kind, cost())
	}
	c.slabCharged = c.slabCap
	if err != nil {
		return err
	}
	c.charged = cost()
	return nil
}
