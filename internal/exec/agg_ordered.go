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
				c.findTuple()
			}
			return 0, nil
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
// group, which the input still feeds, to index 0 with its string tokens translated into fresh heaps;
// only the retained state is charged again. The columns keep their room,
// unless that room is what the budget denies: then they shrink to 16
// groups'.
func (c *aggCore) compact(qc *QueryCtx) error {
	old := append([]*heap.Heap(nil), c.strHeaps...)
	for col, h := range old {
		if h != nil {
			c.freshHeap(qc, col, h.Collation())
		}
	}
	drop := c.finished()
	copy(c.keys, c.keys[drop*len(c.keyCols):c.n*len(c.keyCols)])
	for j := range c.cols {
		c.cols[j].keepLast(c.n)
	}
	c.n -= drop
	for j, kc := range c.keyCols {
		if old[kc] != nil {
			c.keys[j] = c.strTr[kc].One(old[kc], c.keys[j])
		}
	}
	retained := 0
	for j, s := range c.specs {
		a := &c.cols[j]
		if s.Col < 0 {
			continue
		}
		str := old[s.Col] != nil
		if a.ext != nil && a.seen.has(0) && str {
			a.ext[0] = c.strTr[s.Col].One(old[s.Col], a.ext[0])
		}
		if s.Func == CountD {
			if str && a.wide[0].distinct != nil {
				nd := make(map[uint64]struct{}, len(a.wide[0].distinct))
				for tok := range a.wide[0].distinct {
					nd[c.strTr[s.Col].One(old[s.Col], tok)] = struct{}{}
				}
				a.wide[0].distinct = nd
			}
			retained += len(a.wide[0].distinct)
		}
		if s.Func == Median {
			retained += len(a.wide[0].all)
		}
	}
	c.heapBytes = heapSizes(c.strHeaps)
	qc.Release(c.charged)
	c.charged = 0
	cost := func() int { return c.stateBytes() + c.heapBytes + retained*16 }
	err := qc.Charge(c.st.kind, cost())
	if err != nil && c.room > 16 {
		c.reserve(16)
		err = qc.Charge(c.st.kind, cost())
	}
	c.stateCharged = c.stateBytes()
	if err != nil {
		return err
	}
	c.charged = cost()
	return nil
}
