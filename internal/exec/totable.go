package exec

import "tde/internal/storage"

// ToTable converts a built (FlowTable) result into a stored table, the
// hand-off from import execution to the single-file store.
func (bt *Built) ToTable(name string) *storage.Table {
	t := &storage.Table{Name: name}
	for i := range bt.Cols {
		c := &bt.Cols[i]
		col := &storage.Column{
			Name:  c.Info.Name,
			Type:  c.Info.Type,
			Data:  c.Data,
			Dict:  c.Info.Dict,
			Heap:  c.Info.Heap,
			Meta:  c.Info.Meta,
			Zones: c.Zones,
		}
		if c.Info.Heap != nil {
			col.Collation = c.Info.Heap.Collation()
		}
		t.Columns = append(t.Columns, col)
	}
	return t
}
