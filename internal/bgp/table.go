package bgp

import (
	"slices"

	"tango/internal/addr"
)

// Table numbers a network's prefix universe: the i-th prefix in
// addr.Prefix.Compare order is number i. Every speaker of one network
// indexes its RIBs by the same Table, an UPDATE names its prefixes by
// number, and sorting numbers sorts prefixes. A Table is never written
// after NewTable, so speakers on partitions that run in parallel read it
// without a lock.
type Table struct {
	prefixes []addr.Prefix // sorted, unique
}

// NewTable numbers ps, which may repeat prefixes and come in any order.
func NewTable(ps ...addr.Prefix) *Table {
	sorted := slices.Clone(ps)
	slices.SortFunc(sorted, addr.Prefix.Compare)
	return &Table{prefixes: slices.Compact(sorted)}
}

// find returns p's number, or -1 if p is not in the table.
func (t *Table) find(p addr.Prefix) int32 {
	if i, ok := slices.BinarySearchFunc(t.prefixes, p, addr.Prefix.Compare); ok {
		return int32(i)
	}
	return -1
}
